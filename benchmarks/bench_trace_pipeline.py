"""Trace-pipeline throughput: the columnar path vs the record path.

The trace pipeline has three stages — generation, software-prefetch
injection, and the hierarchy run — and each stage has two
implementations: the columnar fast path (builder-generated traces,
compiled injection, zero-cost ``compile()``) and the record-path oracle
(generation and injection under ``repro.engine.reference_engine()``).
This benchmark times both over three arms:

* ``generate`` — bare fleetbench-mix generation: the builder writing
  compiled columns vs per-record dataclass construction plus the
  validating ``Trace``. Target: >= 1.5x.
* ``inject`` — software-prefetch injection over one memcpy batch:
  columnar run detection + splice vs the record-path rebuild.
* ``sweep`` — an end-to-end distance/degree speedup sweep: the new
  pipeline generates one columnar base and runs one baseline for the
  whole sweep, then re-injects and simulates per config; the old
  pipeline (the seed microbenchmark's behaviour) regenerated the batch
  for every run and re-ran the baseline for every speedup, so each
  config paid two generations, two lowerings, a record-path injection,
  and two simulations. This is the shape of Figure 13/15 sweeps, the
  tuner, and fleet calibration. Target: >= 2x.

Every arm first checks the two paths produce bit-identical traces (and,
for the sweep, bit-identical simulator results) before any number is
reported. The run also records, with ``tracemalloc``, how many bytes
per record the generated mix keeps alive (``--max-bytes-per-record``
gates it). Results go to ``benchmarks/results/BENCH_trace_pipeline.json``;
CI's perf-smoke job runs the CLI with ``--min-*-speedup`` gates and
diffs the JSON against the committed baseline.
"""

import argparse
import json
import pathlib
import random
import sys
import time
import tracemalloc

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
try:
    import repro  # noqa: F401
except ImportError:  # CLI use without PYTHONPATH=src
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.access import AddressSpace, Trace
from repro.core.soft.descriptor import PrefetchDescriptor
from repro.core.soft.injector import SoftwarePrefetchInjector
from repro.engine import reference_engine
from repro.memsys import MemoryHierarchy, PrefetcherBank
from repro.units import KB
from repro.workloads.mixes import fleetbench_trace
from repro.workloads.tax import memcpy_call_trace

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
OUTPUT_PATH = RESULTS_DIR / "BENCH_trace_pipeline.json"

MIX_SEED = 7
MIX_SCALE = 2.0
SWEEP_CALL_SIZES = tuple([64 * KB] * 6 + [16 * KB] * 8 + [256] * 20)
SWEEP_DISTANCES = (256, 1024)
SWEEP_DEGREES = (128, 256)
DEFAULT_ROUNDS = 3

STAT_FIELDS = (
    "instructions", "compute_cycles", "stall_cycles", "loads", "stores",
    "software_prefetches", "l1_misses", "l2_misses", "llc_misses",
    "prefetch_covered", "late_prefetch_hits", "dram_wait_ns",
    "late_prefetch_wait_ns",
)


def trace_fingerprint(trace):
    """Compiled columns + interning: the bit-identity key for a trace."""
    compiled = Trace(list(trace)).compile()
    return (tuple(compiled.functions),
            tuple(tuple(column) for column in compiled.columns()))


def result_fingerprint(result):
    return (
        result.elapsed_ns,
        tuple(getattr(result.total, field) for field in STAT_FIELDS),
        tuple(sorted(
            (name, tuple(getattr(stats, field) for field in STAT_FIELDS))
            for name, stats in result.functions.items())),
    )


def best_of(fn, rounds):
    best = float("inf")
    value = None
    for _ in range(rounds):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


# --- arm: generate -----------------------------------------------------------

def generate_mix():
    return fleetbench_trace(random.Random(MIX_SEED), AddressSpace(),
                            scale=MIX_SCALE)


def run_generate_arm(rounds):
    columnar_s, columnar = best_of(generate_mix, rounds)
    with reference_engine():
        record_s, record = best_of(generate_mix, rounds)
    if trace_fingerprint(columnar) != trace_fingerprint(record):
        raise AssertionError(
            "builder backends disagree on the fleetbench mix; refusing to "
            "report throughput for a broken columnar path")
    return {
        "records": len(columnar),
        "record_path_s": record_s,
        "columnar_s": columnar_s,
        "record_path_records_per_s": len(record) / record_s,
        "columnar_records_per_s": len(columnar) / columnar_s,
        "speedup": record_s / columnar_s,
        "target_speedup": 1.5,
        "equivalent": True,
    }


def measure_trace_bytes():
    """Bytes per record of the generated mix, by ``tracemalloc``: what the
    finished trace keeps alive (its columns and the int objects they
    hold) and the peak while it was being built."""
    generate_mix()  # warm every lazy import and cache first
    tracemalloc.start()
    try:
        trace = generate_mix()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "records": len(trace),
        "bytes_per_record": retained / len(trace),
        "build_peak_bytes_per_record": peak / len(trace),
    }


# --- arm: inject -------------------------------------------------------------

def make_injector():
    return SoftwarePrefetchInjector([
        PrefetchDescriptor("memcpy", distance_bytes=512, degree_bytes=256,
                           min_size_bytes=2 * KB)])


def run_inject_arm(rounds):
    base = memcpy_call_trace(AddressSpace(), list(SWEEP_CALL_SIZES) * 2)
    base.compile()
    # The record-path oracle iterates records; materialize them up front
    # so the timing compares injection work, not lazy materialization.
    record_base = Trace(list(base))

    columnar_s, columnar = best_of(
        lambda: make_injector().inject(base), rounds)
    with reference_engine():
        record_s, record = best_of(
            lambda: make_injector().inject(record_base), rounds)
    if trace_fingerprint(columnar) != trace_fingerprint(record):
        raise AssertionError(
            "injector paths disagree; refusing to report throughput for "
            "a broken compiled injector")
    return {
        "records": len(base),
        "prefetches_inserted": len(columnar) - len(base),
        "record_path_s": record_s,
        "columnar_s": columnar_s,
        "speedup": record_s / columnar_s,
        "target_speedup": None,
        "equivalent": True,
    }


# --- arm: sweep --------------------------------------------------------------

def sweep_configs():
    return [(distance, degree) for distance in SWEEP_DISTANCES
            for degree in SWEEP_DEGREES]


def sweep_descriptor(distance, degree):
    return PrefetchDescriptor("memcpy", distance_bytes=distance,
                              degree_bytes=degree, min_size_bytes=2 * KB)


def simulate(trace):
    hierarchy = MemoryHierarchy(prefetchers=PrefetcherBank([]))
    hierarchy.set_hardware_prefetchers(False)
    return hierarchy.run(trace)


def sweep_columnar():
    """The new pipeline: one columnar base and one baseline run for the
    whole sweep; each config only re-injects and simulates."""
    base = memcpy_call_trace(AddressSpace(), list(SWEEP_CALL_SIZES))
    baseline = simulate(base)
    results = []
    for distance, degree in sweep_configs():
        injector = SoftwarePrefetchInjector([
            sweep_descriptor(distance, degree)])
        results.append((baseline, simulate(injector.inject(base))))
    return results


def sweep_record_path():
    """The old pipeline, per config, exactly as the seed microbenchmark
    ran a speedup sweep: every ``run()`` regenerated the batch trace and
    every ``speedup()`` re-ran the baseline, so one config costs two
    generations, two lowerings, a record-path injection, and two
    simulations. Generation and injection take the record path; the
    simulations stay on the compiled engine, as in that benchmark."""
    results = []
    for distance, degree in sweep_configs():
        with reference_engine():
            baseline_trace = memcpy_call_trace(
                AddressSpace(), list(SWEEP_CALL_SIZES))
        baseline = simulate(baseline_trace)
        with reference_engine():
            base = memcpy_call_trace(AddressSpace(), list(SWEEP_CALL_SIZES))
            injector = SoftwarePrefetchInjector([
                sweep_descriptor(distance, degree)])
            injected = injector.inject(base)
        results.append((baseline, simulate(injected)))
    return results


def run_sweep_arm(rounds):
    columnar_s, columnar = best_of(sweep_columnar, rounds)
    record_s, record = best_of(sweep_record_path, rounds)
    fast_prints = [(result_fingerprint(baseline), result_fingerprint(out))
                   for baseline, out in columnar]
    slow_prints = [(result_fingerprint(baseline), result_fingerprint(out))
                   for baseline, out in record]
    if fast_prints != slow_prints:
        raise AssertionError(
            "sweep pipelines disagree on simulator results; refusing to "
            "report throughput for a broken columnar pipeline")
    return {
        "configs": len(sweep_configs()),
        "calls_per_config": len(SWEEP_CALL_SIZES),
        "baseline_runs_record_path": len(sweep_configs()),
        "baseline_runs_columnar": 1,
        "record_path_s": record_s,
        "columnar_s": columnar_s,
        "speedup": record_s / columnar_s,
        "target_speedup": 2.0,
        "equivalent": True,
    }


def run_experiment(rounds=DEFAULT_ROUNDS):
    return {
        "benchmark": "trace_pipeline",
        "rounds": rounds,
        "mix_seed": MIX_SEED,
        "mix_scale": MIX_SCALE,
        "arms": {
            "generate": run_generate_arm(rounds),
            "inject": run_inject_arm(rounds),
            "sweep": run_sweep_arm(rounds),
        },
        "memory": measure_trace_bytes(),
    }


def write_output(data, path=OUTPUT_PATH):
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


def summary_lines(data):
    lines = [f"{'arm':>9} {'record path':>12} {'columnar':>9} "
             f"{'speedup':>8} {'target':>7}"]
    for name, arm in data["arms"].items():
        target = (f"{arm['target_speedup']:.1f}x"
                  if arm["target_speedup"] else "-")
        lines.append(
            f"{name:>9} {arm['record_path_s']:11.3f}s "
            f"{arm['columnar_s']:8.3f}s {arm['speedup']:7.2f}x {target:>7}")
    lines.append("both paths verified bit-identical on every arm "
                 "(sweep: simulator results included)")
    memory = data["memory"]
    lines.append(f"generated mix: {memory['bytes_per_record']:.1f} B/record "
                 f"retained, {memory['build_peak_bytes_per_record']:.1f} "
                 f"B/record build peak")
    return lines


def test_trace_pipeline(benchmark, report):
    data = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    write_output(data)

    # The ISSUE targets (1.5x generate, 2x sweep) are what the JSON
    # records; the enforced floor stays conservative so shared CI
    # runners do not flake the suite.
    assert data["arms"]["generate"]["speedup"] >= 1.2
    assert data["arms"]["sweep"]["speedup"] >= 1.2
    assert data["arms"]["inject"]["speedup"] >= 0.8

    report("BENCH_trace_pipeline",
           "Trace pipeline — columnar vs record path",
           summary_lines(data))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the columnar trace pipeline against the "
                    "record-path oracle.")
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS,
                        help="timing rounds per path (best-of)")
    parser.add_argument("--output", default=str(OUTPUT_PATH),
                        help="where to write the JSON results")
    parser.add_argument("--min-generate-speedup", type=float, default=0.0,
                        help="fail unless bare generation reaches this "
                             "columnar/record speedup")
    parser.add_argument("--min-inject-speedup", type=float, default=0.0,
                        help="fail unless injection reaches this speedup")
    parser.add_argument("--min-sweep-speedup", type=float, default=0.0,
                        help="fail unless the end-to-end sweep reaches "
                             "this speedup")
    parser.add_argument("--max-bytes-per-record", type=float, default=None,
                        help="fail if the generated mix keeps more than "
                             "this many bytes alive per record")
    args = parser.parse_args(argv)

    data = run_experiment(rounds=args.rounds)
    path = write_output(data, args.output)
    print("\n".join(summary_lines(data)))
    print(f"wrote {path}")

    gates = (("generate", args.min_generate_speedup),
             ("inject", args.min_inject_speedup),
             ("sweep", args.min_sweep_speedup))
    failures = []
    for name, floor in gates:
        speedup = data["arms"][name]["speedup"]
        if speedup < floor:
            failures.append(f"{name} speedup {speedup:.2f}x "
                            f"< required {floor:.2f}x")
    per_record = data["memory"]["bytes_per_record"]
    if (args.max_bytes_per_record is not None
            and per_record > args.max_bytes_per_record):
        failures.append(f"trace memory {per_record:.1f} B/record "
                        f"> allowed {args.max_bytes_per_record:.1f}")
    for failure in failures:
        print(f"PERF GATE FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
