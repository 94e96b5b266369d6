"""Simulation-engine throughput: compiled fast path vs interpreter.

The memory-hierarchy simulator has two engines (DESIGN.md §5): the
reference interpreter (forced with ``REPRO_SLOW_ENGINE=1``) and the
compiled-trace fast path that ``run()`` takes by default for ``Trace``
inputs. This benchmark times both engines over three arms:

* ``stream`` — a pure 8-byte-stride load stream (L1-hit dominated),
  where the compiled engine's inlined hit path matters most.
  Target: >= 3x over the interpreter.
* ``mixed_off`` — the fleetbench workload mix with hardware
  prefetchers disabled (the ablation study's "off" arm).
  Target: >= 2x.
* ``mixed_on`` — the same mix with the default prefetcher bank
  enabled (informational; prefetcher callbacks dominate).

Each timing uses a fresh hierarchy per round (best of ``--rounds``),
and every arm first checks the two engines produce bit-identical
results before any number is reported. Results go to
``benchmarks/results/BENCH_sim_throughput.json``; CI's perf-smoke job
runs the CLI with ``--min-stream-speedup`` as a regression gate.
"""

import argparse
import contextlib
import json
import operator
import os
import pathlib
import statistics
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
try:
    import repro  # noqa: F401
except ImportError:  # CLI use without PYTHONPATH=src
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.access import MemoryAccess, Trace
from repro.memsys import MemoryHierarchy, PrefetcherBank
from repro.memsys.hierarchy import SLOW_ENGINE_ENV, reference_engine
from repro.memsys.prefetchers.bank import default_prefetcher_bank
from repro.workloads.memo import memoized_fleet_mix

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
OUTPUT_PATH = RESULTS_DIR / "BENCH_sim_throughput.json"

STREAM_ACCESSES = 160_000
MIXED_SEED = 7
MIXED_SCALE = 3
DEFAULT_ROUNDS = 3

STAT_FIELDS = (
    "instructions", "compute_cycles", "stall_cycles", "loads", "stores",
    "software_prefetches", "l1_misses", "l2_misses", "llc_misses",
    "prefetch_covered", "late_prefetch_hits", "dram_wait_ns",
    "late_prefetch_wait_ns",
)

RESULT_FIELDS = (
    "elapsed_ns", "dram_demand_fills", "dram_prefetch_fills",
    "dram_demand_bytes", "dram_prefetch_bytes", "hw_prefetches_issued",
    "useful_prefetches", "wasted_prefetches",
)


def stream_trace():
    """A pure load stream with an 8-byte stride: ~7/8 L1 hits."""
    return Trace([MemoryAccess(address=i * 8, size=8, pc=1,
                               function="stream")
                  for i in range(STREAM_ACCESSES)])


def build_arms():
    mixed = memoized_fleet_mix(MIXED_SEED, MIXED_SCALE)
    return (
        {"name": "stream", "trace": stream_trace(),
         "bank": lambda: PrefetcherBank([]), "enabled": False,
         "target_speedup": 3.0},
        {"name": "mixed_off", "trace": mixed,
         "bank": default_prefetcher_bank, "enabled": False,
         "target_speedup": 2.0},
        {"name": "mixed_on", "trace": mixed,
         "bank": default_prefetcher_bank, "enabled": True,
         "target_speedup": None},
    )


def fingerprint(result):
    """Every observable RunResult number, for the equivalence check."""
    return (
        tuple(getattr(result, field) for field in RESULT_FIELDS),
        tuple(getattr(result.total, field) for field in STAT_FIELDS),
        tuple(sorted(
            (name, tuple(getattr(stats, field) for field in STAT_FIELDS))
            for name, stats in result.functions.items())),
    )


def run_engine(arm, slow, rounds):
    """Best-of-``rounds`` wall time on fresh hierarchies, plus a result."""
    with reference_engine() if slow else contextlib.nullcontext():
        best = float("inf")
        result = None
        for _ in range(rounds):
            hierarchy = MemoryHierarchy(prefetchers=arm["bank"]())
            hierarchy.set_hardware_prefetchers(arm["enabled"])
            start = time.perf_counter()
            result = hierarchy.run(arm["trace"])
            best = min(best, time.perf_counter() - start)
        return best, result


def run_tracer_overhead(rounds=DEFAULT_ROUNDS):
    """Time the stream arm with observability off, disabled, and on.

    ``plain`` is the untouched simulator (``obs`` left ``None``);
    ``disabled`` attaches the falsy :data:`NULL_TRACER` — the state every
    study runs in when no ``--obs-dir`` is given — and must stay within
    the CI gate of the plain time; ``enabled`` attaches a recording
    tracer (informational).

    The overheads are the median of each round's paired ratio (a mode's
    time over the plain time of the same round), so a slow stretch of
    the host moves both sides of a ratio together. The best-of times
    ``*_s`` are informational.
    """
    from repro.obs import NULL_TRACER, Tracer

    arm = build_arms()[0]  # stream: the hot-loop-dominated arm
    arm["trace"].compile()

    def one_run(obs, repeats=3):
        # A single stream run is ~0.1s — short enough that scheduler
        # jitter alone exceeds the 5% CI gate. Timing several runs per
        # sample amortizes that noise.
        hierarchies = []
        for _ in range(repeats):
            hierarchy = MemoryHierarchy(prefetchers=arm["bank"]())
            hierarchy.set_hardware_prefetchers(arm["enabled"])
            hierarchy.obs = obs
            hierarchies.append(hierarchy)
        start = time.perf_counter()
        for hierarchy in hierarchies:
            hierarchy.run(arm["trace"])
        return time.perf_counter() - start

    # Interleave the modes within each round so clock drift, turbo
    # behaviour, and cache warmth hit all three equally; one untimed
    # warmup run soaks up first-touch effects. The per-run wall time is
    # ~0.1s, small enough that scheduler noise on shared runners swamps
    # a 5% gate at low sample counts — so this section takes more
    # best-of samples than the engine comparison does.
    tracer_rounds = max(3 * rounds, 9)
    one_run(None)
    plain, disabled, enabled = [], [], []
    for _ in range(tracer_rounds):
        plain.append(one_run(None))
        disabled.append(one_run(NULL_TRACER))
        enabled.append(one_run(Tracer()))
    return {
        "accesses": STREAM_ACCESSES,
        "plain_s": min(plain),
        "disabled_s": min(disabled),
        "enabled_s": min(enabled),
        "disabled_overhead": statistics.median(
            map(operator.truediv, disabled, plain)) - 1.0,
        "enabled_overhead": statistics.median(
            map(operator.truediv, enabled, plain)) - 1.0,
    }


def run_experiment(rounds=DEFAULT_ROUNDS):
    if os.environ.get(SLOW_ENGINE_ENV):
        raise SystemExit(
            f"{SLOW_ENGINE_ENV} is set; the compiled leg would run the "
            "interpreter, so this benchmark would measure nothing — unset "
            "it first")
    arms = {}
    for arm in build_arms():
        # Lowering is one-time per trace (cached on the Trace object and
        # shared through the workload memo), so it is amortized out of
        # the per-run timing the same way it is across a fleet study.
        arm["trace"].compile()
        compiled_s, compiled_result = run_engine(arm, slow=False,
                                                 rounds=rounds)
        interp_s, interp_result = run_engine(arm, slow=True, rounds=rounds)
        if fingerprint(compiled_result) != fingerprint(interp_result):
            raise AssertionError(
                f"engines disagree on arm {arm['name']!r}; refusing to "
                "report throughput for a broken fast path")
        accesses = compiled_result.total.instructions
        arms[arm["name"]] = {
            "accesses": accesses,
            "interpreter_s": interp_s,
            "compiled_s": compiled_s,
            "interpreter_accesses_per_s": accesses / interp_s,
            "compiled_accesses_per_s": accesses / compiled_s,
            "speedup": interp_s / compiled_s,
            "target_speedup": arm["target_speedup"],
            "equivalent": True,
        }
    return {
        "benchmark": "sim_throughput",
        "rounds": rounds,
        "stream_accesses": STREAM_ACCESSES,
        "mixed_seed": MIXED_SEED,
        "mixed_scale": MIXED_SCALE,
        "arms": arms,
        "tracer": run_tracer_overhead(rounds),
    }


def write_output(data, path=OUTPUT_PATH):
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


def summary_lines(data):
    lines = [f"{'arm':>10} {'accesses':>9} {'interp acc/s':>13} "
             f"{'compiled acc/s':>15} {'speedup':>8} {'target':>7}"]
    for name, arm in data["arms"].items():
        target = (f"{arm['target_speedup']:.1f}x"
                  if arm["target_speedup"] else "-")
        lines.append(
            f"{name:>10} {arm['accesses']:9d} "
            f"{arm['interpreter_accesses_per_s']:13.0f} "
            f"{arm['compiled_accesses_per_s']:15.0f} "
            f"{arm['speedup']:7.2f}x {target:>7}")
    lines.append("both engines verified bit-identical on every arm")
    tracer = data.get("tracer")
    if tracer:
        lines.append(
            f"tracer overhead on stream: disabled "
            f"{tracer['disabled_overhead']:+.1%}, enabled "
            f"{tracer['enabled_overhead']:+.1%}")
    return lines


def test_sim_throughput(benchmark, report):
    data = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    write_output(data)

    # The ISSUE targets (3x stream, 2x mixed) are what the JSON records;
    # the enforced floor stays conservative so shared CI runners do not
    # flake the suite.
    assert data["arms"]["stream"]["speedup"] >= 1.5
    assert data["arms"]["mixed_off"]["speedup"] >= 1.0

    report("BENCH_sim_throughput",
           "Simulation throughput — compiled engine vs interpreter",
           summary_lines(data))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the compiled trace engine against the "
                    "reference interpreter.")
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS,
                        help="timing rounds per engine (best-of)")
    parser.add_argument("--output", default=str(OUTPUT_PATH),
                        help="where to write the JSON results")
    parser.add_argument("--min-stream-speedup", type=float, default=0.0,
                        help="fail unless the stream arm reaches this "
                             "compiled/interpreter speedup")
    parser.add_argument("--min-mixed-speedup", type=float, default=0.0,
                        help="fail unless the mixed_off arm reaches this "
                             "speedup")
    parser.add_argument("--max-tracer-overhead", type=float, default=None,
                        help="fail if a disabled tracer slows the stream "
                             "arm by more than this fraction (e.g. 0.05)")
    args = parser.parse_args(argv)

    data = run_experiment(rounds=args.rounds)
    path = write_output(data, args.output)
    print("\n".join(summary_lines(data)))
    print(f"wrote {path}")

    failures = []
    if data["arms"]["stream"]["speedup"] < args.min_stream_speedup:
        failures.append(
            f"stream speedup {data['arms']['stream']['speedup']:.2f}x "
            f"< required {args.min_stream_speedup:.2f}x")
    if data["arms"]["mixed_off"]["speedup"] < args.min_mixed_speedup:
        failures.append(
            f"mixed_off speedup {data['arms']['mixed_off']['speedup']:.2f}x "
            f"< required {args.min_mixed_speedup:.2f}x")
    if (args.max_tracer_overhead is not None
            and data["tracer"]["disabled_overhead"]
            > args.max_tracer_overhead):
        failures.append(
            f"disabled-tracer overhead "
            f"{data['tracer']['disabled_overhead']:+.1%} "
            f"> allowed {args.max_tracer_overhead:+.1%}")
    for failure in failures:
        print(f"PERF GATE FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
