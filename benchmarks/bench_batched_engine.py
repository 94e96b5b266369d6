"""Batched lockstep engine throughput: 256-arm sweep vs scalar engine.

The fleet-batched engine (DESIGN.md §11) runs hundreds of independent
machine-arms over one shared trace in lockstep: cache behaviour is
arm-invariant across a group, so the engine does one cache pass and
replays only the per-arm float timing. This benchmark times
the sweep-path shape that motivates it — ``run_many`` over ``ARMS``
hierarchies with ``export_state=False``, exactly what
:class:`repro.fleet.sweep.MicroFleetSweep` executes per shard — against
the scalar compiled engine on a sample of the same arms, extrapolated
to the full arm count.

Before any number is reported, the sampled arms' batched results are
checked bit-identical to their scalar results (the same equivalence
contract the ``batched-equivalence`` CI job enforces across the full
test suite). Results go to
``benchmarks/results/BENCH_batched_engine.json``; CI's perf job gates
the ``speedup`` ratio against ``benchmarks/baselines/``.
"""

import argparse
import json
import os
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
try:
    import repro  # noqa: F401
except ImportError:  # CLI use without PYTHONPATH=src
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.memsys import (
    ConstantExternalLoad,
    MemoryHierarchy,
    PrefetcherBank,
    run_many,
)
from repro.memsys.hierarchy import SLOW_ENGINE_ENV
from repro.workloads.memo import memoized_fleet_mix

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
OUTPUT_PATH = RESULTS_DIR / "BENCH_batched_engine.json"

ARMS = 256
SCALAR_SAMPLE = 8
MIXED_SEED = 7
MIXED_SCALE = 1.0
DEFAULT_ROUNDS = 2

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


def arm_load(index):
    """A deterministic per-arm background load in [0, 2) GB/s-equivalent.

    Heterogeneous external loads keep the per-arm timing vectors doing
    real work (every arm's clock, DRAM window, and stall totals differ)
    while cache behaviour stays arm-invariant — the exact shape the
    lockstep engine is built for.
    """
    return (index % 16) * 0.125


def build_arm(index):
    return MemoryHierarchy(
        prefetchers=PrefetcherBank([]),
        external_load=ConstantExternalLoad(arm_load(index)))


def fingerprint(result):
    """Every observable RunResult number, for the equivalence check."""
    return (
        tuple(getattr(result, field) for field in RESULT_FIELDS),
        tuple(getattr(result.total, field) for field in STAT_FIELDS),
        tuple(sorted(
            (name, tuple(getattr(stats, field) for field in STAT_FIELDS))
            for name, stats in result.functions.items())),
    )


def time_batched(trace, arm_count, rounds):
    """Best-of-``rounds`` sweep-path wall time, plus the last results."""
    best = float("inf")
    results = None
    for _ in range(rounds):
        arms = [build_arm(i) for i in range(arm_count)]
        start = time.perf_counter()
        results = run_many(arms, trace, export_state=False)
        best = min(best, time.perf_counter() - start)
    return best, results


def time_scalar_sample(trace, sample_indices, rounds):
    """Best-of-``rounds`` scalar time over the sampled arms, plus results.

    ``REPRO_SLOW_ENGINE`` is left alone: the scalar baseline here is the
    compiled fast path, the engine a sweep would otherwise run per arm.
    """
    best = float("inf")
    results = None
    for _ in range(rounds):
        arms = [build_arm(i) for i in sample_indices]
        start = time.perf_counter()
        round_results = [arm.run(trace) for arm in arms]
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            results = round_results
    return best, results


def run_experiment(arm_count=ARMS, rounds=DEFAULT_ROUNDS,
                   sample=SCALAR_SAMPLE):
    if os.environ.get(SLOW_ENGINE_ENV):
        raise SystemExit(
            f"{SLOW_ENGINE_ENV} is set; it disables the batched engine, "
            "so this benchmark would measure nothing — unset it first")
    trace = memoized_fleet_mix(MIXED_SEED, MIXED_SCALE)
    compiled = trace.compile()

    # Spread the scalar sample across the arm range so it sees the full
    # span of external loads, including the unloaded arm 0.
    step = max(1, arm_count // sample)
    sample_indices = list(range(0, arm_count, step))[:sample]

    batched_s, batched_results = time_batched(trace, arm_count, rounds)
    scalar_s, scalar_results = time_scalar_sample(trace, sample_indices,
                                                  rounds)

    for index, scalar_result in zip(sample_indices, scalar_results):
        if fingerprint(batched_results[index]) != fingerprint(scalar_result):
            raise AssertionError(
                f"batched and scalar engines disagree on arm {index}; "
                "refusing to report throughput for a broken fast path")

    scalar_s_per_arm = scalar_s / len(sample_indices)
    scalar_s_extrapolated = scalar_s_per_arm * arm_count
    speedup = scalar_s_extrapolated / batched_s
    accesses = compiled.length
    return {
        "benchmark": "batched_engine",
        "rounds": rounds,
        "machines": arm_count,
        "scalar_sample": len(sample_indices),
        "trace_seed": MIXED_SEED,
        "trace_scale": MIXED_SCALE,
        "accesses_per_arm": accesses,
        "arms": {
            "sweep": {
                "machines": arm_count,
                "accesses": accesses * arm_count,
                "scalar_s_per_arm": scalar_s_per_arm,
                "scalar_s_extrapolated": scalar_s_extrapolated,
                "batched_s": batched_s,
                "batched_arms_per_s": arm_count / batched_s,
                "speedup": speedup,
                "target_speedup": 5.0,
                "equivalent": True,
            },
        },
    }


def write_output(data, path=OUTPUT_PATH):
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


def summary_lines(data):
    arm = data["arms"]["sweep"]
    return [
        f"{data['machines']} arms x {data['accesses_per_arm']} accesses "
        f"(one lockstep group)",
        f"scalar (compiled engine): {arm['scalar_s_per_arm']:.3f} s/arm "
        f"-> {arm['scalar_s_extrapolated']:.1f} s extrapolated "
        f"({data['scalar_sample']}-arm sample)",
        f"batched lockstep sweep:   {arm['batched_s']:.1f} s total "
        f"({arm['batched_arms_per_s']:.1f} arms/s)",
        f"speedup: {arm['speedup']:.2f}x (target "
        f"{arm['target_speedup']:.1f}x)",
        "sampled arms verified bit-identical between engines",
    ]


def test_batched_engine(benchmark, report):
    data = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    write_output(data)

    # The ISSUE target (>= 5x on a 256-machine sweep) is what the JSON
    # records; the enforced floor stays conservative so shared CI
    # runners do not flake the suite.
    assert data["arms"]["sweep"]["speedup"] >= 2.0

    report("BENCH_batched_engine",
           "Batched lockstep engine - 256-arm sweep vs scalar",
           summary_lines(data))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the batched lockstep engine on the "
                    "sweep-path shape against the scalar engine.")
    parser.add_argument("--arms", type=int, default=ARMS,
                        help="machine-arms in the sweep")
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS,
                        help="timing rounds per engine (best-of)")
    parser.add_argument("--sample", type=int, default=SCALAR_SAMPLE,
                        help="arms to run on the scalar engine for the "
                             "baseline and equivalence check")
    parser.add_argument("--output", default=str(OUTPUT_PATH),
                        help="where to write the JSON results")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail unless the sweep reaches this "
                             "batched/scalar speedup")
    args = parser.parse_args(argv)

    data = run_experiment(arm_count=args.arms, rounds=args.rounds,
                          sample=args.sample)
    path = write_output(data, args.output)
    print("\n".join(summary_lines(data)))
    print(f"wrote {path}")

    speedup = data["arms"]["sweep"]["speedup"]
    if speedup < args.min_speedup:
        print(f"PERF GATE FAILED: sweep speedup {speedup:.2f}x "
              f"< required {args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
