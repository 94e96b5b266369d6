"""Batched lockstep engine throughput with ENABLED hardware prefetchers.

``bench_batched_engine`` times the ablated-fleet shape (empty banks).
This benchmark times the other half of DESIGN.md §11: 256 arms running
the *default aggressive prefetcher bank*, where the engine trains one
set of bank clones per lockstep group and issues hardware prefetches
through the shared cache state — the ``mode control`` sweep and the
noisy-neighbor control-mode shape. Scalar baseline and equivalence
checking mirror the ablated benchmark: a sample of arms runs the scalar
compiled engine and every observable number (including the hardware
prefetch counters) must match bit-for-bit before any throughput is
reported. A second batched leg keeps every arm's state
(``export_state=True``, the epoch-loop shape: arms share the pass's
caches as one lineage and each adopts the clones' training); it passes
the same equivalence check and is reported under ``export``, outside
the gated ``arms``. Results go to
``benchmarks/results/BENCH_batched_enabled.json``; CI's perf job gates
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

from repro.memsys import ConstantExternalLoad, MemoryHierarchy, run_many
from repro.memsys.hierarchy import SLOW_ENGINE_ENV
from repro.workloads.memo import memoized_fleet_mix

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
OUTPUT_PATH = RESULTS_DIR / "BENCH_batched_enabled.json"

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

    Heterogeneous loads keep the per-arm float lanes doing real work
    while cache *and prefetcher* behaviour stays arm-invariant — the
    enabled-bank lockstep invariant this benchmark exercises.
    """
    return (index % 16) * 0.125


def build_arm(index):
    # prefetchers=None keeps the hierarchy's default aggressive bank —
    # every arm identical, so the whole fleet forms one lockstep group.
    return MemoryHierarchy(
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


def time_batched(trace, arm_count, rounds, export_state=False):
    """Best-of-``rounds`` batched wall time, plus the last results."""
    best = float("inf")
    results = None
    for _ in range(rounds):
        arms = [build_arm(i) for i in range(arm_count)]
        start = time.perf_counter()
        results = run_many(arms, trace, export_state=export_state)
        best = min(best, time.perf_counter() - start)
    return best, results


def time_scalar_sample(trace, sample_indices, rounds):
    """Best-of-``rounds`` scalar time over the sampled arms, plus results."""
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

    step = max(1, arm_count // sample)
    sample_indices = list(range(0, arm_count, step))[:sample]

    batched_s, batched_results = time_batched(trace, arm_count, rounds)
    scalar_s, scalar_results = time_scalar_sample(trace, sample_indices,
                                                  rounds)
    # After the gated pair, so the two legs the gate divides stay
    # back to back.
    export_s, export_results = time_batched(trace, arm_count, rounds,
                                            export_state=True)

    for index, scalar_result in zip(sample_indices, scalar_results):
        for leg in (batched_results, export_results):
            if fingerprint(leg[index]) != fingerprint(scalar_result):
                raise AssertionError(
                    f"batched and scalar engines disagree on arm {index}; "
                    "refusing to report throughput for a broken fast path")
    issued = batched_results[0].hw_prefetches_issued
    if issued <= 0:
        raise AssertionError(
            "the enabled bank issued no hardware prefetches; this "
            "benchmark would be timing the ablated shape by accident")

    scalar_s_per_arm = scalar_s / len(sample_indices)
    scalar_s_extrapolated = scalar_s_per_arm * arm_count
    speedup = scalar_s_extrapolated / batched_s
    accesses = compiled.length
    return {
        "benchmark": "batched_enabled",
        "rounds": rounds,
        "machines": arm_count,
        "scalar_sample": len(sample_indices),
        "trace_seed": MIXED_SEED,
        "trace_scale": MIXED_SCALE,
        "accesses_per_arm": accesses,
        "hw_prefetches_per_arm": issued,
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
        # Report-only: outside ``arms``, so no baseline gates it.
        "export": {
            "machines": arm_count,
            "batched_s": export_s,
            "batched_arms_per_s": arm_count / export_s,
            "speedup": scalar_s_extrapolated / export_s,
            "equivalent": True,
        },
    }


def write_output(data, path=OUTPUT_PATH):
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


def summary_lines(data):
    arm = data["arms"]["sweep"]
    export = data["export"]
    return [
        f"{data['machines']} enabled-bank arms x "
        f"{data['accesses_per_arm']} accesses, "
        f"{data['hw_prefetches_per_arm']} hw prefetches/arm "
        f"(one lockstep group)",
        f"scalar (compiled engine): {arm['scalar_s_per_arm']:.3f} s/arm "
        f"-> {arm['scalar_s_extrapolated']:.1f} s extrapolated "
        f"({data['scalar_sample']}-arm sample)",
        f"batched lockstep sweep:   {arm['batched_s']:.1f} s total "
        f"({arm['batched_arms_per_s']:.1f} arms/s)",
        f"speedup: {arm['speedup']:.2f}x (target "
        f"{arm['target_speedup']:.1f}x)",
        f"batched with state export: {export['batched_s']:.1f} s total "
        f"({export['speedup']:.2f}x, report only)",
        "sampled arms verified bit-identical between engines",
    ]


def test_batched_enabled(benchmark, report):
    data = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    write_output(data)

    # The ISSUE target (>= 5x on a 256-machine enabled sweep) is what
    # the JSON records; the enforced floor stays conservative so shared
    # CI runners do not flake the suite.
    assert data["arms"]["sweep"]["speedup"] >= 2.0

    report("BENCH_batched_enabled",
           "Batched lockstep engine - 256 enabled-bank arms vs scalar",
           summary_lines(data))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the batched lockstep engine with the "
                    "default prefetcher bank enabled on every arm.")
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
