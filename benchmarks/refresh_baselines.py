"""Regenerate the perf-gate baselines from fresh benchmark runs.

Runs every gated benchmark (the :data:`KNOWN_BENCHMARKS` that
``check_throughput_regression.py`` enforces), then copies the fresh
``benchmarks/results/BENCH_*.json`` files over the committed baselines
in ``benchmarks/baselines/``. Use it after a change that is *supposed*
to shift throughput — ``make bench-baselines`` is the front door —
and commit the updated baseline files with that change.

The baselines are recorded on whatever machine runs this, but the gate
compares speedup *ratios*, so a baseline refreshed on a fast laptop
still gates correctly on a slow CI runner.
"""

import argparse
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

BENCHMARK_SCRIPTS = {
    "sim_throughput": BENCH_DIR / "bench_sim_throughput.py",
    "trace_pipeline": BENCH_DIR / "bench_trace_pipeline.py",
    "batched_engine": BENCH_DIR / "bench_batched_engine.py",
    "batched_enabled": BENCH_DIR / "bench_batched_enabled.py",
    "resume_overhead": BENCH_DIR / "bench_resume_overhead.py",
    "scenarios": BENCH_DIR / "bench_scenarios.py",
}


def run_benchmark(name, rounds):
    script = BENCHMARK_SCRIPTS[name]
    print(f"== running {script.name} (rounds={rounds}) ==")
    subprocess.run(
        [sys.executable, str(script), "--rounds", str(rounds)], check=True, cwd=str(REPO_ROOT)
    )


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Re-run the gated benchmarks and overwrite the "
        "committed baselines with the fresh results."
    )
    parser.add_argument(
        "--benchmarks",
        default=",".join(BENCHMARK_SCRIPTS),
        help="comma-separated benchmark names to refresh (default: all gated)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=3,
        help="timing rounds per benchmark (best-of); more rounds give a steadier baseline",
    )
    args = parser.parse_args(argv)

    names = [n for n in args.benchmarks.split(",") if n]
    unknown = sorted(set(names) - set(BENCHMARK_SCRIPTS))
    if unknown:
        raise SystemExit(
            f"unknown benchmarks: {', '.join(unknown)} (known: {', '.join(BENCHMARK_SCRIPTS)})"
        )

    for name in names:
        run_benchmark(name, args.rounds)

    gate = BENCH_DIR / "check_throughput_regression.py"
    subprocess.run(
        [sys.executable, str(gate), "--benchmarks", ",".join(names), "--update"],
        check=True,
        cwd=str(REPO_ROOT),
    )
    print(
        "baselines refreshed; review the diff and commit the updated "
        "files under benchmarks/baselines/"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
