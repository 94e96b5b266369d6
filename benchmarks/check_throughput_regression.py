"""Benchmark regression gate for the engine-throughput benchmarks.

Compares freshly generated ``BENCH_*.json`` results against the
committed baselines in ``benchmarks/baselines/`` and fails when any
arm's *speedup ratio* regressed by more than the allowed fraction
(default 20%), or when a result digest (any top-level ``*_digest``
field present in both files) differs from the committed one — a
throughput number only counts if the run still computes the same
results. With no flags it gates every known benchmark
(:data:`KNOWN_BENCHMARKS`); ``--current``/``--baseline`` narrow it to
one explicit pair.

The gate compares speedup ratios, not absolute accesses/s: the ratio
divides out the raw speed of whatever runner CI landed on, so it is
stable across machine generations while still catching a fast path
that got slower relative to its reference engine.

Usage (CI runs this after the benchmarks themselves)::

    python benchmarks/check_throughput_regression.py

Exit codes are distinct so CI can tell setup problems from real
regressions: ``0`` all gates pass, ``1`` at least one metric regressed
or digest differs, ``2`` a results or baseline file is missing or
malformed (run the
benchmark / commit the baseline first — that is not a perf regression).

Refresh the baselines intentionally with ``--update`` (or
``make bench-baselines``, which regenerates the results first) after a
change that is *supposed* to shift throughput, and commit the new files.
"""

import argparse
import json
import pathlib
import shutil
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
BASELINES_DIR = BENCH_DIR / "baselines"
KNOWN_BENCHMARKS = ("sim_throughput", "trace_pipeline", "batched_engine",
                    "batched_enabled", "resume_overhead", "scenarios")
METRIC = "speedup"
DEFAULT_TOLERANCE = 0.20

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_MISSING = 2


class MissingInput(Exception):
    """A results or baseline file is absent or unreadable (exit 2)."""


def current_path(name):
    return RESULTS_DIR / f"BENCH_{name}.json"


def baseline_path(name):
    return BASELINES_DIR / f"BENCH_{name}.baseline.json"


def load(path, role):
    path = pathlib.Path(path)
    if not path.exists():
        raise MissingInput(f"missing {role} file: {path}")
    try:
        with path.open() as handle:
            data = json.load(handle)
    except ValueError as exc:
        raise MissingInput(f"malformed {role} file ({exc}): {path}")
    if not isinstance(data, dict) or "arms" not in data:
        raise MissingInput(f"malformed {role} file (no arms): {path}")
    return data


def compare(name, current, baseline, tolerance):
    """Per-arm verdict lines plus the list of failure descriptions."""
    lines = [f"{'arm':>10} {'baseline':>9} {'current':>8} "
             f"{'change':>8} {'verdict':>8}"]
    failures = []
    for arm_name, base_arm in sorted(baseline["arms"].items()):
        base = base_arm[METRIC]
        arm = current["arms"].get(arm_name)
        if arm is None:
            failures.append(
                f"{name}: arm {arm_name!r} missing from current results")
            lines.append(f"{arm_name:>10} {base:8.2f}x {'-':>8} {'-':>8} "
                         f"{'MISSING':>8}")
            continue
        observed = arm[METRIC]
        change = (observed - base) / base
        regressed = change < -tolerance
        if regressed:
            failures.append(
                f"{name}: arm {arm_name!r} metric {METRIC!r} observed "
                f"{observed:.2f}x vs baseline {base:.2f}x "
                f"(ratio {observed / base:.2f}, allowed >= "
                f"{1.0 - tolerance:.2f})")
        lines.append(
            f"{arm_name:>10} {base:8.2f}x {observed:7.2f}x {change:+7.1%} "
            f"{'REGRESS' if regressed else 'ok':>8}")
    for key in sorted(baseline):
        if not key.endswith("_digest") or key not in current:
            continue
        same = current[key] == baseline[key]
        if not same:
            failures.append(
                f"{name}: {key} {str(current[key])[:16]}... differs from "
                f"baseline {str(baseline[key])[:16]}...")
        lines.append(f"{key:>18} {'ok' if same else 'DIFFERS':>8}")
    return lines, failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Fail when engine speedups regressed past the "
                    "tolerance vs the committed baselines.")
    parser.add_argument("--benchmarks", default=",".join(KNOWN_BENCHMARKS),
                        help="comma-separated benchmark names to gate "
                             "(default: all known)")
    parser.add_argument("--current", default=None,
                        help="gate one explicit results JSON instead of "
                             "the named benchmarks")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON for --current (required "
                             "together)")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed fractional speedup regression "
                             "(default 0.20 = 20%%)")
    parser.add_argument("--update", action="store_true",
                        help="overwrite the baselines with the current "
                             "results instead of gating")
    parser.add_argument("--list", action="store_true",
                        help="print the known benchmarks and per-file "
                             "status (results present / baseline "
                             "committed), then exit 0")
    args = parser.parse_args(argv)

    if args.list:
        print(f"{'benchmark':>18} {'results':>8} {'baseline':>9}")
        for name in KNOWN_BENCHMARKS:
            print(f"{name:>18} "
                  f"{'yes' if current_path(name).exists() else 'no':>8} "
                  f"{'yes' if baseline_path(name).exists() else 'no':>9}")
        print(f"\nexit codes: {EXIT_OK} = all gates pass, "
              f"{EXIT_REGRESSION} = regression past tolerance, "
              f"{EXIT_MISSING} = missing/malformed results or baseline")
        return EXIT_OK

    if not 0.0 < args.tolerance < 1.0:
        raise SystemExit("--tolerance must be in (0, 1)")
    if (args.current is None) != (args.baseline is None):
        raise SystemExit("--current and --baseline go together")

    if args.current is not None:
        pairs = [("explicit", pathlib.Path(args.current),
                  pathlib.Path(args.baseline))]
    else:
        names = [n for n in args.benchmarks.split(",") if n]
        pairs = [(n, current_path(n), baseline_path(n)) for n in names]

    failures = []
    try:
        for name, cur_path, base_path in pairs:
            current = load(cur_path, "results")
            if args.update:
                base_path.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(cur_path, base_path)
                print(f"baseline updated: {base_path}")
                continue
            baseline = load(base_path, "baseline")
            lines, gate_failures = compare(name, current, baseline,
                                           args.tolerance)
            print(f"== {name} ==")
            print("\n".join(lines))
            failures.extend(gate_failures)
    except MissingInput as exc:
        print(f"BENCH SETUP ERROR: {exc}", file=sys.stderr)
        return EXIT_MISSING

    if args.update:
        return EXIT_OK
    for failure in failures:
        print(f"BENCH REGRESSION: {failure}", file=sys.stderr)
    if not failures:
        print(f"all arms within {args.tolerance:.0%} of baseline")
    return EXIT_REGRESSION if failures else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
