"""Argument parsing and dispatch for the ``repro`` CLI."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cli import commands
from repro.units import DEFAULT_SHARD_SIZE


def _add_execution_flags(subparser: argparse.ArgumentParser) -> None:
    """Shared sharded-execution flags for the fleet-study subcommands."""
    subparser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="process-pool size for sharded studies (default: "
             "$REPRO_WORKERS or 1; 0 = all CPUs); results are identical "
             "at any worker count")
    subparser.add_argument(
        "--cache-dir", type=str, default=None, metavar="DIR",
        help="reuse study results from this on-disk cache (default: "
             "$REPRO_CACHE_DIR; unset disables caching)")


def _add_checkpoint_flags(subparser: argparse.ArgumentParser) -> None:
    """Shared work-queue flags for the fleet-study subcommands."""
    subparser.add_argument(
        "--checkpoint-dir", type=str, default=None, metavar="DIR",
        help="journal each finished shard to this directory and restore "
             "finished shards on re-run (default: $REPRO_CHECKPOINT; "
             "unset disables checkpointing); results are bit-identical "
             "with or without resume")
    subparser.add_argument(
        "--resume", action="store_true",
        help="assert that a checkpoint directory is configured (fail "
             "fast if not) and report how many shards were restored")


def _add_obs_flag(subparser: argparse.ArgumentParser) -> None:
    """Shared observability flag for the fleet-study subcommands."""
    subparser.add_argument(
        "--obs-dir", type=str, default=None, metavar="DIR",
        help="write a run manifest and merged event log under this "
             "directory (default: $REPRO_OBS_DIR; unset disables "
             "observability); inspect with 'repro report <run-dir>'")


def _add_shard_size_flag(subparser: argparse.ArgumentParser) -> None:
    """The shared shard-plan flag for the sharded fleet studies."""
    subparser.add_argument(
        "--shard-size", type=int, default=DEFAULT_SHARD_SIZE, metavar="M",
        help="max machines per shard (default %(default)s)")


def _add_compare_serial_flag(subparser: argparse.ArgumentParser) -> None:
    """The shared ``--compare-serial`` determinism-check flag."""
    subparser.add_argument(
        "--compare-serial", action="store_true",
        help="also rerun the study as the serial oracle (one worker, "
             "no cache, journal or run directory; trace-driven studies "
             "on the reference interpreter) and fail unless its digest "
             "is bit-identical")


def _add_fault_plan_flag(subparser: argparse.ArgumentParser) -> None:
    """The shared fault-injection flag for the fleet-study subcommands."""
    subparser.add_argument(
        "--fault-plan", type=str, default=None, metavar="SPEC",
        help="inject faults per this plan, e.g. "
             "'seed=3;telemetry-drop:rate=0.1;machine-crash:rate=0.02' "
             "(default: fault-free)")


def _prune_cap(text: str) -> int:
    """``--prune N``: a non-negative entry cap. Negative caps are usage
    errors, not the bare flag (which the parser marks with ``-1``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Limoncello (ASPLOS 2024) reproduction toolkit")
    subparsers = parser.add_subparsers(dest="command", required=True)

    daemon = subparsers.add_parser(
        "daemon", help="run the control loop on a scripted profile")
    daemon.add_argument("--lower", type=float, default=60.0,
                        help="lower threshold, %% of saturation")
    daemon.add_argument("--upper", type=float, default=80.0,
                        help="upper threshold, %% of saturation")
    daemon.add_argument("--sustain", type=float, default=3.0,
                        help="sustain duration, seconds")
    daemon.add_argument("--duration", type=float, default=40.0,
                        help="run length, seconds")
    daemon.add_argument(
        "--profile", type=str,
        default="0:85,8:75,12:55,22:70,28:90",
        help="bandwidth profile as t_s:GBps comma pairs "
             "(saturation is 100 GB/s)")
    daemon.set_defaults(run=commands.run_daemon)

    curve = subparsers.add_parser(
        "latency-curve", help="loaded-latency measurement (Figure 1)")
    curve.add_argument("--points", type=int, default=11,
                       help="utilization points from 0 to 1")
    curve.add_argument("--hops", type=int, default=300,
                       help="pointer-chase probe hops per point")
    curve.add_argument("--chart", action="store_true",
                       help="also render an ASCII chart of the curves")
    curve.set_defaults(run=commands.run_latency_curve)

    ablation = subparsers.add_parser(
        "ablation", help="paired fleet ablation study")
    ablation.add_argument("--mode", choices=("off", "hard", "hard+soft",
                                             "soft-only"),
                          default="off")
    ablation.add_argument("--machines", type=int, default=16)
    ablation.add_argument("--epochs", type=int, default=60)
    ablation.add_argument("--warmup", type=int, default=20)
    ablation.add_argument("--seed", type=int, default=9)
    _add_shard_size_flag(ablation)
    _add_compare_serial_flag(ablation)
    _add_execution_flags(ablation)
    _add_checkpoint_flags(ablation)
    _add_fault_plan_flag(ablation)
    _add_obs_flag(ablation)
    ablation.set_defaults(run=commands.run_ablation)

    sweep = subparsers.add_parser(
        "sweep", help="trace-driven micro-fleet sweep through the "
                      "batched lockstep engine")
    sweep.add_argument("--mode", choices=("off", "control"), default="off",
                       help="'off' ablates every hardware prefetcher; "
                            "'control' keeps the default bank (both "
                            "lockstep-batch)")
    sweep.add_argument("--machines", type=int, default=64)
    sweep.add_argument("--seed", type=int, default=17)
    sweep.add_argument("--scale", type=float, default=1.0,
                       help="workload scale factor for the shared trace")
    _add_shard_size_flag(sweep)
    sweep.add_argument(
        "--trace", choices=("fleetbench", "scenario"),
        default="fleetbench",
        help="shared trace every arm replays: the fleetbench-style mix "
             "(default) or the scenario subsystem's two-tenant "
             "noisy-neighbor interleave")
    _add_compare_serial_flag(sweep)
    _add_execution_flags(sweep)
    _add_checkpoint_flags(sweep)
    _add_fault_plan_flag(sweep)
    sweep.set_defaults(run=commands.run_sweep)

    rollout = subparsers.add_parser(
        "rollout", help="before/after rollout study (Figures 16-20)")
    rollout.add_argument("--machines", type=int, default=20)
    rollout.add_argument("--epochs", type=int, default=70)
    rollout.add_argument("--warmup", type=int, default=25)
    rollout.add_argument("--seed", type=int, default=5)
    _add_shard_size_flag(rollout)
    _add_compare_serial_flag(rollout)
    _add_execution_flags(rollout)
    _add_checkpoint_flags(rollout)
    _add_fault_plan_flag(rollout)
    _add_obs_flag(rollout)
    rollout.set_defaults(run=commands.run_rollout)

    queue = subparsers.add_parser(
        "queue", help="status of a checkpointed work-queue journal")
    queue.add_argument(
        "--checkpoint-dir", type=str, default=None, metavar="DIR",
        help="journal directory to inspect (default: $REPRO_CHECKPOINT)")
    queue.set_defaults(run=commands.run_queue)

    cache = subparsers.add_parser(
        "cache", help="inspect or prune an on-disk result cache / "
                      "checkpoint journal")
    cache.add_argument(
        "--cache-dir", type=str, default=None, metavar="DIR",
        help="cache directory to inspect (default: $REPRO_CACHE_DIR)")
    cache.add_argument(
        "--prune", nargs="?", type=_prune_cap, const=-1, default=None,
        metavar="N",
        help="evict the oldest entries beyond N (bare --prune uses the "
             "library's default cap)")
    cache.set_defaults(run=commands.run_cache)

    thresholds = subparsers.add_parser(
        "thresholds", help="threshold configuration sweep (Figure 10)")
    thresholds.add_argument("--machines", type=int, default=16)
    thresholds.add_argument("--epochs", type=int, default=60)
    thresholds.add_argument("--warmup", type=int, default=20)
    thresholds.add_argument("--seed", type=int, default=9)
    thresholds.add_argument("--hard-only", action="store_true",
                            help="sweep without Soft Limoncello")
    _add_execution_flags(thresholds)
    thresholds.set_defaults(run=commands.run_thresholds)

    microbench = subparsers.add_parser(
        "microbench", help="memcpy prefetch sweep (Figure 15)")
    microbench.add_argument("--distances", type=str, default="128,256,512")
    microbench.add_argument("--degrees", type=str, default="128,256,512")
    microbench.add_argument("--background", type=float, default=0.6,
                            help="background load, fraction of saturation")
    microbench.set_defaults(run=commands.run_microbench)

    calibrate = subparsers.add_parser(
        "calibrate", help="re-derive the fleet calibration table")
    calibrate.add_argument("--seed", type=int, default=42)
    calibrate.set_defaults(run=commands.run_calibrate)

    scenario = subparsers.add_parser(
        "scenario", help="microservice call-graph and noisy-neighbor "
                         "scenario studies with P50/P90/P99 SLO metrics")
    scenario_sub = scenario.add_subparsers(dest="scenario_command",
                                           required=True)

    callgraph = scenario_sub.add_parser(
        "callgraph", help="SLOFetch-style RPC call graph: per-service "
                          "and end-to-end request-latency percentiles")
    callgraph.add_argument(
        "--services", type=str, default=None, metavar="SPEC",
        help="semicolon-separated services, each "
             "name:kind:replicas:lines[>child*calls+...] (root first; "
             "kinds: stream, random, chase, mixed); default: a "
             "five-service frontend/auth/cache/storage topology")
    callgraph.add_argument("--requests", type=int, default=32,
                           help="arrival-stream length (every service "
                                "handles each request)")
    callgraph.add_argument("--seed", type=int, default=21)
    callgraph.add_argument("--mode", choices=("off", "control"),
                           default="off",
                           help="'off' ablates every hardware prefetcher; "
                                "'control' keeps the default bank "
                                "(replicas lockstep-batch in both)")
    callgraph.add_argument("--rpc-overhead-ns", type=float, default=500.0,
                           help="fixed per-call network/serialization "
                                "cost on every fan-out edge")
    _add_compare_serial_flag(callgraph)
    _add_execution_flags(callgraph)
    _add_checkpoint_flags(callgraph)
    _add_fault_plan_flag(callgraph)
    _add_obs_flag(callgraph)
    callgraph.set_defaults(run=commands.run_scenario_callgraph)

    noisy = scenario_sub.add_parser(
        "noisy", help="multi-tenant noisy-neighbor interference with "
                      "per-tenant attribution and QoS throttles")
    noisy.add_argument(
        "--tenants", type=str, default=None, metavar="SPEC",
        help="comma-separated tenants, each name:kind:lines[:throttle] "
             "(kinds: stream, random, chase, mixed; throttle in (0,1] "
             "scales offered volume); default: "
             "latency:stream:24,batch:random:96")
    noisy.add_argument("--machines", type=int, default=8)
    noisy.add_argument("--epochs", type=int, default=24,
                       help="control epochs per machine (one telemetry "
                            "sample and actuation each)")
    noisy.add_argument("--seed", type=int, default=23)
    noisy.add_argument("--mode",
                       choices=("enabled", "disabled", "hard",
                                "single-threshold"),
                       default="hard",
                       help="fixed prefetcher state, the stock "
                            "hysteresis controller, or the "
                            "no-hysteresis straw man flipping at --upper")
    noisy.add_argument("--upper", type=float, default=0.8,
                       help="controller upper threshold, fraction of "
                            "DRAM saturation")
    noisy.add_argument("--lower", type=float, default=0.6,
                       help="controller lower threshold")
    noisy.add_argument("--sustain-ns", type=float, default=30_000.0,
                       help="controller sustain duration, ns (trace "
                            "scale — the paper's seconds-scale sustain "
                            "never expires inside a microsecond replay)")
    _add_shard_size_flag(noisy)
    noisy.add_argument(
        "--baseline", action="store_true",
        help="also run the paired always-enabled twin over identical "
             "traffic and report per-tenant relative changes")
    _add_compare_serial_flag(noisy)
    _add_execution_flags(noisy)
    _add_checkpoint_flags(noisy)
    _add_fault_plan_flag(noisy)
    _add_obs_flag(noisy)
    noisy.set_defaults(run=commands.run_scenario_noisy)

    report = subparsers.add_parser(
        "report", help="run the headline experiments, emit a markdown "
                       "report; or, given a run directory, render its "
                       "observability timeline")
    report.add_argument(
        "run_dir", nargs="?", default=None, metavar="RUN_DIR",
        help="an observability run directory (from --obs-dir); renders "
             "its manifest and event log instead of re-running studies")
    report.add_argument("--json", action="store_true",
                        help="with RUN_DIR: emit the report as JSON")
    report.add_argument("--out", type=str, default="",
                        help="write to this file (default: stdout)")
    report.add_argument("--quick", action="store_true",
                        help="smaller fleets / fewer epochs")
    _add_execution_flags(report)
    report.set_defaults(run=commands.run_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
