"""Argument parsing and dispatch for the ``repro`` CLI."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cli import commands


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


def _add_fault_plan_flag(subparser: argparse.ArgumentParser) -> None:
    """The shared fault-injection flag for the fleet-study subcommands."""
    subparser.add_argument(
        "--fault-plan", type=str, default=None, metavar="SPEC",
        help="inject faults per this plan, e.g. "
             "'seed=3;telemetry-drop:rate=0.1;machine-crash:rate=0.02' "
             "(default: $REPRO_FAULT_PLAN; unset runs fault-free)")


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
    ablation.add_argument("--shard-size", type=int, default=None,
                          help="max machines per shard (default 32)")
    ablation.add_argument(
        "--compare-serial", action="store_true",
        help="also run serially and fail unless the sharded result is "
             "bit-identical (sharding determinism check)")
    ablation.add_argument(
        "--adaptive", action="store_true",
        help="compare several arms with CI-based early stopping instead "
             "of running one arm exhaustively (deterministic decisions; "
             "pick a --shard-size smaller than --machines so arms have "
             "several shards to stop between)")
    ablation.add_argument(
        "--arms", type=str, default="off,control", metavar="MODES",
        help="with --adaptive: comma-separated arms to compare "
             "(default: off,control)")
    ablation.add_argument(
        "--margin", type=float, default=None, metavar="X",
        help="with --adaptive: CI separation margin on the per-shard "
             "throughput change (default 0.02)")
    ablation.add_argument(
        "--quantum", type=int, default=None, metavar="N",
        help="with --adaptive: shards per arm per round (default 1)")
    ablation.add_argument(
        "--min-rounds", type=int, default=None, metavar="N",
        help="with --adaptive: rounds before any arm may stop "
             "(default 2)")
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
    sweep.add_argument("--crash-rate", type=float, default=0.0,
                       help="chaos: fraction of arms marked down for the "
                            "whole replay (deterministic per-arm draw)")
    sweep.add_argument("--shard-size", type=int, default=None,
                       help="max machines per shard (default 32)")
    sweep.add_argument(
        "--trace", choices=("fleetbench", "scenario"),
        default="fleetbench",
        help="shared trace every arm replays: the fleetbench-style mix "
             "(default) or the scenario subsystem's two-tenant "
             "noisy-neighbor interleave")
    sweep.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="arms per lockstep batch (default: $REPRO_BATCH or 32; "
             "0 runs every arm on the scalar engine); results are "
             "identical at any value")
    sweep.add_argument(
        "--compare-serial", action="store_true",
        help="also run serially with batching off and fail unless the "
             "result is bit-identical (engine + sharding determinism "
             "check)")
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
    rollout.add_argument("--shard-size", type=int, default=None,
                         help="max machines per shard (default 32)")
    rollout.add_argument(
        "--compare-serial", action="store_true",
        help="also run serially and fail unless the sharded result is "
             "bit-identical (determinism check)")
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
        "--prune", nargs="?", type=int, const=-1, default=None,
        metavar="N",
        help="evict the oldest entries beyond N (bare --prune uses the "
             "library's default cap)")
    cache.set_defaults(run=commands.run_cache)

    chaos = subparsers.add_parser(
        "chaos", help="fault-injection study: the control loop under "
                      "telemetry, MSR, and machine faults")
    chaos.add_argument("--mode", choices=("hard", "hard+soft"),
                       default="hard",
                       help="experiment-arm deployment (must run daemons)")
    chaos.add_argument("--machines", type=int, default=12)
    chaos.add_argument("--epochs", type=int, default=60)
    chaos.add_argument("--warmup", type=int, default=15)
    chaos.add_argument("--seed", type=int, default=11)
    chaos.add_argument("--shard-size", type=int, default=None,
                       help="max machines per shard (default 32)")
    chaos.add_argument(
        "--compare-serial", action="store_true",
        help="also run serially and fail unless the sharded result is "
             "bit-identical (determinism check)")
    _add_execution_flags(chaos)
    _add_fault_plan_flag(chaos)
    _add_obs_flag(chaos)
    chaos.set_defaults(run=commands.run_chaos)

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

    policy = subparsers.add_parser(
        "policy", help="pluggable controller policies: offline training "
                       "and head-to-head comparison")
    policy_sub = policy.add_subparsers(dest="policy_command", required=True)

    train = policy_sub.add_parser(
        "train", help="fit the per-prefetcher decision-tree policy from "
                      "cached ablation sweeps (deterministic: same "
                      "inputs, same digest)")
    train.add_argument("--machines", type=int, default=24,
                       help="fleet size of the labelling ablation study")
    train.add_argument("--epochs", type=int, default=40)
    train.add_argument("--warmup", type=int, default=10)
    train.add_argument("--seed", type=int, default=11)
    train.add_argument("--probe-machines", type=int, default=8,
                       help="arms per per-prefetcher accuracy/coverage "
                            "probe sweep")
    train.add_argument("--probe-scale", type=float, default=0.5,
                       help="trace scale for the probe sweeps")
    train.add_argument("--kappa", type=float, default=0.05,
                       help="in-band labelling slack: keep a prefetcher "
                            "enabled when throughput cost <= kappa * "
                            "accuracy * coverage")
    train.add_argument("--max-depth", type=int, default=4)
    train.add_argument("--min-samples-leaf", type=int, default=8)
    train.add_argument("--out", type=str, default="", metavar="FILE",
                       help="write the trained policy as canonical JSON")
    _add_execution_flags(train)
    _add_checkpoint_flags(train)
    train.set_defaults(run=commands.run_policy_train)

    compare = policy_sub.add_parser(
        "compare", help="run N policies over the same fleet, trace, and "
                        "fault plan; report duty-cycle error, throughput, "
                        "and robustness")
    compare.add_argument(
        "--policies", type=str,
        default="hysteresis,single-threshold,decision-tree,bandit",
        metavar="NAMES",
        help="comma-separated policies to compare (hysteresis, "
             "single-threshold, decision-tree, bandit)")
    compare.add_argument(
        "--policy-file", type=str, default="", metavar="FILE",
        help="load the decision-tree entry from this trained-policy "
             "JSON instead of training inline")
    compare.add_argument("--machines", type=int, default=12)
    compare.add_argument("--epochs", type=int, default=40)
    compare.add_argument("--warmup", type=int, default=10)
    compare.add_argument("--seed", type=int, default=11)
    compare.add_argument("--shard-size", type=int, default=None,
                         help="max machines per shard (default 32)")
    compare.add_argument("--threshold", type=float, default=0.8,
                         help="the single-threshold policy's cutoff")
    compare.add_argument("--bandit-seed", type=int, default=3,
                         help="the bandit policy's exploration seed")
    compare.add_argument("--epsilon", type=float, default=0.1,
                         help="the bandit policy's exploration rate")
    compare.add_argument("--train-machines", type=int, default=24,
                         help="fleet size for inline decision-tree "
                              "training (no --policy-file)")
    compare.add_argument("--probe-machines", type=int, default=8)
    compare.add_argument("--probe-scale", type=float, default=0.5)
    compare.add_argument("--out", type=str, default="", metavar="FILE",
                         help="also write the report as canonical JSON")
    compare.add_argument(
        "--compare-serial", action="store_true",
        help="also run serially and fail unless the report digest is "
             "bit-identical (determinism check)")
    _add_execution_flags(compare)
    _add_checkpoint_flags(compare)
    _add_fault_plan_flag(compare)
    _add_obs_flag(compare)
    compare.set_defaults(run=commands.run_policy_compare)

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
    callgraph.add_argument("--crash-rate", type=float, default=0.0,
                           help="chaos: fraction of replicas marked down "
                                "for the whole replay")
    callgraph.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="arms per lockstep batch (default: $REPRO_BATCH or 32; "
             "0 forces the scalar engine); results are identical at "
             "any value")
    callgraph.add_argument(
        "--compare-serial", action="store_true",
        help="also run serially with batching off and fail unless the "
             "result is bit-identical (engine + sharding determinism "
             "check)")
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
                       choices=("enabled", "disabled", "hard", "policy"),
                       default="hard",
                       help="fixed prefetcher state, the stock "
                            "hysteresis controller, or a pluggable "
                            "policy (--policy / --policy-file)")
    noisy.add_argument(
        "--policy", type=str, default="", metavar="NAME",
        choices=("", "hysteresis", "single-threshold", "bandit"),
        help="with --mode policy: build this policy with the scenario's "
             "thresholds (hysteresis, single-threshold, bandit)")
    noisy.add_argument(
        "--policy-file", type=str, default="", metavar="FILE",
        help="with --mode policy: load a trained policy JSON (e.g. from "
             "'repro policy train --out')")
    noisy.add_argument("--upper", type=float, default=0.8,
                       help="controller upper threshold, fraction of "
                            "DRAM saturation")
    noisy.add_argument("--lower", type=float, default=0.6,
                       help="controller lower threshold")
    noisy.add_argument("--sustain-ns", type=float, default=30_000.0,
                       help="controller sustain duration, ns (trace "
                            "scale — the paper's seconds-scale sustain "
                            "never expires inside a microsecond replay)")
    noisy.add_argument("--crash-rate", type=float, default=0.0,
                       help="chaos: fraction of machines marked down")
    noisy.add_argument("--shard-size", type=int, default=None,
                       help="max machines per shard (default 32); never "
                            "affects results")
    noisy.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="machines per lockstep batch within each epoch (default: "
             "$REPRO_BATCH or 32; 0 forces the scalar engine); results "
             "are identical at any value")
    noisy.add_argument(
        "--baseline", action="store_true",
        help="also run the paired always-enabled twin over identical "
             "traffic and report per-tenant relative changes")
    noisy.add_argument(
        "--compare-serial", action="store_true",
        help="also run serially with batching off and fail unless the "
             "result is bit-identical (engine + sharding determinism "
             "check)")
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
