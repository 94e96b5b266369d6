"""Implementations of the CLI subcommands (print-oriented wrappers)."""

from __future__ import annotations

from repro.errors import ReproError
from repro.telemetry import format_relative_change as _pct
from repro.units import KB, SECOND


def _table(header, rows) -> None:
    widths = [max(len(str(cell)) for cell in column)
              for column in zip(header, *rows)]
    def fmt(row):
        """Render one table row with column alignment."""
        return "  ".join(str(cell).rjust(width)
                         for cell, width in zip(row, widths))
    print(fmt(header))
    print(fmt(["-" * width for width in widths]))
    for row in rows:
        print(fmt(row))


def _parse_profile(text: str):
    points = []
    for chunk in text.split(","):
        time_s, _, bandwidth = chunk.partition(":")
        points.append((float(time_s) * SECOND, float(bandwidth)))
    if not points:
        raise ReproError("empty bandwidth profile")
    return points


def _resolve_checkpoint(args) -> tuple:
    """``(checkpoint_dir_arg, resolved_dir)`` for a study subcommand.

    Enforces the ``--resume`` contract: resuming demands a configured
    checkpoint directory, because silently running from scratch is
    exactly the failure mode the flag exists to catch.
    """
    from repro.fleet.queue import CHECKPOINT_ENV_VAR, resolve_checkpoint_dir

    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    resolved = resolve_checkpoint_dir(checkpoint_dir)
    if getattr(args, "resume", False) and resolved is None:
        raise ReproError(
            "--resume needs a checkpoint directory: pass "
            f"--checkpoint-dir or set ${CHECKPOINT_ENV_VAR}")
    return checkpoint_dir, resolved


def _print_queue_stats(stats, resolved_dir) -> None:
    """One-line work-queue disposition after a checkpointed study."""
    if stats is None or resolved_dir is None:
        return
    print(f"\nqueue: {stats.restored}/{stats.total} shards restored, "
          f"{stats.computed} computed (journal: {resolved_dir})")


def _print_engine_occupancy(result) -> None:
    """One-line batched-engine disposition after a trace-driven study.

    Silent on results restored from a cache or checkpoint payload (no
    engine ran, so there is nothing to report).
    """
    occupancy = getattr(result, "occupancy", None)
    if occupancy is None:
        return
    stats = occupancy.to_dict()
    total = stats["batched_arms"] + stats["scalar_arms"]
    if total == 0:
        return
    line = (f"engine: {stats['batched_arms']}/{total} arm-runs batched "
            f"({stats['groups']} lockstep groups)")
    if stats["scalar_arms"]:
        reasons = ", ".join(f"{reason}={count}" for reason, count
                            in stats["fallback_reasons"].items())
        line += f"; {stats['scalar_arms']} scalar: {reasons}"
    print(line)


def _resolve_fault_plan(args):
    """The study's fault plan: ``--fault-plan``, else $REPRO_FAULT_PLAN,
    else None (fault-free)."""
    import os

    from repro.faults import FAULT_PLAN_ENV_VAR, FaultPlan

    spec = getattr(args, "fault_plan", None)
    if spec is None:
        spec = os.environ.get(FAULT_PLAN_ENV_VAR) or None
    if spec is None:
        return None
    return FaultPlan.parse(spec)


def _print_chaos_summary(chaos) -> None:
    """The chaos-metrics block shared by every faulted study printout."""
    mttr = chaos.mean_time_to_recovery_ns()
    detect = chaos.mean_detection_latency_ns()
    _table(("chaos metric", "value"), [
        ("controller availability", f"{chaos.availability():.2%}"),
        ("duty cycle disabled", f"{chaos.duty_cycle_disabled():.2%}"),
        ("incidents", str(chaos.incidents)),
        ("  recovered", str(chaos.recovered_incidents)),
        ("mean detection latency",
         "n/a" if detect is None else f"{detect / SECOND:.1f} s"),
        ("mean time to recovery",
         "n/a" if mttr is None else f"{mttr / SECOND:.1f} s"),
        ("fail-safe engagements", str(chaos.failsafe_engagements)),
        ("machine crashes", str(chaos.machine_crashes)),
        ("machine restarts", str(chaos.machine_restarts)),
    ])
    if chaos.incident_kinds:
        print("\nincidents by kind:")
        _table(("kind", "count"),
               sorted(chaos.incident_kinds.items()))


def run_daemon(args) -> int:
    """``repro daemon``: control loop on a scripted profile."""
    from repro.core import (LimoncelloConfig, LimoncelloDaemon,
                            MSRPrefetcherActuator)
    from repro.msr import INTEL_LIKE_MAP, MSRFile
    from repro.telemetry import PerfBandwidthSampler, ScriptedBandwidthSource

    source = ScriptedBandwidthSource(_parse_profile(args.profile),
                                     saturation_bandwidth=100.0)
    msrs = MSRFile()
    config = LimoncelloConfig.from_percent(
        args.lower, args.upper,
        sustain_duration_ns=args.sustain * SECOND)
    daemon = LimoncelloDaemon(
        PerfBandwidthSampler(source),
        MSRPrefetcherActuator(msrs, INTEL_LIKE_MAP), config)

    rows = []
    for tick in range(int(args.duration)):
        state = daemon.step(tick * SECOND)
        rows.append((tick,
                     f"{source.memory_bandwidth(tick * SECOND):.0f}",
                     state.value if state else "(sample dropped)",
                     "on" if daemon.actuator.is_enabled() else "OFF"))
    _table(("t(s)", "GB/s", "state", "prefetchers"), rows)
    report = daemon.report
    print(f"\ntransitions={report.transitions}  "
          f"time disabled={report.duty_cycle_disabled():.0%}")
    return 0


def run_latency_curve(args) -> int:
    """``repro latency-curve``: the Figure 1 measurement."""
    from repro.analysis import measure_latency_curve

    points = [i / (args.points - 1) for i in range(args.points)]
    on = measure_latency_curve(True, points, probe_hops=args.hops)
    off = measure_latency_curve(False, points, probe_hops=args.hops)
    rows = [(f"{p_on.utilization:.2f}", f"{p_on.latency_ns:.1f}",
             f"{p_off.latency_ns:.1f}")
            for p_on, p_off in zip(on.points, off.points)]
    _table(("util", "HW on (ns)", "HW off (ns)"), rows)
    if getattr(args, "chart", False):
        from repro.telemetry.ascii_chart import line_chart
        print()
        print(line_chart(
            {"HW on": [(p.utilization, p.latency_ns) for p in on.points],
             "HW off": [(p.utilization, p.latency_ns) for p in off.points]},
            x_label="bandwidth utilization", y_label="load-to-use ns"))
    print(f"\nreduction at 90% utilization: "
          f"{off.reduction_versus(on, 0.9):+.1%}")
    return 0


def _run_adaptive_ablation(args, shard_size, fault_plan,
                           resolved_ckpt) -> int:
    """``repro ablation --adaptive``: multi-arm CI early stopping."""
    from repro.fleet import AdaptiveAblation

    modes = tuple(m.strip() for m in args.arms.split(",") if m.strip())
    kwargs = dict(shard_size=shard_size)
    if args.margin is not None:
        kwargs["margin"] = args.margin
    if args.quantum is not None:
        kwargs["quantum"] = args.quantum
    if args.min_rounds is not None:
        kwargs["min_rounds"] = args.min_rounds
    study = AdaptiveAblation(
        modes=modes, machines=args.machines, epochs=args.epochs,
        warmup_epochs=args.warmup, seed=args.seed, fault_plan=fault_plan,
        **kwargs)
    result = study.run(workers=args.workers,
                       checkpoint_dir=getattr(args, "checkpoint_dir", None),
                       obs_dir=getattr(args, "obs_dir", None))
    print("adaptive ablation over arms: " + ", ".join(result.modes))
    rows = []
    for mode in result.modes:
        verdict = result.verdicts()[mode]
        halfwidth = verdict["halfwidth"]
        rows.append((
            mode, f"{verdict['mean']:+.3%}",
            "inf" if halfwidth is None else f"±{halfwidth:.3%}",
            f"{verdict['shards_run']}/{verdict['shards_total']}",
            verdict["machine_runs"],
            "-" if verdict["stopped_round"] is None
            else verdict["stopped_round"]))
    _table(("arm", "Δthroughput", "CI95", "shards", "machine-runs",
            "stopped@round"), rows)
    print(f"\nranking: {' > '.join(result.ranking())}")
    print(f"machine-runs: {result.machine_runs()} adaptive vs "
          f"{result.exhaustive_machine_runs()} exhaustive "
          f"({result.savings():.1f}x savings)")
    if resolved_ckpt is not None:
        print(f"journal: {resolved_ckpt}")
    return 0


def run_ablation(args) -> int:
    """``repro ablation``: a paired fleet ablation study."""
    from repro.fleet import DEFAULT_SHARD_SIZE, AblationStudy

    shard_size = getattr(args, "shard_size", None)
    if shard_size is None:
        shard_size = DEFAULT_SHARD_SIZE
    fault_plan = _resolve_fault_plan(args)
    checkpoint_dir, resolved_ckpt = _resolve_checkpoint(args)
    if getattr(args, "adaptive", False):
        return _run_adaptive_ablation(args, shard_size, fault_plan,
                                      resolved_ckpt)
    study = AblationStudy(mode=args.mode, machines=args.machines,
                          epochs=args.epochs, warmup_epochs=args.warmup,
                          seed=args.seed, shard_size=shard_size,
                          fault_plan=fault_plan)
    result = study.run(workers=args.workers,
                       cache_dir=args.cache_dir,
                       obs_dir=getattr(args, "obs_dir", None),
                       checkpoint_dir=checkpoint_dir)
    bandwidth = result.bandwidth_reduction()
    latency = result.latency_reduction()
    print(f"experiment arm: {args.mode}")
    _table(("metric", "change"), [
        ("socket bandwidth (mean)", _pct(bandwidth['mean'])),
        ("socket bandwidth (P99)", _pct(bandwidth['p99'])),
        ("memory latency (P50)", _pct(latency['p50'])),
        ("memory latency (P99)", _pct(latency['p99'])),
        ("fleet throughput", f"{result.throughput_change():+.2%}"),
    ])
    print("\nper-function cycle deltas (top regressions first):")
    deltas = result.function_cycle_deltas()
    rows = [(name, f"{delta:+.1%}")
            for name, delta in sorted(deltas.items(), key=lambda kv: -kv[1])]
    _table(("function", "Δcycles"), rows)
    if result.chaos is not None:
        print(f"\nfault plan: {fault_plan.spec()}")
        _print_chaos_summary(result.chaos)
    _print_queue_stats(study.queue_stats, resolved_ckpt)
    if getattr(args, "compare_serial", False):
        from repro.analysis import result_digest

        serial = AblationStudy(
            mode=args.mode, machines=args.machines, epochs=args.epochs,
            warmup_epochs=args.warmup, seed=args.seed,
            shard_size=shard_size, fault_plan=fault_plan).run(
                workers=1, cache_dir="", checkpoint_dir="", obs_dir="")
        # "" disables both stores: the serial leg must recompute, not
        # replay the sharded entry or the shard journal. Nor may it
        # overwrite the user's run directory.
        sharded_digest = result_digest(result)
        serial_digest = result_digest(serial)
        match = sharded_digest == serial_digest
        print(f"\nserial-equivalence check: "
              f"{'OK' if match else 'MISMATCH'} "
              f"(digest {sharded_digest[:16]}…)")
        if not match:
            raise ReproError(
                f"sharded result diverged from serial run: "
                f"{sharded_digest} != {serial_digest}")
    return 0


def run_sweep(args) -> int:
    """``repro sweep``: the trace-driven micro-fleet sweep."""
    from repro.fleet import DEFAULT_SHARD_SIZE, MicroFleetSweep, sweep_digest

    shard_size = getattr(args, "shard_size", None)
    if shard_size is None:
        shard_size = DEFAULT_SHARD_SIZE
    fault_plan = _resolve_fault_plan(args)
    checkpoint_dir, resolved_ckpt = _resolve_checkpoint(args)
    kwargs = dict(mode=args.mode, machines=args.machines, seed=args.seed,
                  scale=args.scale, crash_rate=args.crash_rate,
                  shard_size=shard_size, fault_plan=fault_plan,
                  workload=getattr(args, "trace", None))
    sweep = MicroFleetSweep(batch_size=args.batch_size, **kwargs)
    result = sweep.run(workers=args.workers, cache_dir=args.cache_dir,
                       checkpoint_dir=checkpoint_dir)

    live = result.machines - result.down
    print(f"sweep arm: {args.mode}  "
          f"(machines={result.machines}, down={result.down})")
    rows = [
        ("mean elapsed", f"{result.mean_elapsed_ns() / 1e6:.3f} ms"),
        ("total stall cycles", f"{result.total('stall_cycles'):.0f}"),
        ("total LLC misses", f"{int(result.total('llc_misses'))}"),
        ("total DRAM demand fills",
         f"{int(result.total('dram_demand_fills'))}"),
        ("total DRAM wait", f"{result.total('dram_wait_ns') / 1e6:.3f} ms"),
    ]
    if live:
        _table(("sweep metric", "value"), rows)
    _print_engine_occupancy(result)
    digest = sweep_digest(result)
    print(f"\nresult digest: {digest}")
    _print_queue_stats(sweep.queue_stats, resolved_ckpt)

    if args.compare_serial:
        # Batching off, one worker, cache and journal disabled: the
        # oracle leg.
        serial = MicroFleetSweep(batch_size=0, **kwargs).run(
            workers=1, cache_dir="", checkpoint_dir="")
        serial_digest = sweep_digest(serial)
        match = digest == serial_digest
        print(f"serial-equivalence check: "
              f"{'OK' if match else 'MISMATCH'} (digest {digest[:16]}…)")
        if not match:
            raise ReproError(
                f"batched result diverged from serial scalar run: "
                f"{digest} != {serial_digest}")
    return 0


def run_rollout(args) -> int:
    """``repro rollout``: the Figures 16-20 study."""
    from repro.fleet import DEFAULT_SHARD_SIZE, RolloutStudy, rollout_digest

    shard_size = getattr(args, "shard_size", None)
    if shard_size is None:
        shard_size = DEFAULT_SHARD_SIZE
    fault_plan = _resolve_fault_plan(args)
    checkpoint_dir, resolved_ckpt = _resolve_checkpoint(args)
    kwargs = dict(machines=args.machines, epochs=args.epochs,
                  warmup_epochs=args.warmup, seed=args.seed,
                  shard_size=shard_size, fault_plan=fault_plan)
    study = RolloutStudy(**kwargs)
    result = study.run(workers=args.workers,
                       obs_dir=getattr(args, "obs_dir", None),
                       cache_dir=args.cache_dir,
                       checkpoint_dir=checkpoint_dir)
    print("Figure 16 — throughput gain by CPU band")
    _table(("band", "gain"), [(band, f"{gain:+.1%}") for band, gain
                              in result.throughput_gain_by_band().items()])
    latency = result.latency_reduction()
    bandwidth = result.bandwidth_reduction()
    print("\nFigures 17/18 — latency / bandwidth")
    _table(("metric", "change"), [
        ("latency P50", _pct(latency['p50'])),
        ("latency P99", _pct(latency['p99'])),
        ("bandwidth mean", _pct(bandwidth['mean'])),
    ])
    print(f"\nFigure 19 — CPU utilization gain: "
          f"{result.cpu_utilization_gain():+.1%}")
    print("\nFigure 20 — targeted tax cycle share")
    shares = result.tax_cycle_shares()
    _table(("arm", "tax share"), [
        (arm, f"{data['all targeted DC tax']:.1%}")
        for arm, data in shares.items()])
    if result.chaos is not None:
        print(f"\nfault plan: {fault_plan.spec()}")
        _print_chaos_summary(result.chaos)
    digest = rollout_digest(result)
    print(f"\nresult digest: {digest}")
    _print_queue_stats(study.queue_stats, resolved_ckpt)
    if getattr(args, "compare_serial", False):
        # "" disables the cache, journal and run directory: the oracle
        # leg recomputes in-process and leaves the user's run alone.
        serial = RolloutStudy(**kwargs).run(
            workers=1, cache_dir="", checkpoint_dir="", obs_dir="")
        serial_digest = rollout_digest(serial)
        match = digest == serial_digest
        print(f"serial-equivalence check: "
              f"{'OK' if match else 'MISMATCH'} (digest {digest[:16]}…)")
        if not match:
            raise ReproError(
                f"sharded result diverged from serial run: "
                f"{digest} != {serial_digest}")
    return 0


def _human_bytes(count: int) -> str:
    """Bytes as a compact human-readable figure."""
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return (f"{int(value)} {unit}" if unit == "B"
                    else f"{value:.1f} {unit}")
        value /= 1024
    return f"{int(count)} B"


def run_queue(args) -> int:
    """``repro queue``: status of a checkpoint journal."""
    from repro.fleet.queue import (CHECKPOINT_ENV_VAR, ShardCheckpoint,
                                   queue_status, resolve_checkpoint_dir)

    resolved = resolve_checkpoint_dir(getattr(args, "checkpoint_dir", None))
    if resolved is None:
        raise ReproError(
            "no checkpoint directory: pass --checkpoint-dir or set "
            f"${CHECKPOINT_ENV_VAR}")
    status = queue_status(ShardCheckpoint(resolved))
    print(f"journal: {status['root']}")
    _table(("journal metric", "value"), [
        ("entries", str(status["entries"])),
        ("valid", str(status["valid"])),
        ("corrupt", str(status["corrupt"])),
        ("size", _human_bytes(status["bytes"])),
        ("shard tasks", str(status["shard_tasks"])),
        ("restores (hits)", str(status["stats"]["hits"])),
        ("journal writes", str(status["stats"]["stores"])),
    ])
    if status["studies"]:
        print("\njournaled shards by study:")
        _table(("study", "shards", "policies", "indexes"), [
            (study, str(info["shards"]),
             ",".join(info.get("policies", [])) or "-",
             ",".join(str(i) for i in info["shard_indexes"][:12])
             + ("…" if len(info["shard_indexes"]) > 12 else ""))
            for study, info in sorted(status["studies"].items())])
    return 0


def run_cache(args) -> int:
    """``repro cache``: inspect or prune a result cache."""
    import os

    from repro.fleet.result_cache import (CACHE_ENV_VAR,
                                          StudyResultCache)

    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV_VAR, "").strip() or None
    if not cache_dir:
        raise ReproError(
            f"no cache directory: pass --cache-dir or set ${CACHE_ENV_VAR}")
    cache = StudyResultCache(cache_dir)
    scan = cache.scan()
    stats = cache.stats()
    total = stats["hits"] + stats["misses"]
    hit_rate = f"{stats['hits'] / total:.1%}" if total else "n/a"
    print(f"cache: {cache.root}")
    _table(("cache metric", "value"), [
        ("entries", str(scan["entries"])),
        ("valid", str(scan["valid"])),
        ("corrupt", str(scan["corrupt"])),
        ("size", _human_bytes(scan["bytes"])),
        ("hits", str(stats["hits"])),
        ("misses", str(stats["misses"])),
        ("stores", str(stats["stores"])),
        ("hit rate", hit_rate),
    ])
    prune = getattr(args, "prune", None)
    if prune is not None:
        removed = cache.prune() if prune < 0 else cache.prune(prune)
        print(f"\npruned {removed} "
              f"entr{'y' if removed == 1 else 'ies'} "
              f"({cache.scan()['entries']} remain)")
    return 0


def run_chaos(args) -> int:
    """``repro chaos``: the control loop under an injected fault plan."""
    from repro.analysis import ChaosStudy, result_digest

    fault_plan = _resolve_fault_plan(args)
    if fault_plan is None:
        raise ReproError(
            "chaos needs a fault plan: pass --fault-plan or set "
            "$REPRO_FAULT_PLAN")
    shard_size = getattr(args, "shard_size", None)
    kwargs = dict(machines=args.machines, epochs=args.epochs,
                  seed=args.seed, warmup_epochs=args.warmup,
                  mode=args.mode, shard_size=shard_size)
    outcome = ChaosStudy(fault_plan, **kwargs).run(
        workers=args.workers, cache_dir=args.cache_dir,
        obs_dir=getattr(args, "obs_dir", None))

    print(f"fault plan: {fault_plan.spec()}")
    print(f"experiment arm: {args.mode}\n")
    _print_chaos_summary(outcome.chaos)
    print()
    _table(("study metric", "value"), [
        ("duty-cycle error vs fault-free",
         f"{outcome.duty_cycle_error():.2%}"),
        ("throughput change vs control",
         f"{outcome.throughput_change():+.2%}"),
    ])

    if args.compare_serial:
        serial = ChaosStudy(fault_plan, **kwargs).run(workers=1, obs_dir="")
        sharded_digest = result_digest(outcome.faulted)
        serial_digest = result_digest(serial.faulted)
        match = sharded_digest == serial_digest
        print(f"\nserial-equivalence check: "
              f"{'OK' if match else 'MISMATCH'} "
              f"(digest {sharded_digest[:16]}…)")
        if not match:
            raise ReproError(
                f"sharded result diverged from serial run: "
                f"{sharded_digest} != {serial_digest}")
    return 0


def run_thresholds(args) -> int:
    """``repro thresholds``: the Figure 10 sweep."""
    from repro.analysis import ThresholdStudy

    outcomes = ThresholdStudy(machines=args.machines, epochs=args.epochs,
                              warmup_epochs=args.warmup, seed=args.seed,
                              soft=not args.hard_only,
                              ).run(workers=args.workers,
                                    cache_dir=args.cache_dir)
    _table(("config", "Δthroughput", "Δlatency p50", "Δbandwidth"), [
        (o.label, f"{o.throughput_change:+.2%}",
         _pct(o.latency_change_p50, precision=2),
         _pct(o.bandwidth_change_mean, precision=2))
        for o in outcomes])
    best = ThresholdStudy.best(outcomes)
    print(f"\nbest configuration: {best.label} (paper deployed 60/80)")
    return 0


def run_microbench(args) -> int:
    """``repro microbench``: the Figure 15 memcpy sweep."""
    from repro.core import PrefetchDescriptor
    from repro.microbench import MemcpyMicrobenchmark

    distances = [int(x) for x in args.distances.split(",")]
    degrees = [int(x) for x in args.degrees.split(",")]
    bench = MemcpyMicrobenchmark(
        sizes=(1 * KB, 4 * KB, 16 * KB, 64 * KB, 256 * KB),
        bytes_per_point=128 * KB,
        background_utilization=args.background)
    rows = []
    for distance in distances:
        for degree in degrees:
            descriptor = PrefetchDescriptor(
                "memcpy", distance_bytes=distance, degree_bytes=degree,
                min_size_bytes=2 * KB)
            rows.append((distance, degree,
                         f"{bench.mean_speedup(descriptor):+.1%}"))
    rows.sort(key=lambda row: row[2], reverse=True)
    _table(("distance", "degree", "mean speedup"), rows)
    return 0


def _run_obs_report(args, run_dir: str) -> int:
    """``repro report <run-dir>``: render an observability run directory."""
    from repro.obs import build_report, render_report

    if getattr(args, "json", False):
        import json

        print(json.dumps(build_report(run_dir), indent=2, sort_keys=True))
    else:
        print(render_report(run_dir))
    return 0


def run_report(args) -> int:
    """``repro report``: one-shot markdown report of the headline results."""
    run_dir = getattr(args, "run_dir", None)
    if run_dir:
        return _run_obs_report(args, run_dir)

    from repro.analysis import ThresholdStudy, measure_latency_curve
    from repro.fleet import AblationStudy, RolloutStudy

    if args.quick:
        machines, epochs, warmup, hops = 8, 30, 10, 120
    else:
        machines, epochs, warmup, hops = 20, 70, 25, 300
    workers = getattr(args, "workers", None)
    cache_dir = getattr(args, "cache_dir", None)

    sections = ["# Limoncello reproduction report", ""]

    utilizations = [x / 10 for x in range(11)]
    on = measure_latency_curve(True, utilizations, probe_hops=hops)
    off = measure_latency_curve(False, utilizations, probe_hops=hops)
    sections += [
        "## Loaded latency (Figure 1)", "",
        f"- unloaded: {on.latency_at(0.0):.0f} ns; "
        f"full load: {on.latency_at(1.0):.0f} ns (prefetchers on)",
        f"- disabling prefetchers at 90% utilization: "
        f"{off.reduction_versus(on, 0.9):+.1%} load-to-use "
        f"(paper: about -15%)", "",
    ]

    ablation = AblationStudy(mode="off", machines=machines, epochs=epochs,
                             warmup_epochs=warmup, seed=11,
                             ).run(workers=workers, cache_dir=cache_dir)
    bandwidth = ablation.bandwidth_reduction()
    sections += [
        "## Prefetcher ablation (Table 1)", "",
        f"- socket bandwidth: {_pct(bandwidth['mean'])} mean, "
        f"{_pct(bandwidth['p99'])} P99 (paper: -11% to -16% mean)",
        f"- fleet throughput: {ablation.throughput_change():+.1%} "
        f"(paper: about -5%)", "",
    ]

    outcomes = ThresholdStudy(machines=machines, epochs=epochs,
                              warmup_epochs=warmup, seed=9,
                              soft=True).run(workers=workers,
                                             cache_dir=cache_dir)
    sections += ["## Threshold sweep (Figure 10)", ""]
    sections += [f"- {o.label}: {o.throughput_change:+.2%} throughput"
                 for o in outcomes]
    sections.append("")

    rollout = RolloutStudy(machines=machines, epochs=epochs,
                           warmup_epochs=warmup,
                           seed=5).run(workers=workers)
    latency = rollout.latency_reduction()
    shares = rollout.tax_cycle_shares()
    sections += [
        "## Rollout (Figures 16-20)", "",
        "- throughput gain by CPU band: " + ", ".join(
            f"{band} {gain:+.1%}"
            for band, gain in rollout.throughput_gain_by_band().items()),
        f"- memory latency: {_pct(latency['p50'])} P50, "
        f"{_pct(latency['p99'])} P99 (paper: -13% / -10%)",
        f"- socket bandwidth: "
        f"{_pct(rollout.bandwidth_reduction()['mean'])} mean "
        f"(paper: -15%)",
        f"- CPU utilization gain with scheduler integration: "
        f"{rollout.cpu_utilization_gain():+.1%}",
        "- tax cycle share: " + " -> ".join(
            f"{arm} {data['all targeted DC tax']:.1%}"
            for arm, data in shares.items()),
        "",
        "See EXPERIMENTS.md for the full paper-vs-measured table.",
    ]

    text = "\n".join(sections) + "\n"
    if args.out:
        from repro.serialization import atomic_write_text
        atomic_write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def run_calibrate(args) -> int:
    """``repro calibrate``: re-derive the response table."""
    from repro.fleet import calibrate_from_simulator

    table = calibrate_from_simulator(seed=args.seed)
    rows = [(r.name, r.category.value, f"{r.cycle_penalty_off:+.2f}",
             f"{r.soft_recovery:.2f}", f"{r.mpki_on:.1f}",
             f"{r.mpki_off:.1f}", f"{r.overfetch:+.2f}")
            for r in table]
    _table(("function", "category", "pen_off", "recovery", "mpki_on",
            "mpki_off", "overfetch"), rows)
    return 0


def _policy_specs(args):
    """Build the named policy specs a ``repro policy compare`` runs.

    The decision-tree entry comes from ``--policy-file`` when given;
    otherwise it is trained inline from the same study seed (hitting
    the result cache when the training sweeps already ran).
    """
    from repro.policy import (EpsilonGreedyBanditPolicy, HysteresisPolicy,
                              SingleThresholdPolicy, load_policy,
                              train_decision_tree_policy)

    names = [name.strip() for name in args.policies.split(",")
             if name.strip()]
    if not names:
        raise ReproError("--policies cannot be empty")
    specs = {}
    for name in names:
        if name == "hysteresis":
            specs[name] = HysteresisPolicy()
        elif name == "single-threshold":
            specs[name] = SingleThresholdPolicy(threshold=args.threshold)
        elif name == "bandit":
            specs[name] = EpsilonGreedyBanditPolicy(
                seed=args.bandit_seed, epsilon=args.epsilon)
        elif name == "decision-tree":
            if getattr(args, "policy_file", None):
                specs[name] = load_policy(args.policy_file)
            else:
                specs[name] = train_decision_tree_policy(
                    machines=args.train_machines, epochs=args.epochs,
                    warmup_epochs=args.warmup, seed=args.seed,
                    probe_machines=args.probe_machines,
                    probe_scale=args.probe_scale,
                    workers=args.workers, cache_dir=args.cache_dir,
                    checkpoint_dir=getattr(args, "checkpoint_dir", None))
        else:
            raise ReproError(
                f"unknown policy {name!r}; known: hysteresis, "
                "single-threshold, decision-tree, bandit")
    return specs


def run_policy_train(args) -> int:
    """``repro policy train``: fit the decision-tree policy offline."""
    from repro.policy import (policy_digest, save_policy,
                              train_decision_tree_policy, tree_depth,
                              tree_leaves)

    checkpoint_dir, resolved_ckpt = _resolve_checkpoint(args)
    policy = train_decision_tree_policy(
        machines=args.machines, epochs=args.epochs,
        warmup_epochs=args.warmup, seed=args.seed,
        probe_machines=args.probe_machines, probe_scale=args.probe_scale,
        kappa=args.kappa, max_depth=args.max_depth,
        min_samples_leaf=args.min_samples_leaf,
        workers=args.workers, cache_dir=args.cache_dir,
        checkpoint_dir=checkpoint_dir)
    digest = policy_digest(policy)
    rows = [(name, str(tree_depth(tree)), str(tree_leaves(tree)))
            for name, tree in sorted(policy.trees.items())]
    _table(("prefetcher", "depth", "leaves"), rows)
    print(f"\npolicy digest: {digest}")
    if args.out:
        save_policy(policy, args.out)
        print(f"wrote {args.out}")
    return 0


def run_policy_compare(args) -> int:
    """``repro policy compare``: N policies, one fleet, one report."""
    from repro.policy import PolicyComparison, comparison_digest

    fault_plan = _resolve_fault_plan(args)
    checkpoint_dir, resolved_ckpt = _resolve_checkpoint(args)
    specs = _policy_specs(args)
    comparison = PolicyComparison(
        specs, machines=args.machines, epochs=args.epochs,
        warmup_epochs=args.warmup, seed=args.seed,
        shard_size=args.shard_size, fault_plan=fault_plan)
    report = comparison.run(workers=args.workers, cache_dir=args.cache_dir,
                            obs_dir=getattr(args, "obs_dir", None),
                            checkpoint_dir=checkpoint_dir)
    digest = comparison_digest(report)

    rows = []
    for name in report["ranking"]:
        entry = report["policies"][name]
        rows.append((
            name,
            f"{entry['duty_cycle_error']:.4f}",
            f"{entry['duty_cycle_disabled']:.3f}",
            str(entry["transitions"]),
            f"{entry['throughput_gain']:+.2%}",
            _pct(entry["latency_p99_change"]),
        ))
    _table(("policy", "duty err", "off frac", "flips", "throughput",
            "p99 latency"), rows)
    if fault_plan is not None:
        print(f"\nfault plan: {fault_plan.spec()}")
        frows = []
        for name in report["ranking"]:
            faulted = report["policies"][name].get("faulted")
            if faulted is None:
                continue
            frows.append((name, f"{faulted['availability']:.4f}",
                          f"{faulted['duty_cycle_error']:.4f}",
                          f"{faulted['duty_cycle_drift']:+.4f}"))
        if frows:
            _table(("policy", "availability", "faulted duty err",
                    "drift"), frows)
    print(f"\nreport digest: {digest}")
    if args.out:
        from repro.serialization import atomic_write_text, canonical_json
        atomic_write_text(args.out, canonical_json(report) + "\n")
        print(f"wrote {args.out}")

    if getattr(args, "compare_serial", False):
        serial = PolicyComparison(
            specs, machines=args.machines, epochs=args.epochs,
            warmup_epochs=args.warmup, seed=args.seed,
            shard_size=args.shard_size, fault_plan=fault_plan).run(
                workers=1, cache_dir="", checkpoint_dir="", obs_dir="")
        # "" disables both stores: the serial leg must recompute, not
        # replay the sharded legs or the shard journal. Nor may it
        # overwrite the user's run directory.
        serial_digest = comparison_digest(serial)
        match = digest == serial_digest
        print(f"serial-equivalence check: "
              f"{'OK' if match else 'MISMATCH'} (digest {digest[:16]}…)")
        if not match:
            raise ReproError(
                f"sharded comparison diverged from serial run: "
                f"{digest} != {serial_digest}")
    return 0


def run_scenario_callgraph(args) -> int:
    """``repro scenario callgraph``: the RPC call-graph SLO study."""
    from repro.scenarios import (CallGraphScenario, DEFAULT_SERVICES,
                                 callgraph_digest)

    fault_plan = _resolve_fault_plan(args)
    checkpoint_dir, resolved_ckpt = _resolve_checkpoint(args)
    kwargs = dict(services=args.services or DEFAULT_SERVICES,
                  requests=args.requests, seed=args.seed, mode=args.mode,
                  rpc_overhead_ns=args.rpc_overhead_ns,
                  crash_rate=args.crash_rate, fault_plan=fault_plan)
    scenario = CallGraphScenario(batch_size=args.batch_size, **kwargs)
    result = scenario.run(workers=args.workers, cache_dir=args.cache_dir,
                          checkpoint_dir=checkpoint_dir,
                          obs_dir=getattr(args, "obs_dir", None))

    print(f"call graph: {len(scenario.services)} services, "
          f"{scenario.machines} replicas ({result.down} down), "
          f"{scenario.requests} requests, mode={scenario.mode}")
    rows = []
    for service in scenario.services:
        summary = result.service_summary(service.name)
        fanout = "+".join(f"{child}*{calls}"
                          for child, calls in service.calls) or "-"
        if summary is None:
            rows.append((service.name, service.kind,
                         str(service.replicas), fanout, "down", "down",
                         "down"))
        else:
            rows.append((service.name, service.kind,
                         str(service.replicas), fanout,
                         f"{summary.p50:.0f}", f"{summary.p90:.0f}",
                         f"{summary.p99:.0f}"))
    _table(("service", "kind", "replicas", "fan-out", "p50 ns", "p90 ns",
            "p99 ns"), rows)
    slo = scenario.slo_summary(result)
    print(f"\nend-to-end SLO at {scenario.root!r}: "
          f"p50={slo.p50:.0f} ns  p90={slo.p90:.0f} ns  "
          f"p99={slo.p99:.0f} ns  (peak {slo.peak:.0f} ns over "
          f"{slo.count} requests)")
    if fault_plan is not None:
        print(f"\nfault plan: {fault_plan.spec()}")
    _print_engine_occupancy(result)
    digest = callgraph_digest(result)
    print(f"\nresult digest: {digest}")
    _print_queue_stats(scenario.queue_stats, resolved_ckpt)

    if args.compare_serial:
        # Batching off, one worker, cache, journal and obs disabled:
        # the oracle leg.
        serial = CallGraphScenario(batch_size=0, **kwargs).run(
            workers=1, cache_dir="", checkpoint_dir="", obs_dir="")
        serial_digest = callgraph_digest(serial)
        match = digest == serial_digest
        print(f"serial-equivalence check: "
              f"{'OK' if match else 'MISMATCH'} (digest {digest[:16]}…)")
        if not match:
            raise ReproError(
                f"batched result diverged from serial scalar run: "
                f"{digest} != {serial_digest}")
    return 0


def _noisy_policy(args):
    """The ``repro scenario noisy`` policy from its CLI flags."""
    if args.policy_file:
        from repro.policy import load_policy
        return load_policy(args.policy_file)
    if args.policy == "hysteresis":
        from repro.core import LimoncelloConfig
        from repro.policy import HysteresisPolicy
        return HysteresisPolicy(config=LimoncelloConfig(
            lower_threshold=args.lower, upper_threshold=args.upper,
            sustain_duration_ns=args.sustain_ns,
            sample_period_ns=args.sustain_ns))
    if args.policy == "single-threshold":
        from repro.policy import SingleThresholdPolicy
        return SingleThresholdPolicy(threshold=args.upper)
    if args.policy == "bandit":
        from repro.policy import EpsilonGreedyBanditPolicy
        return EpsilonGreedyBanditPolicy(seed=args.seed)
    raise ReproError(
        "--mode policy needs --policy NAME or --policy-file FILE")


def run_scenario_noisy(args) -> int:
    """``repro scenario noisy``: the multi-tenant interference study."""
    from repro.fleet import DEFAULT_SHARD_SIZE
    from repro.scenarios import (DEFAULT_TENANTS, NoisyNeighborScenario,
                                 noisy_digest)

    shard_size = getattr(args, "shard_size", None)
    if shard_size is None:
        shard_size = DEFAULT_SHARD_SIZE
    fault_plan = _resolve_fault_plan(args)
    checkpoint_dir, resolved_ckpt = _resolve_checkpoint(args)
    policy = _noisy_policy(args) if args.mode == "policy" else None
    if policy is None and (args.policy or args.policy_file):
        raise ReproError("--policy/--policy-file need --mode policy")
    kwargs = dict(tenants=args.tenants or DEFAULT_TENANTS,
                  machines=args.machines, epochs=args.epochs,
                  seed=args.seed, mode=args.mode, policy=policy,
                  upper=args.upper, lower=args.lower,
                  sustain_ns=args.sustain_ns, crash_rate=args.crash_rate,
                  shard_size=shard_size, fault_plan=fault_plan)
    scenario = NoisyNeighborScenario(batch_size=args.batch_size, **kwargs)
    result = scenario.run(workers=args.workers, cache_dir=args.cache_dir,
                          checkpoint_dir=checkpoint_dir,
                          obs_dir=getattr(args, "obs_dir", None))

    print(f"noisy neighbors: {len(scenario.tenants)} tenants on "
          f"{result.machines} machines ({result.down} down), "
          f"{scenario.epochs} epochs, mode={scenario.mode}")
    shares = result.bandwidth_shares()
    rows = []
    for tenant in scenario.tenants:
        summary = result.tenant_summary(tenant.name)
        throttle = (f"{tenant.throttle:.2f}"
                    if tenant.throttle != 1.0 else "-")
        if summary is None:
            rows.append((tenant.name, tenant.kind, throttle,
                         f"{shares[tenant.name]:.1%}", "down", "down",
                         "down"))
        else:
            rows.append((tenant.name, tenant.kind, throttle,
                         f"{shares[tenant.name]:.1%}",
                         f"{summary.p50:.2f}", f"{summary.p90:.2f}",
                         f"{summary.p99:.2f}"))
    _table(("tenant", "kind", "throttle", "bw share", "p50 ns/acc",
            "p90 ns/acc", "p99 ns/acc"), rows)
    print(f"\nprefetchers-disabled duty cycle: "
          f"{result.duty_cycle_disabled():.2%}  "
          f"(controller flips: {result.transitions()})")
    if fault_plan is not None:
        print(f"\nfault plan: {fault_plan.spec()}")
    _print_engine_occupancy(result)
    digest = noisy_digest(result)
    print(f"\nresult digest: {digest}")
    _print_queue_stats(scenario.queue_stats, resolved_ckpt)

    if args.baseline:
        baseline = scenario.baseline_twin().run(
            workers=args.workers, cache_dir=args.cache_dir, obs_dir="")
        comparison = scenario.compare_to_baseline(result, baseline)
        print("\nversus always-enabled twin (negative = faster):")
        _table(("tenant", "p50", "p90", "p99", "mean"), [
            (name, _pct(change["p50"]), _pct(change["p90"]),
             _pct(change["p99"]), _pct(change["mean"]))
            for name, change in comparison.items()])

    if args.compare_serial:
        # Batching off, one worker, cache, journal and obs disabled:
        # the oracle leg.
        serial = NoisyNeighborScenario(batch_size=0, **kwargs).run(
            workers=1, cache_dir="", checkpoint_dir="", obs_dir="")
        serial_digest = noisy_digest(serial)
        match = digest == serial_digest
        print(f"serial-equivalence check: "
              f"{'OK' if match else 'MISMATCH'} (digest {digest[:16]}…)")
        if not match:
            raise ReproError(
                f"batched result diverged from serial scalar run: "
                f"{digest} != {serial_digest}")
    return 0
