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


#: How every ``--compare-serial`` oracle runs: one worker and no result
#: cache, shard journal or run directory, so the oracle recomputes the
#: study instead of replaying the requested run or overwriting its
#: manifest. :func:`_run_study_command` runs it under
#: :func:`~repro.engine.reference_engine` (the interpreter, every fleet
#: arm driving itself).
SERIAL_ORACLE = dict(workers=1, cache_dir="", checkpoint_dir="", obs_dir="")


def _run_study_command(args, build, digest, report, after=None) -> int:
    """The frame every study command runs in.

    Resolves ``--fault-plan`` and the checkpoint directory (``--resume``
    demands one, because silently running from scratch is exactly the
    failure mode the flag exists to catch), runs ``build(fault_plan)``,
    prints ``report(study, result)``, then the footer: the
    batched-engine disposition (silent when no engine ran, including
    results restored from a cache or checkpoint payload), ``result
    digest:`` and the work-queue disposition. ``after(study, result)``
    runs next; last, ``--compare-serial`` checks the digest against the
    serial oracle and raises :class:`ReproError` on a mismatch.
    """
    from repro.fleet.queue import CHECKPOINT_ENV_VAR, resolve_checkpoint_dir

    fault_plan = _resolve_fault_plan(args)
    resolved_ckpt = resolve_checkpoint_dir(args.checkpoint_dir)
    if args.resume and resolved_ckpt is None:
        raise ReproError(
            "--resume needs a checkpoint directory: pass "
            f"--checkpoint-dir or set ${CHECKPOINT_ENV_VAR}")
    study = build(fault_plan)
    result = study.run(workers=args.workers, cache_dir=args.cache_dir,
                       checkpoint_dir=args.checkpoint_dir,
                       obs_dir=args.obs_dir)
    report(study, result)
    value = digest(result)
    occupancy = result.occupancy
    line = occupancy and occupancy.summary(occupancy.to_dict())
    if line:
        print(line)
    print(f"\nresult digest: {value}")
    stats = study.queue_stats
    if stats is not None and resolved_ckpt is not None:
        print(f"\nqueue: {stats.restored}/{stats.total} shards restored, "
              f"{stats.computed} computed (journal: {resolved_ckpt})")
    if after is not None:
        after(study, result)
    if args.compare_serial:
        from repro.engine import reference_engine

        with reference_engine():
            serial = digest(build(fault_plan).run(**SERIAL_ORACLE))
        match = value == serial
        print(f"\nserial-equivalence check: "
              f"{'OK' if match else 'MISMATCH'} (digest {value[:16]}…)")
        if not match:
            raise ReproError(
                f"result diverged from the serial oracle: "
                f"{value} != {serial}")
    return 0


def _resolve_fault_plan(args):
    """The study's ``--fault-plan``, or None (fault-free)."""
    from repro.faults import FaultPlan

    spec = args.fault_plan
    return None if spec is None else FaultPlan.parse(spec)


def _print_chaos_summary(chaos) -> None:
    """The chaos-metrics block shared by every faulted study printout.

    Availability reads ``n/a`` when no control tick was scheduled (an
    arm without daemons, crash faults only): there was no controller to
    be available.
    """
    mttr = chaos.mean_time_to_recovery_ns()
    detect = chaos.mean_detection_latency_ns()
    _table(("chaos metric", "value"), [
        ("controller availability",
         f"{chaos.availability():.2%}" if chaos.scheduled_ticks else "n/a"),
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
    if args.chart:
        from repro.telemetry.ascii_chart import line_chart
        print()
        print(line_chart(
            {"HW on": [(p.utilization, p.latency_ns) for p in on.points],
             "HW off": [(p.utilization, p.latency_ns) for p in off.points]},
            x_label="bandwidth utilization", y_label="load-to-use ns"))
    print(f"\nreduction at 90% utilization: "
          f"{off.reduction_versus(on, 0.9):+.1%}")
    return 0


def run_ablation(args) -> int:
    """``repro ablation``: a paired fleet ablation study."""
    from repro.analysis import result_digest
    from repro.fleet import AblationStudy

    def build(fault_plan):
        return AblationStudy(
            mode=args.mode, machines=args.machines, epochs=args.epochs,
            warmup_epochs=args.warmup, seed=args.seed,
            shard_size=args.shard_size, fault_plan=fault_plan)

    def report(study, result) -> None:
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
        rows = [(name, f"{delta:+.1%}") for name, delta
                in sorted(deltas.items(), key=lambda kv: -kv[1])]
        _table(("function", "Δcycles"), rows)
        if result.chaos is not None:
            print(f"\nfault plan: {study.fault_plan.spec()}")
            _print_chaos_summary(result.chaos)

    return _run_study_command(args, build, result_digest, report)


def run_sweep(args) -> int:
    """``repro sweep``: the trace-driven micro-fleet sweep."""
    from repro.fleet import MicroFleetSweep, sweep_digest

    def build(fault_plan):
        return MicroFleetSweep(
            mode=args.mode, machines=args.machines, seed=args.seed,
            scale=args.scale, shard_size=args.shard_size,
            fault_plan=fault_plan)

    def report(sweep, result) -> None:
        print(f"sweep arm: {args.mode}  "
              f"(machines={result.machines}, down={result.down})")
        if result.machines > result.down:
            _table(("sweep metric", "value"), [
                ("mean elapsed", f"{result.mean_elapsed_ns() / 1e6:.3f} ms"),
                ("total stall cycles", f"{result.total('stall_cycles'):.0f}"),
                ("total LLC misses", f"{int(result.total('llc_misses'))}"),
                ("total DRAM demand fills",
                 f"{int(result.total('dram_demand_fills'))}"),
                ("total DRAM wait",
                 f"{result.total('dram_wait_ns') / 1e6:.3f} ms"),
            ])

    return _run_study_command(args, build, sweep_digest, report)


def run_rollout(args) -> int:
    """``repro rollout``: the Figures 16-20 study."""
    from repro.fleet import RolloutStudy, rollout_digest

    def build(fault_plan):
        return RolloutStudy(
            machines=args.machines, epochs=args.epochs,
            warmup_epochs=args.warmup, seed=args.seed,
            shard_size=args.shard_size, fault_plan=fault_plan)

    def report(study, result) -> None:
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
            print(f"\nfault plan: {study.fault_plan.spec()}")
            _print_chaos_summary(result.chaos)

    return _run_study_command(args, build, rollout_digest, report)


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

    resolved = resolve_checkpoint_dir(args.checkpoint_dir)
    if resolved is None:
        raise ReproError(
            "no checkpoint directory: pass --checkpoint-dir or set "
            f"${CHECKPOINT_ENV_VAR}")
    status = queue_status(ShardCheckpoint(resolved))
    print(f"journal: {status['root']}")
    _table(("journal metric", "value"), [
        ("entries", str(status["entries"])),
        ("valid", str(status["valid"])),
        ("stale", str(status["stale"])),
        ("corrupt", str(status["corrupt"])),
        ("size", _human_bytes(status["bytes"])),
        ("shard tasks", str(status["shard_tasks"])),
        ("restores (hits)", str(status["stats"]["hits"])),
        ("journal writes", str(status["stats"]["stores"])),
    ])
    if status["studies"]:
        print("\njournaled shards by study:")
        _table(("study", "shards", "indexes"), [
            (study, str(info["shards"]),
             ",".join(str(i) for i in info["shard_indexes"][:12])
             + ("…" if len(info["shard_indexes"]) > 12 else ""))
            for study, info in sorted(status["studies"].items())])
    return 0


def run_cache(args) -> int:
    """``repro cache``: inspect or prune a result cache."""
    from repro.fleet.result_cache import CACHE_ENV_VAR, study_cache

    cache = study_cache(args.cache_dir)
    if cache is None:
        raise ReproError(
            f"no cache directory: pass --cache-dir or set ${CACHE_ENV_VAR}")
    scan = cache.scan()
    stats = cache.stats()
    total = stats["hits"] + stats["misses"]
    hit_rate = f"{stats['hits'] / total:.1%}" if total else "n/a"
    print(f"cache: {cache.root}")
    _table(("cache metric", "value"), [
        ("entries", str(scan["entries"])),
        ("valid", str(scan["valid"])),
        ("stale", str(scan["stale"])),
        ("corrupt", str(scan["corrupt"])),
        ("size", _human_bytes(scan["bytes"])),
        ("hits", str(stats["hits"])),
        ("misses", str(stats["misses"])),
        ("stores", str(stats["stores"])),
        ("hit rate", hit_rate),
    ])
    prune = args.prune
    if prune is not None:
        removed = cache.prune() if prune < 0 else cache.prune(prune)
        print(f"\npruned {removed} "
              f"entr{'y' if removed == 1 else 'ies'} "
              f"({cache.scan()['entries']} remain)")
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

    if args.json:
        import json

        print(json.dumps(build_report(run_dir), indent=2, sort_keys=True))
    else:
        print(render_report(run_dir))
    return 0


def run_report(args) -> int:
    """``repro report``: one-shot markdown report of the headline results."""
    run_dir = args.run_dir
    if run_dir:
        return _run_obs_report(args, run_dir)

    from repro.analysis import ThresholdStudy, measure_latency_curve
    from repro.fleet import AblationStudy, RolloutStudy

    if args.quick:
        machines, epochs, warmup, hops = 8, 30, 10, 120
    else:
        machines, epochs, warmup, hops = 20, 70, 25, 300
    workers = args.workers
    cache_dir = args.cache_dir

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
                           seed=5).run(workers=workers,
                                       cache_dir=cache_dir)
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
        from repro.jsonio import atomic_write_text
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


def run_scenario_callgraph(args) -> int:
    """``repro scenario callgraph``: the RPC call-graph SLO study."""
    from repro.scenarios import (CallGraphScenario, DEFAULT_SERVICES,
                                 callgraph_digest)

    def build(fault_plan):
        return CallGraphScenario(
            services=args.services or DEFAULT_SERVICES,
            requests=args.requests, seed=args.seed, mode=args.mode,
            rpc_overhead_ns=args.rpc_overhead_ns, fault_plan=fault_plan)

    def report(scenario, result) -> None:
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
        _table(("service", "kind", "replicas", "fan-out", "p50 ns",
                "p90 ns", "p99 ns"), rows)
        slo = scenario.slo_summary(result)
        print(f"\nend-to-end SLO at {scenario.root!r}: "
              f"p50={slo.p50:.0f} ns  p90={slo.p90:.0f} ns  "
              f"p99={slo.p99:.0f} ns  (peak {slo.peak:.0f} ns over "
              f"{slo.count} requests)")
        if scenario.fault_plan is not None:
            print(f"\nfault plan: {scenario.fault_plan.spec()}")

    return _run_study_command(args, build, callgraph_digest, report)


def run_scenario_noisy(args) -> int:
    """``repro scenario noisy``: the multi-tenant interference study."""
    from repro.scenarios import (DEFAULT_TENANTS, NoisyNeighborScenario,
                                 noisy_digest)

    def build(fault_plan):
        return NoisyNeighborScenario(
            tenants=args.tenants or DEFAULT_TENANTS, machines=args.machines,
            epochs=args.epochs, seed=args.seed, mode=args.mode,
            upper=args.upper, lower=args.lower, sustain_ns=args.sustain_ns,
            shard_size=args.shard_size, fault_plan=fault_plan)

    def report(scenario, result) -> None:
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
        if scenario.fault_plan is not None:
            print(f"\nfault plan: {scenario.fault_plan.spec()}")

    def baseline(scenario, result) -> None:
        if not args.baseline:
            return
        twin = scenario.baseline_twin().run(
            workers=args.workers, cache_dir=args.cache_dir,
            checkpoint_dir=args.checkpoint_dir, obs_dir="")
        comparison = scenario.compare_to_baseline(result, twin)
        print("\nversus always-enabled twin (negative = faster):")
        _table(("tenant", "p50", "p90", "p99", "mean"), [
            (name, _pct(change["p50"]), _pct(change["p90"]),
             _pct(change["p99"]), _pct(change["mean"]))
            for name, change in comparison.items()])

    return _run_study_command(args, build, noisy_digest, report, after=baseline)
