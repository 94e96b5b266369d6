"""Multi-tenant noisy-neighbor scenarios with per-tenant attribution.

Two or more tenants co-locate on each machine: their per-epoch traces
are round-robin :func:`~repro.access.trace.interleave`-d (every record
labelled with its tenant's name) and replayed through one shared
:class:`~repro.memsys.hierarchy.MemoryHierarchy`, so the tenants contend
for the same DRAM bandwidth window — the socket-level contention Hard
Limoncello's controller reacts to. Between epochs the controller samples
DRAM utilization and toggles the *whole socket's* prefetchers, which is
exactly the paper's tension: the disable helps the prefetch-hostile
tenant (less pollution, shorter queues) and hurts the streaming tenant
(its covered accesses become demand misses).

Every machine in a shard replays the *same* epoch trace (the shared
fleet-wide slice the paper's daemons observe), so the epoch loop runs
all live machines through :func:`~repro.memsys.hierarchy.run_many`
together, and every epoch batches. Epoch 0 batches the cold machines in
lockstep, one call per enabled-mask group; each group leaves its
machines holding its caches by reference as one lineage, and later
epochs regroup them by lineage and enabled mask, so a group splits only
when controllers flip some of its machines' prefetchers (``DESIGN.md``
§11). Machines differ only in their constant background load (a float
array lane) and their controller trajectory, never in cache-visible
traffic.

Attribution needs no extra bookkeeping: the simulator's per-function
statistics, keyed by tenant label, yield per-tenant per-epoch latency
(P50/P90/P99 over epochs x machines), per-tenant demand bytes (LLC
misses x line size — these sum *exactly* to the socket's demand-byte
counter, a property test pins it), and the socket's disable duty cycle.

QoS knobs: each tenant has a ``throttle`` in (0, 1] scaling its offered
volume — the "what if we throttled the antagonist instead" lever.

Determinism mirrors the other studies: tenant traces come from
:func:`~repro.scenarios.workload.scenario_seed` streams keyed by the
study seed, tenant name, and epoch (machine-independent, which is what
makes the trace shareable), per-machine draws (load, crashes) key off
the *global* machine index, shards merge by concatenation in plan
order, and the result is bit-identical across worker counts, shard
sizes, and engines.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.fleet.shard import DEFAULT_SHARD_SIZE, plan_shards
from repro.fleet.study import FleetStudy
from repro.scenarios.workload import (check_kind, emit_request,
                                      scenario_rng)
from repro.jsonio import canonical_json
from repro.telemetry.percentile import PercentileSummary
from repro.units import CACHE_LINE_BYTES

if TYPE_CHECKING:  # a plan is only read, never built, here
    from repro.faults.plan import FaultPlan

#: Arm configurations: fixed prefetcher states (``enabled`` /
#: ``disabled``), the stock hysteresis controller (``hard``), or the
#: no-hysteresis straw man at the upper threshold (``single-threshold``).
NOISY_MODES = ("enabled", "disabled", "hard", "single-threshold")

#: Upper bound of the per-machine constant co-tenant pressure, bytes/ns
#: (tenants beyond the ones we model explicitly). An in-order core
#: cannot saturate the 3.0 bytes/ns socket by itself, so this draw is
#: what spreads machines across the controller's operating range:
#: low-draw sockets never cross the upper threshold, high-draw sockets
#: sustain above it and disable.
_MAX_BACKGROUND_LOAD = 2.8

#: Default two-tenant co-location: a latency-sensitive streaming service
#: against a batch antagonist hammering random lookups.
DEFAULT_TENANTS = "latency:stream:24,batch:random:96"

#: Records taken from each tenant per interleave turn — fine enough to
#: model context-switched co-execution, the shape that defeats stream
#: prefetchers on short streams.
_INTERLEAVE_CHUNK = 16

_TENANT_FIELDS = ("epoch_latency_ns", "llc_misses", "accesses",
                  "demand_bytes")
_ROW_FIELDS = ("machine", "down", "external_load", "epochs_disabled",
               "transitions", "demand_bytes", "elapsed_ns", "tenants")


@dataclass(frozen=True)
class TenantSpec:
    """One co-located tenant.

    Args:
        name: Unique tenant name (the attribution label).
        kind: Request shape, one of
            :data:`~repro.scenarios.workload.WORKLOAD_KINDS`.
        lines: Cache-line touches offered per epoch (before throttling).
        throttle: QoS volume throttle in (0, 1]; the emitted volume is
            ``max(1, int(lines * throttle))``.
    """

    name: str
    kind: str
    lines: int = 32
    throttle: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("tenant name cannot be empty")
        check_kind(self.kind)
        if self.lines <= 0:
            raise ConfigError(
                f"tenant {self.name!r} lines must be positive")
        if not 0.0 < self.throttle <= 1.0:
            raise ConfigError(
                f"tenant {self.name!r} throttle must be in (0, 1], got "
                f"{self.throttle}")

    @property
    def effective_lines(self) -> int:
        """Offered volume after the QoS throttle."""
        return max(1, int(self.lines * self.throttle))

    def to_dict(self) -> Dict:
        return {"name": self.name, "kind": self.kind, "lines": self.lines,
                "throttle": self.throttle}


def parse_tenants(text: str) -> Tuple[TenantSpec, ...]:
    """Parse the CLI tenant grammar.

    Comma-separated tenants, each ``name:kind:lines[:throttle]`` — e.g.
    :data:`DEFAULT_TENANTS`.
    """
    tenants = []
    for chunk in text.replace(";", ",").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(
                f"tenant spec {chunk!r} must be name:kind:lines[:throttle]")
        try:
            tenants.append(TenantSpec(
                name=parts[0].strip(), kind=parts[1].strip(),
                lines=int(parts[2]),
                throttle=float(parts[3]) if len(parts) == 4 else 1.0))
        except ValueError as error:
            raise ConfigError(f"bad tenant spec {chunk!r}: {error}")
    if not tenants:
        raise ConfigError("no tenants in spec")
    return tuple(tenants)


@dataclass
class NoisyNeighborResult:
    """Per-machine rows for one noisy-neighbor run.

    One row per machine in global index order (down machines included,
    zeroed); merging concatenates in plan order, so serial and sharded
    runs are byte-identical at any shard size.
    """

    mode: str
    epochs: int
    tenant_names: List[str] = field(default_factory=list)
    machines: int = 0
    down: int = 0
    rows: List[Dict] = field(default_factory=list)
    #: Engine-occupancy telemetry (a
    #: :class:`~repro.memsys.batched.BatchOccupancy`), or ``None`` when
    #: restored from a cache/checkpoint payload. Excluded from
    #: :meth:`to_dict` so digests cover results, not execution strategy.
    occupancy: Optional[object] = field(default=None, compare=False,
                                        repr=False)

    def merge(self, other: "NoisyNeighborResult") -> "NoisyNeighborResult":
        """Fold the next shard's rows in (in place; plan order)."""
        if (other.mode != self.mode or other.epochs != self.epochs
                or other.tenant_names != self.tenant_names):
            raise ConfigError("cannot merge mismatched noisy-neighbor "
                              "shards")
        self.machines += other.machines
        self.down += other.down
        self.rows.extend(other.rows)
        if self.occupancy is None:
            self.occupancy = other.occupancy
        elif other.occupancy is not None:
            self.occupancy.merge(other.occupancy)
        return self

    # --- per-tenant attribution --------------------------------------------------

    def live_rows(self) -> List[Dict]:
        return [row for row in self.rows if not row["down"]]

    def tenant_latencies(self, name: str) -> List[float]:
        """Every live machine's per-epoch per-access latency for one
        tenant, ns (machines x epochs observations)."""
        return [latency
                for row in self.live_rows()
                for latency in row["tenants"][name]["epoch_latency_ns"]]

    def tenant_summary(self, name: str) -> Optional[PercentileSummary]:
        """P50/P90/P99 of one tenant's per-epoch latency (``None`` when
        every machine is down)."""
        latencies = self.tenant_latencies(name)
        return PercentileSummary.of(latencies) if latencies else None

    def tenant_demand_bytes(self, name: str) -> int:
        """DRAM demand bytes attributed to one tenant (exact int)."""
        return sum(row["tenants"][name]["demand_bytes"]
                   for row in self.live_rows())

    def total_demand_bytes(self) -> int:
        """The sockets' total DRAM demand bytes (exact int)."""
        return sum(row["demand_bytes"] for row in self.live_rows())

    def bandwidth_shares(self) -> Dict[str, float]:
        """Each tenant's share of total demand bytes (sums to 1.0 when
        any traffic flowed; the underlying byte counts sum exactly)."""
        total = self.total_demand_bytes()
        return {name: (self.tenant_demand_bytes(name) / total
                       if total else 0.0)
                for name in self.tenant_names}

    def duty_cycle_disabled(self) -> float:
        """Fraction of live machine-epochs with prefetchers disabled."""
        live = self.live_rows()
        if not live or self.epochs == 0:
            return 0.0
        return sum(row["epochs_disabled"] for row in live) / (
            len(live) * self.epochs)

    def transitions(self) -> int:
        """Total controller flips across live machines."""
        return sum(row["transitions"] for row in self.live_rows())

    # --- serialization ----------------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "mode": self.mode,
            "epochs": self.epochs,
            "tenant_names": list(self.tenant_names),
            "machines": self.machines,
            "down": self.down,
            "rows": [
                {**{name: row[name] for name in _ROW_FIELDS
                    if name != "tenants"},
                 "tenants": {tenant: {key: stats[key]
                                      for key in _TENANT_FIELDS}
                             for tenant, stats in row["tenants"].items()}}
                for row in self.rows
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "NoisyNeighborResult":
        return cls(mode=payload["mode"], epochs=payload["epochs"],
                   tenant_names=list(payload["tenant_names"]),
                   machines=payload["machines"], down=payload["down"],
                   rows=[dict(row) for row in payload["rows"]])


def noisy_digest(result: NoisyNeighborResult) -> str:
    """Stable content hash; equal iff every row matches bit-for-bit."""
    return hashlib.sha256(
        canonical_json(result.to_dict()).encode()).hexdigest()


def run_noisy_shard(shard: NoisyNeighborScenario) -> NoisyNeighborResult:
    """Simulate this shard's machines epoch by epoch.

    Pure function of the shard — the process-pool worker entry point.
    The shard is a copy of its scenario with the shard's own
    ``machines`` and global ``start`` index; its ``seed`` stays the
    study seed. Every machine replays the *same* interleaved tenant
    trace each epoch (tenant streams key off study seed, tenant name,
    and epoch — never the machine), so the epoch loop runs all live
    machines through :func:`~repro.memsys.hierarchy.run_many` together:
    epoch 0 batches the cold arms by enabled mask, and later epochs
    batch the warm arms by lineage and enabled mask, from the state the
    last epoch's groups left them sharing. Controller modes sample DRAM
    utilization at epoch boundaries and actuate the socket-level
    prefetcher state for the *next* epoch (telemetry acts with one
    epoch of lag, like the daemon's sampling loop).
    """
    # Through the package: the end-to-end benchmark's span probes wrap
    # ``repro.access.interleave`` there.
    from repro.access import AddressSpace, interleave, trace_builder
    from repro.core.config import LimoncelloConfig
    from repro.core.controller import (HardLimoncelloController,
                                       SingleThresholdController)
    from repro.memsys.batched import BatchOccupancy
    from repro.memsys.dram import ConstantExternalLoad
    from repro.memsys.hierarchy import MemoryHierarchy, run_many

    tenant_names = [tenant.name for tenant in shard.tenants]
    controller_config = LimoncelloConfig(
        lower_threshold=shard.lower, upper_threshold=shard.upper,
        sustain_duration_ns=shard.sustain_ns,
        sample_period_ns=shard.sustain_ns)
    rows: List[Dict] = []
    live: List[Tuple[Dict, MemoryHierarchy, Optional[object]]] = []
    down = 0
    for local in range(shard.machines):
        machine = shard.start + local
        ident = f"m{machine}"
        row = {
            "machine": ident,
            "down": False,
            "external_load": 0.0,
            "epochs_disabled": 0,
            "transitions": 0,
            "demand_bytes": 0,
            "elapsed_ns": 0.0,
            "tenants": {name: {"epoch_latency_ns": [],
                               "llc_misses": 0,
                               "accesses": 0,
                               "demand_bytes": 0}
                        for name in tenant_names},
        }
        rows.append(row)
        if shard.crash_rate > 0.0 and scenario_rng(
                shard.seed, "noisy-crash",
                ident).random() < shard.crash_rate:
            row["down"] = True
            down += 1
            continue

        load = scenario_rng(shard.seed, "noisy-load",
                            ident).uniform(0.0, _MAX_BACKGROUND_LOAD)
        row["external_load"] = load
        hierarchy = MemoryHierarchy(
            external_load=ConstantExternalLoad(load))
        controller = None
        if shard.mode == "disabled":
            hierarchy.set_hardware_prefetchers(False)
        elif shard.mode == "hard":
            controller = HardLimoncelloController(controller_config,
                                                  ident=ident)
        elif shard.mode == "single-threshold":
            controller = SingleThresholdController(threshold=shard.upper,
                                                   ident=ident)
        live.append((row, hierarchy, controller))

    occupancy = BatchOccupancy()
    space = AddressSpace()
    for epoch in range(shard.epochs):
        if not live:
            break
        traces = []
        for tenant in shard.tenants:
            builder = trace_builder()
            emit_request(
                builder, tenant.kind,
                scenario_rng(shard.seed, "tenant", tenant.name,
                             epoch),
                space, tenant.effective_lines, function=tenant.name)
            traces.append(builder.build())
        epoch_trace = interleave(traces, chunk=_INTERLEAVE_CHUNK)
        for row, hierarchy, _ in live:
            if not hierarchy.prefetchers.enabled_prefetchers():
                row["epochs_disabled"] += 1
        results = run_many([arm for _, arm, _ in live], epoch_trace,
                           occupancy=occupancy)
        for (row, hierarchy, controller), result in zip(live, results):
            cycle_ns = hierarchy.config.cycle_ns
            row["demand_bytes"] += result.dram_demand_bytes
            row["elapsed_ns"] += result.elapsed_ns
            for name in tenant_names:
                stats = result.function(name)
                tenant_row = row["tenants"][name]
                accesses = stats.accesses
                tenant_row["epoch_latency_ns"].append(
                    stats.cycles * cycle_ns / accesses if accesses else 0.0)
                tenant_row["llc_misses"] += stats.llc_misses
                tenant_row["accesses"] += accesses
                tenant_row["demand_bytes"] += (stats.llc_misses
                                               * CACHE_LINE_BYTES)
            if controller is not None:
                decision = controller.observe(
                    hierarchy.now_ns,
                    hierarchy.dram.utilization(hierarchy.now_ns))
                hierarchy.set_hardware_prefetchers(
                    decision.prefetchers_enabled)
    for row, _, controller in live:
        if controller is not None:
            row["transitions"] = controller.transitions
    return NoisyNeighborResult(
        mode=shard.mode, epochs=shard.epochs, tenant_names=tenant_names,
        machines=shard.machines, down=down, rows=rows,
        occupancy=occupancy)


class NoisyNeighborScenario(FleetStudy):
    """A multi-tenant interference study over a small fleet.

    Args:
        tenants: The co-located tenants (2+ for an interference study;
            parse CLI text with :func:`parse_tenants`).
        machines: Socket population; each runs every tenant.
        epochs: Control epochs per machine (one telemetry sample each).
        seed: Master study seed; every draw derives from it.
        mode: ``enabled`` / ``disabled`` (fixed prefetcher state),
            ``hard`` (hysteresis controller), or ``single-threshold``
            (no-hysteresis straw man flipping at ``upper``).
        upper / lower / sustain_ns: Controller thresholds and sustain
            duration, scaled to trace time (default 80%/60% and 30 µs —
            the paper's seconds-scale sustain would never expire inside
            a microsecond-scale replay).
        shard_size: Machines per shard. Machine identities and draws
            key off *global* indices, so the merged result is invariant
            to the shard size too (it is excluded from cache keys).
        fault_plan: Its ``machine-crash`` rate is the fraction of
            machines a chaos run marks down (deterministic per-machine
            draw); any other fault kind raises :class:`ConfigError`.
    """

    STUDY = "scenario-noisy"
    worker = staticmethod(run_noisy_shard)
    from_payload = staticmethod(NoisyNeighborResult.from_dict)

    def __init__(self, tenants=None, machines: int = 8, epochs: int = 24,
                 seed: int = 23, mode: str = "hard",
                 upper: float = 0.8, lower: float = 0.6,
                 sustain_ns: float = 30_000.0,
                 shard_size: int = DEFAULT_SHARD_SIZE,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        if tenants is None:
            tenants = parse_tenants(DEFAULT_TENANTS)
        if isinstance(tenants, str):
            tenants = parse_tenants(tenants)
        tenants = tuple(tenants)
        if not tenants:
            raise ConfigError("need at least one tenant")
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names in {names}")
        if mode not in NOISY_MODES:
            raise ConfigError(
                f"mode must be one of {NOISY_MODES}, got {mode!r}")
        if machines <= 0:
            raise ConfigError("need at least one machine")
        if epochs <= 0:
            raise ConfigError(f"epochs must be positive, got {epochs}")
        if not 0.0 < lower < upper <= 1.0:
            raise ConfigError(
                f"need 0 < lower ({lower}) < upper ({upper}) <= 1")
        if sustain_ns <= 0:
            raise ConfigError("sustain_ns must be positive")
        if shard_size <= 0:
            raise ConfigError(
                f"shard size must be positive, got {shard_size}")
        self.tenants = tenants
        self.machines = machines
        self.epochs = epochs
        self.seed = seed
        self.mode = mode
        self.upper = upper
        self.lower = lower
        self.sustain_ns = sustain_ns
        self.crash_rate = 0.0
        if fault_plan is not None:
            self.crash_rate = fault_plan.crash_only_rate(
                "the noisy-neighbor scenario")
        self.fault_plan = fault_plan
        self.shard_size = shard_size

    # --- sharding ----------------------------------------------------------------

    def shard_fields(self) -> List[Dict]:
        """Each shard's population and global start index, in plan
        order."""
        fields = []
        start = 0
        for size in plan_shards(self.machines, self.shard_size).sizes:
            fields.append({"machines": size, "start": start})
            start += size
        return fields

    def cache_key_material(self) -> Dict:
        """Everything the result depends on, as plain data.

        Excludes workers, the engine, *and* shard size (machine draws
        key off global indices).
        """
        return {
            "study": self.STUDY,
            "tenants": [tenant.to_dict() for tenant in self.tenants],
            "machines": self.machines,
            "epochs": self.epochs,
            "seed": self.seed,
            "mode": self.mode,
            "upper": self.upper,
            "lower": self.lower,
            "sustain_ns": self.sustain_ns,
            "crash_rate": self.crash_rate,
        }

    def shard_key(self, shard: "NoisyNeighborScenario") -> Dict:
        """The shard's own population and start plus the scenario fields
        its run reads."""
        return {"tenants": [tenant.to_dict() for tenant in shard.tenants],
                "start": shard.start, "machines": shard.machines,
                "epochs": shard.epochs, "study_seed": shard.seed,
                "mode": shard.mode, "crash_rate": shard.crash_rate,
                "upper": shard.upper, "lower": shard.lower,
                "sustain_ns": shard.sustain_ns,
                "shard_index": shard.shard_index}

    def shard_meta(self, shard: "NoisyNeighborScenario") -> Dict:
        """The shard's plan-order ``shard-start``/``shard-finish`` event
        fields; the worker does not trace."""
        return {"machines": shard.machines, "seed": shard.seed,
                "epochs": shard.epochs}

    def baseline_twin(self) -> "NoisyNeighborScenario":
        """The paired always-``enabled`` arm over identical traffic —
        the ablation bridge: same seed, same tenants, same machines."""
        return NoisyNeighborScenario(
            tenants=self.tenants, machines=self.machines,
            epochs=self.epochs, seed=self.seed, mode="enabled",
            upper=self.upper, lower=self.lower,
            sustain_ns=self.sustain_ns, shard_size=self.shard_size,
            fault_plan=self.fault_plan)

    def compare_to_baseline(self, result: NoisyNeighborResult,
                            baseline: NoisyNeighborResult) -> Dict[str, Dict]:
        """Per-tenant relative change of every latency statistic versus
        the always-enabled twin (negative = this arm is faster)."""
        comparison: Dict[str, Dict] = {}
        for tenant in self.tenants:
            summary = result.tenant_summary(tenant.name)
            base = baseline.tenant_summary(tenant.name)
            if summary is None or base is None:
                continue
            comparison[tenant.name] = summary.relative_change(base)
        return comparison
