"""SLOFetch-style microservice call-graph scenarios.

A scenario is a DAG of services. Each service has a request shape (one
of :data:`~repro.scenarios.workload.WORKLOAD_KINDS`), a replica count,
and fan-out edges ``(child, calls-per-request)``. A shared arrival
stream of ``requests`` RPCs enters at the root; every service handles
every request (fan-out multiplies the *downstream* latency, not the
service's own work, which models the paper's datacenter-tax shape: the
leaf does the memory work, the edge pays the latency).

Execution is trace-driven: each service's requests are lowered into one
concatenated columnar trace — request ``i``'s records labelled
``req000i`` — and every replica replays it through a full
:class:`~repro.memsys.hierarchy.MemoryHierarchy` via
:func:`~repro.memsys.hierarchy.run_many`, so arms batch through the
lockstep engine exactly like the micro-fleet sweep — ``off`` arms in
empty-bank groups, ``control`` arms grouped by prefetcher-bank
configuration and training fingerprint, each group one lockstep call.
Each shard records a :class:`~repro.memsys.batched.BatchOccupancy`
surfaced through the ``repro scenario`` report.
Per-request per-replica latency falls out of the simulator's
per-function statistics; end-to-end request latency is assembled over
the DAG (request ``i`` routes to replica ``i % live``) and reported as
:class:`~repro.telemetry.PercentileSummary` P50/P90/P99 SLO rows.

Determinism mirrors the fleet studies: every draw (request contents,
replica background load, chaos crashes) comes from a
:func:`~repro.scenarios.workload.scenario_seed` stream keyed by the
study seed and the entity, shards are one-service-per-shard in listed
order, and merges concatenate in plan order — so serial, sharded, and
batched runs are bit-identical and :func:`callgraph_digest` proves it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.scenarios.workload import (check_kind, emit_request,
                                      request_label, scenario_rng)
from repro.serialization import canonical_json
from repro.telemetry.percentile import PercentileSummary

#: Arm configurations, mirroring the sweep: ``off`` ablates every
#: hardware prefetcher, ``control`` keeps the default aggressive bank.
#: Both batch through the lockstep engine.
CALLGRAPH_MODES = ("off", "control")

#: Upper bound of the per-replica background-load draw, bytes/ns.
_MAX_BACKGROUND_LOAD = 2.0

#: The default five-service topology: an edge frontend fanning out to
#: auth and two cache lookups, the caches sharing a storage leaf.
DEFAULT_SERVICES = ("frontend:mixed:2:24>auth*1+cache*2;"
                    "auth:random:1:12;"
                    "cache:stream:2:32>storage*1;"
                    "storage:chase:1:20")

_ROW_FIELDS = ("service", "replica", "external_load", "down",
               "elapsed_ns", "llc_misses", "dram_demand_bytes",
               "dram_wait_ns", "request_latency_ns")


@dataclass(frozen=True)
class ServiceSpec:
    """One service of the call graph.

    Args:
        name: Unique service name (the routing key of fan-out edges).
        kind: Request shape, one of
            :data:`~repro.scenarios.workload.WORKLOAD_KINDS`.
        replicas: Machine count; request ``i`` routes to replica
            ``i % live-replicas``.
        request_lines: Cache-line touches one request costs this service.
        calls: Fan-out edges as ``(child-service, calls-per-request)``.
    """

    name: str
    kind: str
    replicas: int = 1
    request_lines: int = 16
    calls: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("service name cannot be empty")
        check_kind(self.kind)
        if self.replicas <= 0:
            raise ConfigError(
                f"service {self.name!r} needs at least one replica")
        if self.request_lines <= 0:
            raise ConfigError(
                f"service {self.name!r} request_lines must be positive")
        for child, calls in self.calls:
            if calls <= 0:
                raise ConfigError(
                    f"service {self.name!r} calls {child!r} {calls} times; "
                    "calls must be positive")

    def to_dict(self) -> Dict:
        return {"name": self.name, "kind": self.kind,
                "replicas": self.replicas,
                "request_lines": self.request_lines,
                "calls": [[child, calls] for child, calls in self.calls]}


def parse_services(text: str) -> Tuple[ServiceSpec, ...]:
    """Parse the CLI service grammar.

    Semicolon-separated services, each
    ``name:kind:replicas:lines[>child*calls+child*calls...]`` — e.g.
    :data:`DEFAULT_SERVICES`.
    """
    services = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, _, fanout = chunk.partition(">")
        parts = head.split(":")
        if len(parts) != 4:
            raise ConfigError(
                f"service spec {head!r} must be name:kind:replicas:lines")
        name, kind, replicas, lines = (part.strip() for part in parts)
        calls = []
        if fanout.strip():
            for edge in fanout.split("+"):
                child, star, count = edge.strip().partition("*")
                if not star:
                    raise ConfigError(
                        f"fan-out edge {edge!r} must be child*calls")
                calls.append((child.strip(), int(count)))
        try:
            services.append(ServiceSpec(
                name=name, kind=kind, replicas=int(replicas),
                request_lines=int(lines), calls=tuple(calls)))
        except ValueError as error:
            raise ConfigError(f"bad service spec {chunk!r}: {error}")
    if not services:
        raise ConfigError("no services in spec")
    return tuple(services)


@dataclass
class CallGraphResult:
    """Per-replica rows for one call-graph run.

    ``rows`` holds one row per replica in plan order (services in listed
    order, replicas in index order) — down replicas included with zeroed
    counters and an empty latency vector, so row count and order are a
    pure function of the scenario. Merging concatenates in plan order,
    keeping serial and sharded runs byte-identical.
    """

    mode: str
    requests: int
    replicas: int = 0
    down: int = 0
    rows: List[Dict] = field(default_factory=list)
    #: Engine-occupancy telemetry (a
    #: :class:`~repro.memsys.batched.BatchOccupancy`), or ``None`` when
    #: restored from a cache/checkpoint payload. Excluded from
    #: :meth:`to_dict` so digests cover results, not execution strategy.
    occupancy: Optional[object] = field(default=None, compare=False,
                                        repr=False)

    def merge(self, other: "CallGraphResult") -> "CallGraphResult":
        """Fold the next shard's rows in (in place; plan order)."""
        if other.mode != self.mode or other.requests != self.requests:
            raise ConfigError(
                f"cannot merge ({other.mode!r}, {other.requests}) into "
                f"({self.mode!r}, {self.requests})")
        self.replicas += other.replicas
        self.down += other.down
        self.rows.extend(other.rows)
        if self.occupancy is None:
            self.occupancy = other.occupancy
        elif other.occupancy is not None:
            self.occupancy.merge(other.occupancy)
        return self

    # --- lookups ---------------------------------------------------------------

    def service_rows(self, service: str) -> List[Dict]:
        """This service's replica rows, in replica order."""
        return [row for row in self.rows if row["service"] == service]

    def service_summary(self, service: str) -> Optional[PercentileSummary]:
        """Per-request own-latency percentiles over the service's live
        replicas (``None`` when every replica is down)."""
        latencies = [latency
                     for row in self.service_rows(service)
                     if not row["down"]
                     for latency in row["request_latency_ns"]]
        return PercentileSummary.of(latencies) if latencies else None

    # --- serialization ----------------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "mode": self.mode,
            "requests": self.requests,
            "replicas": self.replicas,
            "down": self.down,
            "rows": [{name: row[name] for name in _ROW_FIELDS}
                     for row in self.rows],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "CallGraphResult":
        return cls(mode=payload["mode"], requests=payload["requests"],
                   replicas=payload["replicas"], down=payload["down"],
                   rows=[dict(row) for row in payload["rows"]])


def callgraph_digest(result: CallGraphResult) -> str:
    """Stable content hash; equal iff every row matches bit-for-bit.

    The CLI's ``--compare-serial`` and the CI scenario-smoke job diff
    these digests across worker counts and against the reference
    interpreter.
    """
    return hashlib.sha256(
        canonical_json(result.to_dict()).encode()).hexdigest()


@dataclass(frozen=True)
class CallGraphShardSpec:
    """One service's worth of a call-graph run (picklable pool payload)."""

    service: str
    kind: str
    replicas: int
    request_lines: int
    requests: int
    study_seed: int
    mode: str
    crash_rate: float
    shard_index: int


def run_callgraph_shard(spec: CallGraphShardSpec) -> CallGraphResult:
    """Replay one service's request stream through its replicas.

    Pure function of the spec — the process-pool worker entry point.
    The request stream is lowered once into a concatenated columnar
    trace; replicas (differing only in constant background load) replay
    it through :func:`~repro.memsys.hierarchy.run_many`, so arms in both
    modes batch through the lockstep engine.
    """
    from repro.access.address import AddressSpace
    from repro.access.builder import trace_builder
    from repro.memsys.batched import BatchOccupancy
    from repro.memsys.dram import ConstantExternalLoad
    from repro.memsys.hierarchy import MemoryHierarchy, run_many
    from repro.memsys.prefetchers.bank import PrefetcherBank

    space = AddressSpace()
    builder = trace_builder()
    for index in range(spec.requests):
        emit_request(builder, spec.kind,
                     scenario_rng(spec.study_seed, "request", spec.service,
                                  index),
                     space, spec.request_lines,
                     function=request_label(index))
    trace = builder.build()

    rows: List[Dict] = []
    live_arms: List = []
    live_rows: List[Dict] = []
    down = 0
    for replica in range(spec.replicas):
        load = scenario_rng(spec.study_seed, "load", spec.service,
                            replica).uniform(0.0, _MAX_BACKGROUND_LOAD)
        row = {
            "service": spec.service,
            "replica": f"{spec.service}/r{replica}",
            "external_load": load,
            "down": False,
            "elapsed_ns": 0.0,
            "llc_misses": 0,
            "dram_demand_bytes": 0,
            "dram_wait_ns": 0.0,
            "request_latency_ns": [],
        }
        rows.append(row)
        if spec.crash_rate > 0.0 and scenario_rng(
                spec.study_seed, "crash", spec.service,
                replica).random() < spec.crash_rate:
            row["down"] = True
            down += 1
            continue
        prefetchers = PrefetcherBank([]) if spec.mode == "off" else None
        arm = MemoryHierarchy(prefetchers=prefetchers,
                              external_load=ConstantExternalLoad(load))
        live_arms.append(arm)
        live_rows.append(row)

    occupancy = BatchOccupancy()
    if live_arms:
        cycle_ns = live_arms[0].config.cycle_ns
        results = run_many(live_arms, trace, export_state=False,
                           occupancy=occupancy)
        for row, result in zip(live_rows, results):
            row["elapsed_ns"] = result.elapsed_ns
            row["llc_misses"] = result.total.llc_misses
            row["dram_demand_bytes"] = result.dram_demand_bytes
            row["dram_wait_ns"] = result.total.dram_wait_ns
            row["request_latency_ns"] = [
                result.function(request_label(index)).cycles * cycle_ns
                for index in range(spec.requests)]
    return CallGraphResult(mode=spec.mode, requests=spec.requests,
                           replicas=spec.replicas, down=down, rows=rows,
                           occupancy=occupancy)


class CallGraphScenario:
    """A deterministic microservice call-graph study.

    Args:
        services: The DAG, root first (validated: unique names, known
            children, acyclic). Parse CLI text with
            :func:`parse_services`.
        requests: Arrival-stream length (every service handles each).
        seed: Master study seed; every request, load, and crash draw
            derives from it via the scenario stream.
        mode: ``off`` (prefetchers ablated) or ``control`` (default
            bank). Replicas lockstep-batch in both modes. Same-seed
            pairs are a paired experiment over identical request
            streams.
        rpc_overhead_ns: Fixed per-call network/serialization cost added
            on every fan-out edge during end-to-end assembly.
        crash_rate: Fraction of replicas a chaos run marks down for the
            whole replay (deterministic per-replica draw). A
            ``machine-crash`` clause in ``fault_plan`` supplies it when
            the explicit rate is 0; any other fault kind raises
            :class:`ConfigError`.
    """

    STUDY = "scenario-callgraph"

    def __init__(self, services=None, requests: int = 32,
                 seed: int = 21, mode: str = "off",
                 rpc_overhead_ns: float = 500.0,
                 crash_rate: float = 0.0,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        if services is None:
            services = parse_services(DEFAULT_SERVICES)
        if isinstance(services, str):
            services = parse_services(services)
        services = tuple(services)
        if not services:
            raise ConfigError("need at least one service")
        if mode not in CALLGRAPH_MODES:
            raise ConfigError(
                f"mode must be one of {CALLGRAPH_MODES}, got {mode!r}")
        if requests <= 0:
            raise ConfigError(f"requests must be positive, got {requests}")
        if rpc_overhead_ns < 0:
            raise ConfigError("rpc_overhead_ns cannot be negative")
        if not 0.0 <= crash_rate < 1.0:
            raise ConfigError(
                f"crash rate must be in [0, 1), got {crash_rate}")
        names = [service.name for service in services]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate service names in {names}")
        by_name = {service.name: service for service in services}
        for service in services:
            for child, _ in service.calls:
                if child not in by_name:
                    raise ConfigError(
                        f"service {service.name!r} calls unknown service "
                        f"{child!r}")
        self._check_acyclic(services, by_name)
        if fault_plan is not None:
            plan_rate = fault_plan.crash_only_rate("the call-graph scenario")
            if crash_rate == 0.0:
                crash_rate = plan_rate
        self.services = services
        self.root = services[0].name
        self.requests = requests
        self.seed = seed
        self.mode = mode
        self.rpc_overhead_ns = rpc_overhead_ns
        self.crash_rate = crash_rate
        #: Work-queue disposition of the last :meth:`run`, or ``None``.
        self.queue_stats = None

    @staticmethod
    def _check_acyclic(services, by_name) -> None:
        state: Dict[str, int] = {}  # 0 visiting, 1 done

        def visit(name: str, stack: Tuple[str, ...]) -> None:
            if state.get(name) == 1:
                return
            if state.get(name) == 0:
                raise ConfigError(
                    f"call graph has a cycle: {' -> '.join(stack + (name,))}")
            state[name] = 0
            for child, _ in by_name[name].calls:
                visit(child, stack + (name,))
            state[name] = 1

        for service in services:
            visit(service.name, ())

    @property
    def machines(self) -> int:
        """Total replica (machine) population."""
        return sum(service.replicas for service in self.services)

    # --- sharding ----------------------------------------------------------------

    def shard_specs(self) -> List[CallGraphShardSpec]:
        """One shard per service, in listed (plan) order."""
        return [
            CallGraphShardSpec(
                service=service.name, kind=service.kind,
                replicas=service.replicas,
                request_lines=service.request_lines,
                requests=self.requests, study_seed=self.seed,
                mode=self.mode, crash_rate=self.crash_rate,
                shard_index=index)
            for index, service in enumerate(self.services)
        ]

    def cache_key_material(self) -> Dict:
        """Everything the result depends on, as plain data.

        Excludes the worker count and the engine (every engine is
        bit-identical; see
        :meth:`MicroFleetSweep.cache_key_material
        <repro.fleet.sweep.MicroFleetSweep.cache_key_material>`).
        """
        return {
            "study": self.STUDY,
            "services": [service.to_dict() for service in self.services],
            "requests": self.requests,
            "seed": self.seed,
            "mode": self.mode,
            "rpc_overhead_ns": self.rpc_overhead_ns,
            "crash_rate": self.crash_rate,
        }

    def shard_meta(self, spec: CallGraphShardSpec) -> Dict:
        """The shard's plan-order ``shard-start``/``shard-finish`` event
        fields (see :func:`~repro.fleet.study.run_study`)."""
        return {"machines": spec.replicas, "seed": spec.study_seed,
                "epochs": spec.requests}

    def shard_task_materials(self) -> List[Dict]:
        """Work-queue key material per shard (plan order); excludes the
        engine so journals restore under any engine."""
        from repro.fleet.queue import shard_task_material

        materials = []
        for spec in self.shard_specs():
            body = {
                "service": spec.service,
                "kind": spec.kind,
                "replicas": spec.replicas,
                "request_lines": spec.request_lines,
                "requests": spec.requests,
                "study_seed": spec.study_seed,
                "mode": spec.mode,
                "crash_rate": spec.crash_rate,
                "shard_index": spec.shard_index,
            }
            materials.append(shard_task_material(self.STUDY, body))
        return materials

    # --- end-to-end assembly -----------------------------------------------------

    def end_to_end_latencies(self, result: CallGraphResult) -> List[float]:
        """Per-request end-to-end latency at the root, ns.

        ``e2e(service, i) = own(service, i) + sum over edges of
        calls * (rpc_overhead_ns + e2e(child, i))`` with request ``i``
        routed to live replica ``i % live``. A service whose replicas
        are all down contributes zero own-latency (the call fails fast);
        its subtree still pays the RPC overhead.
        """
        by_name = {service.name: service for service in self.services}
        live_latencies: Dict[str, List[List[float]]] = {}
        for service in self.services:
            live_latencies[service.name] = [
                row["request_latency_ns"]
                for row in result.service_rows(service.name)
                if not row["down"]]

        memo: Dict[str, List[float]] = {}

        def e2e(name: str) -> List[float]:
            cached = memo.get(name)
            if cached is not None:
                return cached
            live = live_latencies[name]
            own = [live[index % len(live)][index] if live else 0.0
                   for index in range(self.requests)]
            for child, calls in by_name[name].calls:
                child_e2e = e2e(child)
                own = [total + calls * (self.rpc_overhead_ns + downstream)
                       for total, downstream in zip(own, child_e2e)]
            memo[name] = own
            return own

        return e2e(self.root)

    def slo_summary(self, result: CallGraphResult) -> PercentileSummary:
        """End-to-end request-latency percentiles (the SLO row)."""
        return PercentileSummary.of(self.end_to_end_latencies(result))

    # --- execution ---------------------------------------------------------------

    def run(self, workers: Optional[int] = None,
            cache_dir: Optional[str] = None,
            checkpoint_dir: Optional[str] = None,
            obs_dir: Optional[str] = None) -> CallGraphResult:
        """Run every service shard and merge rows in plan order.

        The arguments follow :func:`~repro.fleet.study.run_study`: the
        result is bit-identical at any worker count, engine, and
        checkpoint/resume disposition. After the call,
        :attr:`queue_stats` holds the work-queue disposition.
        """
        from repro.fleet.study import run_study

        result, self.queue_stats = run_study(
            self, run_callgraph_shard, CallGraphResult.from_dict,
            workers=workers, cache_dir=cache_dir,
            checkpoint_dir=checkpoint_dir, obs_dir=obs_dir)
        return result
