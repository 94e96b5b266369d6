"""The micro-fleet sweep: trace-driven machine-arms at batch throughput.

The ablation and rollout studies are *analytic* — their fleets evolve
epoch by epoch through the scheduler and controller models. This study
is the complementary *trace-driven* view: every machine-arm replays the
shared fleetbench-style mixed trace through a full
:class:`~repro.memsys.hierarchy.MemoryHierarchy`, differing only in its
background bandwidth pressure (a per-machine
:class:`~repro.memsys.dram.ConstantExternalLoad` drawn from a stable
BLAKE2b stream). That shape — hundreds of arms, one trace — is exactly
what the batched lockstep engine (:mod:`repro.memsys.batched`)
accelerates, and the sweep runs every shard through
:func:`~repro.memsys.hierarchy.run_many` so eligible arms batch
automatically, one lockstep call per group. ``off`` arms share one
empty-bank group, ``control`` arms group by prefetcher-bank
configuration and training fingerprint (``DESIGN.md`` §11). Each shard
also records a :class:`~repro.memsys.batched.BatchOccupancy` — how many
arms batched, how many fell back to scalar and why — surfaced through
``repro sweep`` reports.

Determinism mirrors the other fleet studies:

* shards come from :func:`~repro.fleet.shard.plan_shards`, each with its
  :func:`~repro.fleet.shard.shard_seed`-derived trace seed;
* per-arm draws (background load, chaos crashes) come from
  :func:`~repro.seeds.stable_rng` streams in the fault namespace keyed
  by study seed, shard index, and machine name — never from shared RNG
  state — so the result is independent of worker count and engine;
* shard results merge by concatenation in plan order, so serial and
  sharded runs are bit-identical and :func:`sweep_digest` can prove it
  (``repro sweep --compare-serial`` also recomputes the sweep on the
  reference interpreter, pinning the batched engine to it end-to-end).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import ConfigError
from repro.fleet.shard import DEFAULT_SHARD_SIZE, plan_shards
from repro.fleet.study import FleetStudy
from repro.jsonio import canonical_json
from repro.seeds import FAULT_NAMESPACE, stable_rng

if TYPE_CHECKING:  # a plan is only read, never built, here
    from repro.faults.plan import FaultPlan

#: Sweep arm configurations: ``off`` ablates every hardware prefetcher;
#: ``control`` leaves the default aggressive bank enabled (the paired
#: baseline). Both batch through the lockstep engine — control arms
#: group by bank configuration and training fingerprint.
SWEEP_MODES = ("off", "control")

#: Upper bound of the per-machine background-load draw, bytes/ns. Spans
#: idle co-tenants up to roughly two thirds of the DRAM saturation
#: bandwidth, the paper's busy-fleet regime.
_MAX_BACKGROUND_LOAD = 2.0

#: Fields every per-arm summary row carries, in serialization order.
_ARM_FIELDS = (
    "machine",
    "external_load",
    "down",
    "elapsed_ns",
    "stall_cycles",
    "llc_misses",
    "dram_demand_fills",
    "dram_wait_ns",
)


def background_load(study_seed: int, shard_index: int, machine: str) -> float:
    """The arm's constant background DRAM pressure, bytes/ns.

    A pure function of ``(study seed, shard index, machine name)`` via a
    BLAKE2b-seeded stream, so it is identical across worker counts,
    engines, and hosts.
    """
    rng = stable_rng(FAULT_NAMESPACE, study_seed, "sweep-load", shard_index, machine)
    return rng.uniform(0.0, _MAX_BACKGROUND_LOAD)


def crashed(study_seed: int, shard_index: int, machine: str, rate: float) -> bool:
    """Whether a chaos sweep marks this arm down for the whole replay.

    The trace-driven sweep has no epoch axis, so the analytic studies'
    crash/outage/restart cycle collapses to a single draw: the arm is
    either up for the replay or down throughout (its row reports zeros).
    """
    if rate <= 0.0:
        return False
    rng = stable_rng(FAULT_NAMESPACE, study_seed, "sweep-crash", shard_index, machine)
    return rng.random() < rate


@dataclass
class MicroSweepResult:
    """Per-arm summaries plus totals for one micro-fleet sweep.

    ``arms`` holds one row per machine in shard-plan order — down
    (crashed) arms included, zeroed, so row count and order are a pure
    function of the study parameters. Merging concatenates in shard
    order, which keeps serial and sharded results byte-identical.
    """

    mode: str
    machines: int = 0
    down: int = 0
    arms: List[Dict] = field(default_factory=list)
    #: Engine-occupancy telemetry for this result's shards (a
    #: :class:`~repro.memsys.batched.BatchOccupancy`), or ``None`` when
    #: restored from a cache/checkpoint payload. Deliberately excluded
    #: from :meth:`to_dict` so digests — the equivalence proof — cover
    #: results only, never how they were computed.
    occupancy: Optional[object] = field(default=None, compare=False, repr=False)

    def merge(self, other: "MicroSweepResult") -> "MicroSweepResult":
        """Fold the next shard's rows in (in place; plan order)."""
        if other.mode != self.mode:
            raise ConfigError(f"cannot merge mode {other.mode!r} into {self.mode!r}")
        self.machines += other.machines
        self.down += other.down
        self.arms.extend(other.arms)
        if self.occupancy is None:
            self.occupancy = other.occupancy
        elif other.occupancy is not None:
            self.occupancy.merge(other.occupancy)
        return self

    # --- aggregates ------------------------------------------------------------

    def total(self, field_name: str) -> float:
        """Sum of one numeric per-arm field over the live arms."""
        return sum(arm[field_name] for arm in self.arms if not arm["down"])

    def mean_elapsed_ns(self) -> float:
        """Mean simulated duration across live arms (0 if all down)."""
        live = self.machines - self.down
        return self.total("elapsed_ns") / live if live else 0.0

    # --- serialization ----------------------------------------------------------

    def to_dict(self) -> Dict:
        """Lossless plain-data form (canonical field order per row)."""
        return {
            "mode": self.mode,
            "machines": self.machines,
            "down": self.down,
            "arms": [{name: arm[name] for name in _ARM_FIELDS} for arm in self.arms],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "MicroSweepResult":
        return cls(
            mode=payload["mode"],
            machines=payload["machines"],
            down=payload["down"],
            arms=[dict(arm) for arm in payload["arms"]],
        )


def sweep_digest(result: MicroSweepResult) -> str:
    """A stable content hash of a sweep result.

    Two results digest equal iff every row matches bit-for-bit —
    including each arm's float stall/elapsed values, which is what makes
    the digest a proof of engine equivalence: the CLI's
    ``--compare-serial`` and the CI batched-equivalence job diff digests
    across worker counts and against the reference interpreter.
    """
    return hashlib.sha256(canonical_json(result.to_dict()).encode()).hexdigest()


def run_sweep_shard(shard: MicroFleetSweep) -> MicroSweepResult:
    """Replay the shard's trace through its machine-arms.

    Pure function of the shard — the process-pool worker entry point.
    The shard is a copy of its sweep with the shard's own ``machines``
    and ``trace_seed``; its ``seed`` stays the study seed. Arms are built
    cold, run through :func:`~repro.memsys.hierarchy.run_many` (which
    batches the eligible ones), and discarded; only their result rows
    survive, so the engine runs with ``export_state=False``: no arm takes
    in cache contents, and each drops its caches, training, in-flight
    table and DRAM window right after its run, so a shard holds one
    arm's replay state at a time.
    """
    from repro.memsys.batched import BatchOccupancy
    from repro.memsys.dram import ConstantExternalLoad
    from repro.memsys.hierarchy import MemoryHierarchy, run_many
    from repro.memsys.prefetchers.bank import PrefetcherBank
    from repro.workloads.memo import memoized_fleet_mix

    trace = memoized_fleet_mix(shard.trace_seed, shard.scale)
    rows: List[Dict] = []
    live_arms: List[MemoryHierarchy] = []
    live_rows: List[Dict] = []
    down = 0
    for index in range(shard.machines):
        machine = f"m{index}"
        load = background_load(shard.seed, shard.shard_index, machine)
        row = {
            "machine": f"s{shard.shard_index}/{machine}",
            "external_load": load,
            "down": False,
            "elapsed_ns": 0.0,
            "stall_cycles": 0.0,
            "llc_misses": 0,
            "dram_demand_fills": 0,
            "dram_wait_ns": 0.0,
        }
        rows.append(row)
        if crashed(shard.seed, shard.shard_index, machine, shard.crash_rate):
            row["down"] = True
            down += 1
            continue
        arm = MemoryHierarchy(
            prefetchers=PrefetcherBank([]) if shard.mode == "off" else None,
            external_load=ConstantExternalLoad(load),
        )
        live_arms.append(arm)
        live_rows.append(row)

    occupancy = BatchOccupancy()
    if live_arms:
        results = run_many(live_arms, trace, export_state=False, occupancy=occupancy)
        for row, result in zip(live_rows, results):
            row["elapsed_ns"] = result.elapsed_ns
            row["stall_cycles"] = result.total.stall_cycles
            row["llc_misses"] = result.total.llc_misses
            row["dram_demand_fills"] = result.dram_demand_fills
            row["dram_wait_ns"] = result.total.dram_wait_ns
    return MicroSweepResult(
        mode=shard.mode, machines=shard.machines, down=down, arms=rows, occupancy=occupancy
    )


class MicroFleetSweep(FleetStudy):
    """A trace-driven sweep over a fleet of independent machine-arms.

    Args:
        mode: ``off`` (prefetchers ablated) or ``control`` (default
            bank enabled). Both batch through the lockstep engine —
            control arms group by bank configuration and training
            fingerprint. Same-seed off/control pairs are a paired
            experiment over identical traffic.
        machines: Total machine-arm population.
        seed: Master study seed; shard trace seeds and every per-arm
            draw derive from it deterministically.
        scale: Workload scale factor passed to the trace generator.
        fault_plan: Its ``machine-crash`` rate is the fraction of arms a
            chaos sweep marks down (drawn per arm from the study's fault
            stream; no plan or no such clause runs every arm). Any other
            fault kind raises :class:`ConfigError`, as the sweep runs no
            daemon.
        shard_size: Machines per shard (see :mod:`repro.fleet.shard`).
    """

    STUDY = "micro-sweep"
    worker = staticmethod(run_sweep_shard)
    from_payload = staticmethod(MicroSweepResult.from_dict)

    def __init__(
        self,
        mode: str = "off",
        machines: int = 64,
        seed: int = 17,
        scale: float = 1.0,
        shard_size: int = DEFAULT_SHARD_SIZE,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if mode not in SWEEP_MODES:
            raise ConfigError(f"mode must be one of {SWEEP_MODES}, got {mode!r}")
        if machines <= 0:
            raise ConfigError("need at least one machine")
        if scale <= 0:
            raise ConfigError(f"scale must be positive, got {scale}")
        if shard_size <= 0:
            raise ConfigError(f"shard size must be positive, got {shard_size}")
        self.mode = mode
        self.machines = machines
        self.seed = seed
        self.scale = scale
        #: Derived from the plan; cache and shard-task keys hold the
        #: rate, not the plan.
        self.crash_rate = 0.0
        if fault_plan is not None:
            self.crash_rate = fault_plan.crash_only_rate("the sweep")
        self.shard_size = shard_size

    # --- sharding ----------------------------------------------------------------

    def shard_fields(self) -> List[Dict]:
        """Each shard's population and trace seed, in plan order."""
        plan = plan_shards(self.machines, self.shard_size)
        return [
            {"machines": size, "trace_seed": trace_seed}
            for size, trace_seed in zip(plan.sizes, plan.seeds(self.seed))
        ]

    def cache_key_material(self) -> Dict:
        """Everything the result depends on, as plain data.

        Excludes the worker count and the engine: every engine is
        bit-identical, so neither can change the result — a cache entry
        written under ``REPRO_SLOW_ENGINE=1`` must hit when read back by
        the compiled engine, and does.
        """
        return {
            "study": self.STUDY,
            "mode": self.mode,
            "machines": self.machines,
            "seed": self.seed,
            "scale": self.scale,
            "crash_rate": self.crash_rate,
            "shard_size": self.shard_size,
        }

    def shard_key(self, shard: MicroFleetSweep) -> Dict:
        """The shard's own fields plus the trace fingerprint — the trace
        memo's own content key, ``("fleetbench_mix", trace_seed, scale)``.
        Like the study cache key, it excludes the engine: every engine is
        bit-identical, so a shard journaled under ``REPRO_SLOW_ENGINE=1``
        must restore under the compiled engine, and does."""
        return {
            "mode": shard.mode,
            "machines": shard.machines,
            "study_seed": shard.seed,
            "trace_seed": shard.trace_seed,
            "scale": shard.scale,
            "crash_rate": shard.crash_rate,
            "shard_index": shard.shard_index,
            "trace": ["fleetbench_mix", shard.trace_seed, shard.scale],
        }

    # --- execution ---------------------------------------------------------------

    def run(
        self,
        *,
        workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        checkpoint_dir: Optional[str] = None,
        obs_dir: Optional[str] = None,
    ) -> MicroSweepResult:
        """Run every shard and merge the rows in plan order, as
        :meth:`FleetStudy.run <repro.fleet.study.FleetStudy.run>` does,
        except that the sweep writes no run directory: ``obs_dir`` must
        be unset or empty, and ``$REPRO_OBS_DIR`` is ignored."""
        if obs_dir:
            raise ConfigError(f"the sweep writes no run directory; got obs_dir={obs_dir!r}")
        return super().run(
            workers=workers, cache_dir=cache_dir, checkpoint_dir=checkpoint_dir, obs_dir=""
        )
