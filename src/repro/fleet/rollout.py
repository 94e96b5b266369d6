"""The fleet rollout study — before/after full Limoncello (Section 6).

"Due to the size of the fleet, we rollout Limoncello to the entire fleet
over a period of a few weeks. [Figures] provide a comparison of average
fleetwide performance metrics before the rollout [...] and after the
rollout, when both Hard and Soft Limoncello were in full effect."

:class:`RolloutStudy` runs three arms from the same seed — before
(prefetchers always on), Hard-only, and full Limoncello — which is enough
to regenerate Figures 16 through 20.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import LimoncelloConfig
from repro.errors import ConfigError
from repro.faults.metrics import ChaosMetrics, collect_chaos_metrics
from repro.faults.plan import FaultPlan
from repro.fleet.cluster import Fleet, FleetMetrics
from repro.fleet.shard import DEFAULT_SHARD_SIZE
from repro.fleet.study import FleetStudy, run_study, run_traced
from repro.fleet.tape import DriverTape, new_tape
from repro.obs.tracer import NULL_TRACER
from repro.profiling.profile_data import ProfileData
from repro.profiling.profiler import FleetProfiler
from repro.workloads.base import FunctionCategory, TAX_CATEGORIES


@dataclass
class RolloutResult:
    """Metrics and profiles for the rollout arms.

    ``before``, ``hard_only``, and ``full`` hold the machine populations
    fixed (the scheduler is not yet prefetch-aware), isolating
    Limoncello's direct effect on latency, bandwidth, and throughput
    (Figures 16-18, 20). ``full_integrated`` additionally lets the
    scheduler see prefetcher state, converting the bandwidth savings into
    extra scheduled work — the capacity effect of Figure 19.
    """

    before: FleetMetrics
    hard_only: FleetMetrics
    full: FleetMetrics
    full_integrated: FleetMetrics
    before_profile: ProfileData
    hard_profile: ProfileData
    full_profile: ProfileData
    #: Controller-robustness aggregate for the full-Limoncello arm;
    #: ``None`` unless the study ran under a fault plan.
    chaos: Optional[ChaosMetrics] = None

    # --- combination -----------------------------------------------------------

    def merge(self, other: "RolloutResult") -> "RolloutResult":
        """Fold another shard's rollout arms into this one (in place).

        Arms merge pairwise through the associative metric/profile
        merges, so sharded rollout results are order-independent in
        every summary view. Returns ``self`` for chaining.
        """
        self.before.merge(other.before)
        self.hard_only.merge(other.hard_only)
        self.full.merge(other.full)
        self.full_integrated.merge(other.full_integrated)
        self.before_profile.merge(other.before_profile)
        self.hard_profile.merge(other.hard_profile)
        self.full_profile.merge(other.full_profile)
        if other.chaos is not None:
            if self.chaos is None:
                self.chaos = ChaosMetrics()
            self.chaos.merge(other.chaos)
        return self

    def to_dict(self) -> Dict:
        """The stored form (cache and journal payloads, packed samples);
        digests hash :func:`~repro.serialization.rollout_result_to_dict`."""
        from repro.serialization import rollout_result_to_payload

        return rollout_result_to_payload(self)

    # --- Figure 16 ------------------------------------------------------------

    def throughput_gain_by_band(self, bands=((0.55, 0.65), (0.65, 0.75),
                                             (0.75, 0.85))) -> Dict[str, float]:
        """Fractional throughput gain per CPU-utilization band."""
        before = self.before.throughput_by_cpu_band(bands)
        after = self.full.throughput_by_cpu_band(bands)
        gains = {}
        for band, base in before.items():
            if base > 0 and band in after:
                gains[band] = after[band] / base - 1.0
        return gains

    # --- Figure 17 -------------------------------------------------------------

    def latency_reduction(self) -> Dict[str, float]:
        """Fractional memory-latency change, full arm vs before (Figure 17)."""
        return self.full.latency_summary().relative_change(
            self.before.latency_summary())

    # --- Figure 18 -------------------------------------------------------------

    def bandwidth_reduction(self) -> Dict[str, float]:
        """Fractional socket-bandwidth change, full arm vs before (Figure 18)."""
        return self.full.bandwidth_summary().relative_change(
            self.before.bandwidth_summary())

    def saturated_socket_change(self) -> float:
        """Fractional change in the saturated-socket share."""
        before = self.before.saturated_socket_fraction()
        if before <= 0:
            return 0.0
        return self.full.saturated_socket_fraction() / before - 1.0

    # --- capacity (Figure 19 companion numbers) ----------------------------------

    def cpu_utilization_gain(self) -> float:
        """Fractional mean CPU-utilization increase once the scheduler
        exploits Limoncello's bandwidth savings."""
        before = self.before.cpu_utilization_mean()
        if before <= 0:
            return 0.0
        return self.full_integrated.cpu_utilization_mean() / before - 1.0

    # --- Figure 19 --------------------------------------------------------------

    def bandwidth_vs_cpu(self) -> Dict[str, Dict[str, float]]:
        """Figure 19's before/after bandwidth-vs-CPU curves."""
        return {
            "before": self.before.bandwidth_by_cpu_bucket(),
            "after": self.full_integrated.bandwidth_by_cpu_bucket(),
        }

    # --- Figure 20 ---------------------------------------------------------------

    def tax_cycle_shares(self) -> Dict[str, Dict[str, float]]:
        """Fleet cycle share per tax category under the three arms."""
        out: Dict[str, Dict[str, float]] = {}
        for arm, profile in (("none", self.before_profile),
                             ("hard", self.hard_profile),
                             ("full", self.full_profile)):
            shares = profile.category_cycle_shares()
            out[arm] = {
                category.value: shares.get(category, 0.0)
                for category in FunctionCategory
                if category in TAX_CATEGORIES
            }
            out[arm]["all targeted DC tax"] = sum(out[arm].values())
        return out


def rollout_digest(result: RolloutResult) -> str:
    """A stable content hash of a rollout result.

    Two results digest equal iff every arm's raw samples, profile and
    chaos counter match bit-for-bit. The CLI's ``--compare-serial`` and
    the CI rollout leg diff it across worker counts and shard sizes.
    """
    from repro.serialization import canonical_json, rollout_result_to_dict

    return hashlib.sha256(
        canonical_json(rollout_result_to_dict(result)).encode()).hexdigest()


@dataclass(frozen=True)
class RolloutShardSpec:
    """One shard's worth of a rollout study (picklable pool payload)."""

    machines: int
    epochs: int
    warmup_epochs: int
    seed: int
    config: Optional[LimoncelloConfig]
    profile_sample_rate: float
    fault_plan: Optional[FaultPlan] = None
    #: Position in the shard plan, for stamping the worker's events.
    shard_index: int = 0


def run_rollout_shard(
        spec: RolloutShardSpec) -> Tuple[RolloutResult, List[Dict], float]:
    """Run one shard's four arms under an in-process tracer; returns
    ``(result, events, wall_seconds)``. Pure function of the spec — the
    process-pool worker entry point."""
    study = RolloutStudy(
        machines=spec.machines, epochs=spec.epochs,
        warmup_epochs=spec.warmup_epochs, seed=spec.seed,
        config=spec.config, profile_sample_rate=spec.profile_sample_rate,
        fault_plan=spec.fault_plan)
    return run_traced(study, spec)


class RolloutStudy(FleetStudy):
    """Runs the before / Hard-only / full-Limoncello arms.

    Populations above ``shard_size`` machines split into deterministic
    sub-fleets that can run on parallel workers; the shard plan (and so
    the result) is independent of the worker count — see
    :mod:`repro.fleet.shard`.
    """

    STUDY = "rollout"

    def __init__(self, machines: int = 30, epochs: int = 100, seed: int = 5,
                 warmup_epochs: int = 20,
                 config: Optional[LimoncelloConfig] = None,
                 profile_sample_rate: float = 0.25,
                 shard_size: int = DEFAULT_SHARD_SIZE,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        if epochs <= 0:
            raise ConfigError("epochs must be positive")
        if warmup_epochs < 0:
            raise ConfigError("warmup cannot be negative")
        if shard_size <= 0:
            raise ConfigError("shard size must be positive")
        self.machines = machines
        self.epochs = epochs
        self.warmup_epochs = warmup_epochs
        self.seed = seed
        self.config = config
        self.shard_size = shard_size
        self.fault_plan = fault_plan
        self._sample_rate = profile_sample_rate
        #: Work-queue disposition of the last :meth:`run` (a
        #: :class:`~repro.fleet.queue.QueueStats`), or ``None``.
        self.queue_stats = None

    def _build(self, prefetch_aware: bool = False, tracer=None) -> Fleet:
        from repro.fleet.scheduler import BandwidthAwareScheduler
        return Fleet(
            machines=self.machines, seed=self.seed,
            scheduler=BandwidthAwareScheduler(prefetch_aware=prefetch_aware),
            fault_plan=self.fault_plan,
            tracer=tracer if tracer else None)

    def _run_arm(self, deploy, prefetch_aware: bool = False, tracer=None,
                 tape: Optional[DriverTape] = None, replay: bool = False,
                 profile: bool = True) -> tuple:
        """Build, deploy and run one arm; returns ``(metrics, profile,
        fleet)``. With a ``tape`` the arm records its driver there, or
        (``replay``) drives from it; with ``profile`` off it runs no
        profiler and returns ``None`` for the profile."""
        fleet = self._build(prefetch_aware, tracer)
        if tape is not None:
            fleet.use_tape(tape, replay)
        deploy(fleet)
        if self.warmup_epochs:
            fleet.run(self.warmup_epochs)
        if not profile:
            return fleet.run(self.epochs), None, fleet
        profiler = FleetProfiler(self._sample_rate, rng=random.Random(37))
        metrics = fleet.run(self.epochs, observers=[profiler])
        return metrics, profiler.data, fleet

    def shard_specs(self) -> list:
        """Per-shard specs (plan order), ready for any worker."""
        plan = self.shard_plan()
        return [
            RolloutShardSpec(
                machines=size, epochs=self.epochs,
                warmup_epochs=self.warmup_epochs, seed=seed,
                config=self.config,
                profile_sample_rate=self._sample_rate,
                fault_plan=self.fault_plan, shard_index=index)
            for index, (size, seed)
            in enumerate(zip(plan.sizes, plan.seeds(self.seed)))
        ]

    def cache_key_material(self) -> Dict:
        """Everything the study's result depends on, as plain data (the
        cache key and manifest ``run`` block; worker count deliberately
        excluded)."""
        material = {
            "study": "rollout",
            "machines": self.machines,
            "epochs": self.epochs,
            "warmup_epochs": self.warmup_epochs,
            "seed": self.seed,
            "shard_size": self.shard_size,
            "profile_sample_rate": self._sample_rate,
            "config": self.config_key_material(),
        }
        if self.fault_plan is not None:
            material["fault_plan"] = self.fault_plan.to_key_material()
        return material

    def run(self, workers: Optional[int] = None,
            obs_dir: Optional[str] = None,
            cache_dir: Optional[str] = None,
            checkpoint_dir: Optional[str] = None) -> RolloutResult:
        """Run all arms across every shard and collect the result.

        The arguments follow :func:`~repro.fleet.study.run_study`; the
        result is identical at any worker count. After the call,
        :attr:`queue_stats` holds the work-queue disposition (``None``
        on a whole-study cache hit).
        """
        from repro.serialization import rollout_result_from_payload

        result, self.queue_stats = run_study(
            self, run_rollout_shard, rollout_result_from_payload,
            workers=workers, cache_dir=cache_dir,
            checkpoint_dir=checkpoint_dir, obs_dir=obs_dir)
        return result

    def _run_single(self, tracer=None) -> RolloutResult:
        """Run the whole population as one fleet (no sharding)."""
        tracer = tracer or NULL_TRACER
        # The three prefetch-unaware arms share one driver: "before"
        # records it, "hard" and "full" replay it (DESIGN.md §6).
        tape = new_tape()
        with tracer.context(arm="before"):
            before, before_profile, _ = self._run_arm(
                lambda fleet: None, tracer=tracer, tape=tape)

        def hard(fleet: Fleet) -> None:
            """Deploy Hard Limoncello only."""
            fleet.deploy_hard_limoncello(self.config)

        def full(fleet: Fleet) -> None:
            """Deploy Hard and Soft Limoncello."""
            fleet.deploy_hard_limoncello(self.config)
            fleet.deploy_soft_limoncello()

        with tracer.context(arm="hard"):
            hard_metrics, hard_profile, _ = self._run_arm(
                hard, tracer=tracer, tape=tape, replay=True)
        with tracer.context(arm="full"):
            full_metrics, full_profile, full_fleet = self._run_arm(
                full, tracer=tracer, tape=tape, replay=True)
        # Chaos metrics track the controller under fault, so they come
        # from the full-Limoncello arm (the deployment end-state). Then
        # the arm's fleet and the tape go before the last arm runs.
        chaos = (collect_chaos_metrics(full_fleet.machines)
                 if self.fault_plan is not None else None)
        tape = full_fleet = None
        # The prefetch-aware scheduler places differently, so this arm
        # drives itself; its profile would be discarded, so it runs none.
        with tracer.context(arm="full+scheduler"):
            integrated_metrics, _, _ = self._run_arm(
                full, prefetch_aware=True, tracer=tracer, profile=False)
        return RolloutResult(
            before=before,
            hard_only=hard_metrics,
            full=full_metrics,
            full_integrated=integrated_metrics,
            before_profile=before_profile,
            hard_profile=hard_profile,
            full_profile=full_profile,
            chaos=chaos,
        )
