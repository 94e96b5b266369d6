"""The fleet rollout study — before/after full Limoncello (Section 6).

"Due to the size of the fleet, we rollout Limoncello to the entire fleet
over a period of a few weeks. [Figures] provide a comparison of average
fleetwide performance metrics before the rollout [...] and after the
rollout, when both Hard and Soft Limoncello were in full effect."

:class:`RolloutStudy` runs four arms from the same seed — before
(prefetchers always on), Hard-only, full Limoncello, and full Limoncello
under a prefetch-aware scheduler (``full+scheduler``, which backs
Figure 19 and :meth:`RolloutResult.cpu_utilization_gain`) — which is
enough to regenerate Figures 16 through 20.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.core.config import LimoncelloConfig
from repro.fleet.cluster import Fleet, FleetMetrics
from repro.fleet.shard import DEFAULT_SHARD_SIZE
from repro.fleet.study import AnalyticFleetStudy
from repro.fleet.tape import DriverTape, new_tape
from repro.obs.tracer import NULL_TRACER
from repro.profiling.profile_data import ProfileData
from repro.profiling.profiler import FleetProfiler
from repro.workloads.base import FunctionCategory, TAX_CATEGORIES

if TYPE_CHECKING:  # the fault modules load only when a plan is given
    from repro.faults.metrics import ChaosMetrics
    from repro.faults.plan import FaultPlan


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
    #: No memsys engine runs in an analytic study.
    occupancy = None

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
                from repro.faults.metrics import ChaosMetrics

                self.chaos = ChaosMetrics()
            self.chaos.merge(other.chaos)
        return self

    def to_dict(self) -> Dict:
        """The stored form (cache and journal payloads, packed samples);
        digests hash :func:`~repro.serialization.rollout_result_to_dict`."""
        from repro.serialization import rollout_result_to_payload

        return rollout_result_to_payload(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "RolloutResult":
        """Rebuild a result from its :meth:`to_dict` form; the decoder
        loads only when a cache or journal hands one back."""
        from repro.serialization import rollout_result_from_payload

        return rollout_result_from_payload(payload)

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
        """Fleet cycle share per tax category under the three profiled arms
        (before, Hard-only, full)."""
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


class RolloutStudy(AnalyticFleetStudy):
    """Runs the before / Hard-only / full-Limoncello / full+scheduler arms.

    Populations above ``shard_size`` machines split into deterministic
    sub-fleets that can run on parallel workers; the shard plan (and so
    the result) is independent of the worker count — see
    :mod:`repro.fleet.shard`.
    """

    STUDY = "rollout"
    from_payload = staticmethod(RolloutResult.from_dict)

    def __init__(self, machines: int = 30, epochs: int = 100, seed: int = 5,
                 warmup_epochs: int = 20,
                 config: Optional[LimoncelloConfig] = None,
                 profile_sample_rate: float = 0.25,
                 shard_size: int = DEFAULT_SHARD_SIZE,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        super().__init__(machines, epochs, seed, warmup_epochs, config,
                         profile_sample_rate, shard_size, fault_plan)

    def _build(self, prefetch_aware: bool = False, tracer=None) -> Fleet:
        from repro.fleet.scheduler import BandwidthAwareScheduler
        return Fleet(
            machines=self.machines, seed=self.seed,
            scheduler=BandwidthAwareScheduler(prefetch_aware=prefetch_aware),
            fault_plan=self.fault_plan,
            tracer=tracer if tracer else None)

    def _run_arm(self, deploy, prefetch_aware: bool = False, tracer=None,
                 tape: Optional[DriverTape] = None, replay: bool = False,
                 profile: bool = True, chaos: bool = False) -> tuple:
        """Build, deploy and run one arm; returns ``(metrics, profile,
        chaos)``. With a ``tape`` the arm records its driver there, or
        (``replay``) drives from it; with ``profile`` off it runs no
        profiler and returns ``None`` for the profile. With ``chaos`` and
        a fault plan it aggregates its machines' chaos counters, else
        returns ``None`` for them. The fleet itself is never returned, so
        it goes when the arm ends."""
        fleet = self._build(prefetch_aware, tracer)
        if tape is not None:
            fleet.use_tape(tape, replay)
        deploy(fleet)
        if self.warmup_epochs:
            fleet.run(self.warmup_epochs)
        profiler = None
        if profile:
            profiler = FleetProfiler(self.profile_sample_rate, rng=random.Random(37))
            metrics = fleet.run(self.epochs, observers=[profiler])
        else:
            metrics = fleet.run(self.epochs)
        aggregate = None
        if chaos and self.fault_plan is not None:
            from repro.faults.metrics import collect_chaos_metrics

            aggregate = collect_chaos_metrics(fleet.machines)
        return (metrics, profiler.data if profiler is not None else None,
                aggregate)

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
        # Chaos metrics track the controller under fault, so they come
        # from the full-Limoncello arm (the deployment end-state).
        with tracer.context(arm="full"):
            full_metrics, full_profile, chaos = self._run_arm(
                full, tracer=tracer, tape=tape, replay=True, chaos=True)
        # Each arm's fleet went when its arm ended; the tape goes before
        # the last arm runs.
        tape = None
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
