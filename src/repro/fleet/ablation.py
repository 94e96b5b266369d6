"""The hardware ablation study harness (Sections 3 and 4.1).

The paper's methodology: split machines into an experiment group and a
control group, run the experiment arm with prefetchers ablated (or under
Hard Limoncello), profile both fleetwide, and compare. Here the two arms
are two fleets built from the *same seed*, so they receive identical
machine populations and traffic — a paired experiment, tighter than the
paper could manage on live traffic.

Large studies shard: the machine population splits into deterministic
sub-fleets (:mod:`repro.fleet.shard`), each shard runs both arms
end-to-end, and the per-shard results merge through the associative
:meth:`FleetMetrics.merge` / :meth:`ProfileData.merge` operations.
Because the shard plan and the merge order depend only on the study
parameters — never on the worker count — ``run(workers=8)`` returns
bit-identical results to ``run(workers=1)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.core.config import LimoncelloConfig
from repro.errors import ConfigError
from repro.fleet.cluster import Fleet, FleetMetrics
from repro.fleet.platform import PLATFORM_1, platform_by_name
from repro.fleet.shard import DEFAULT_SHARD_SIZE
from repro.fleet.study import AnalyticFleetStudy
from repro.fleet.tape import new_tape
from repro.obs.tracer import NULL_TRACER
from repro.profiling.profiler import FleetProfiler
from repro.profiling.profile_data import ProfileData

if TYPE_CHECKING:  # the fault modules load only when a plan is given
    from repro.faults.metrics import ChaosMetrics
    from repro.faults.plan import FaultPlan

#: Experiment-arm configurations.
MODES = ("off", "hard", "hard+soft", "soft-only", "control")

#: The arms that run Hard Limoncello daemons: the only ones a
#: telemetry/MSR fault has anything to act on.
DAEMON_MODES = ("hard", "hard+soft")

#: Seed for the (per-shard) profilers' own random stream. Fixed rather
#: than derived so a one-shard study reproduces the historical engine
#: exactly; shards differ through their machine populations.
_PROFILER_SEED = 71


@dataclass
class AblationResult:
    """Paired metrics and profiles for control vs. experiment arms."""

    mode: str
    control: FleetMetrics
    experiment: FleetMetrics
    control_profile: ProfileData
    experiment_profile: ProfileData
    #: Controller-robustness aggregate for the experiment arm; ``None``
    #: unless the study ran under a fault plan.
    chaos: Optional[ChaosMetrics] = None
    #: No memsys engine runs in an analytic study.
    occupancy = None

    def merge(self, other: "AblationResult") -> "AblationResult":
        """Fold another shard's paired result into this one (in place).

        Both results must come from the same experiment mode; arms merge
        pairwise. Associative and order-independent in every summary
        view, like the underlying metric/profile merges.
        """
        if other.mode != self.mode:
            raise ConfigError(
                f"cannot merge mode {other.mode!r} into {self.mode!r}")
        self.control.merge(other.control)
        self.experiment.merge(other.experiment)
        self.control_profile.merge(other.control_profile)
        self.experiment_profile.merge(other.experiment_profile)
        if other.chaos is not None:
            if self.chaos is None:
                from repro.faults.metrics import ChaosMetrics

                self.chaos = ChaosMetrics()
            self.chaos.merge(other.chaos)
        return self

    def to_dict(self) -> Dict:
        """The stored form (cache and journal payloads, packed samples);
        digests hash :func:`~repro.serialization.ablation_result_to_dict`."""
        from repro.serialization import ablation_result_to_payload

        return ablation_result_to_payload(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "AblationResult":
        """Rebuild a result from its :meth:`to_dict` form; the decoder
        loads only when a cache or journal hands one back."""
        from repro.serialization import ablation_result_from_payload

        return ablation_result_from_payload(payload)

    def bandwidth_reduction(self) -> Dict[str, float]:
        """Fractional socket-bandwidth change, experiment vs control —
        negative values are reductions (Table 1 / Figure 18)."""
        return self.experiment.bandwidth_summary().relative_change(
            self.control.bandwidth_summary())

    def latency_reduction(self) -> Dict[str, float]:
        """Fractional memory-latency change (Figure 17)."""
        return self.experiment.latency_summary().relative_change(
            self.control.latency_summary())

    def throughput_change(self) -> float:
        """Fractional change in fleet normalized throughput."""
        base = self.control.normalized_throughput
        if base <= 0:
            return 0.0
        return self.experiment.normalized_throughput / base - 1.0

    def function_cycle_deltas(self) -> Dict[str, float]:
        """Per-function fractional cycle change at equal work — the
        Figure 11 green bars. Cycles are normalized per instruction so
        that fleet-level load differences between arms cancel."""
        deltas = {}
        for function, control_stats in self.control_profile:
            experiment_stats = self.experiment_profile.function(function)
            if (control_stats.instructions == 0
                    or experiment_stats.instructions == 0):
                continue
            control_cpi = control_stats.cycles / control_stats.instructions
            experiment_cpi = (experiment_stats.cycles
                              / experiment_stats.instructions)
            deltas[function] = experiment_cpi / control_cpi - 1.0
        return deltas

    def function_mpki_deltas(self) -> Dict[str, float]:
        """Per-function fractional MPKI change — the Figure 11 blue bars."""
        deltas = {}
        for function, control_stats in self.control_profile:
            experiment_stats = self.experiment_profile.function(function)
            if control_stats.llc_mpki <= 0:
                continue
            deltas[function] = (experiment_stats.llc_mpki
                                / control_stats.llc_mpki - 1.0)
        return deltas


class AblationStudy(AnalyticFleetStudy):
    """Builds and runs a paired control/experiment fleet comparison.

    Args:
        shard_size: Maximum machines per shard. Populations up to this
            size run as a single sub-fleet (the historical engine);
            larger studies split into balanced shards that can run on
            parallel workers. The shard plan — and therefore the result
            — is independent of the worker count.
        fault_plan: Optional :class:`~repro.faults.plan.FaultPlan` to
            inject; the result then carries a
            :class:`~repro.faults.metrics.ChaosMetrics` aggregate.
            Telemetry and MSR faults act on the daemons, so they need a
            daemon-running mode; ``machine-crash`` works in any mode.
            Pair it with a ``config`` that sets ``retry_policy`` and
            ``telemetry_failsafe_deadline_ns`` to study the hardened
            controller.
        platform: :data:`~repro.fleet.platform.PLATFORM_CATALOG` name of
            every machine's platform (Table 1 compares two). ``None``
            keeps the default platform; it enters cache and shard-task
            keys only when set, so default-platform keys are unchanged.
    """

    STUDY = "ablation"
    from_payload = staticmethod(AblationResult.from_dict)

    def __init__(self, mode: str = "off", machines: int = 30,
                 epochs: int = 100, seed: int = 11,
                 warmup_epochs: int = 20,
                 config: Optional[LimoncelloConfig] = None,
                 profile_sample_rate: float = 0.25,
                 shard_size: int = DEFAULT_SHARD_SIZE,
                 fault_plan: Optional[FaultPlan] = None,
                 platform: Optional[str] = None) -> None:
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        super().__init__(machines, epochs, seed, warmup_epochs, config,
                         profile_sample_rate, shard_size, fault_plan)
        daemon_faults = (list(fault_plan.daemon_kinds)
                         if fault_plan is not None else [])
        if daemon_faults and mode not in DAEMON_MODES:
            # A daemonless arm has no sampler or actuator to fault, so
            # the plan would inject nothing and report a vacuous 100%
            # controller availability.
            raise ConfigError(
                f"fault kinds {daemon_faults} need a daemon-running mode "
                f"('hard' or 'hard+soft'), got {mode!r}")
        self._platform_spec = (platform_by_name(platform)
                               if platform is not None else PLATFORM_1)
        self.mode = mode
        self.platform = platform

    def study_key_material(self) -> Dict:
        """The mode, and the platform only when set, so default-platform
        keys are unchanged."""
        if self.platform is None:
            return {"mode": self.mode}
        return {"mode": self.mode, "platform": self.platform}

    # --- execution -----------------------------------------------------------

    def _build_fleet(self, seed: int, tracer=None) -> Fleet:
        return Fleet(machines=self.machines, platform=self._platform_spec,
                     seed=seed, fault_plan=self.fault_plan,
                     tracer=tracer if tracer else None)

    def _apply_mode(self, fleet: Fleet) -> None:
        if self.mode == "control":
            return
        if self.mode == "off":
            fleet.force_prefetchers(False)
        elif self.mode == "hard":
            fleet.deploy_hard_limoncello(self.config)
        elif self.mode == "hard+soft":
            fleet.deploy_hard_limoncello(self.config)
            fleet.deploy_soft_limoncello()
        elif self.mode == "soft-only":
            fleet.deploy_soft_limoncello()

    def _run_single(self, tracer=None) -> AblationResult:
        """Run the whole population as one fleet (no sharding)."""
        tracer = tracer or NULL_TRACER
        control_fleet = self._build_fleet(self.seed, tracer)
        experiment_fleet = self._build_fleet(self.seed, tracer)
        # Both arms see the same placements and noise: the control arm
        # records its driver, the experiment arm replays it (DESIGN.md
        # §6). The fleets, and with them the tape, go when this returns.
        tape = new_tape()
        if tape is not None:
            control_fleet.use_tape(tape)
            experiment_fleet.use_tape(tape, replay=True)
        self._apply_mode(experiment_fleet)

        control_profiler = FleetProfiler(
            self.profile_sample_rate, rng=random.Random(_PROFILER_SEED))
        experiment_profiler = FleetProfiler(
            self.profile_sample_rate, rng=random.Random(_PROFILER_SEED))

        # Warm both arms past scheduler ramp-up and controller sustain
        # timers before measuring (the paper measures a steady-state
        # fleet; its rollout took weeks). The arm context tags each
        # fleet's daemon events without perturbing execution order.
        if self.warmup_epochs:
            with tracer.context(arm="control"):
                control_fleet.run(self.warmup_epochs)
            with tracer.context(arm="experiment"):
                experiment_fleet.run(self.warmup_epochs)
        with tracer.context(arm="control"):
            control = control_fleet.run(self.epochs,
                                        observers=[control_profiler])
        with tracer.context(arm="experiment"):
            experiment = experiment_fleet.run(
                self.epochs, observers=[experiment_profiler])
        # Chaos metrics describe the controller under fault, so they are
        # collected from the experiment arm (the one running daemons).
        chaos = None
        if self.fault_plan is not None:
            from repro.faults.metrics import collect_chaos_metrics

            chaos = collect_chaos_metrics(experiment_fleet.machines)
        return AblationResult(
            mode=self.mode,
            control=control,
            experiment=experiment,
            control_profile=control_profiler.data,
            experiment_profile=experiment_profiler.data,
            chaos=chaos,
        )
