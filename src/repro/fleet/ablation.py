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

import json
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.config import LimoncelloConfig, RetryPolicy
from repro.errors import ConfigError
from repro.faults.metrics import ChaosMetrics, collect_chaos_metrics
from repro.faults.plan import FaultPlan
from repro.fleet.cluster import Fleet, FleetMetrics
from repro.fleet.platform import PLATFORM_1, platform_by_name
from repro.fleet.shard import DEFAULT_SHARD_SIZE
from repro.fleet.study import FleetStudy, run_study, run_traced
from repro.obs.tracer import NULL_TRACER
from repro.profiling.profiler import FleetProfiler
from repro.profiling.profile_data import ProfileData
from repro.serialization import canonical_json

if TYPE_CHECKING:
    from repro.policy.metrics import PolicyMetrics

#: Experiment-arm configurations.
MODES = ("off", "hard", "hard+soft", "soft-only", "control")

#: Seed for the (per-shard) profilers' own random stream. Fixed rather
#: than derived so a one-shard study reproduces the historical engine
#: exactly; shards differ through their machine populations.
_PROFILER_SEED = 71


def _config_key_material(config: Optional[LimoncelloConfig]):
    """A config's contribution to a study cache key.

    The hardening knobs (retry policy, fail-safe deadline) are included
    only when they differ from the legacy defaults, so keys — and cached
    results — for pre-hardening configurations are unchanged.
    """
    if config is None:
        return None
    material = {
        "lower_threshold": config.lower_threshold,
        "upper_threshold": config.upper_threshold,
        "sustain_duration_ns": config.sustain_duration_ns,
        "sample_period_ns": config.sample_period_ns,
        "actuation_retries": config.actuation_retries,
    }
    policy = config.retry_policy
    if policy != RetryPolicy():
        material["retry_policy"] = {
            "max_attempts": policy.max_attempts,
            "initial_backoff_ns": policy.initial_backoff_ns,
            "backoff_multiplier": policy.backoff_multiplier,
            "max_backoff_ns": policy.max_backoff_ns,
        }
    if config.telemetry_failsafe_deadline_ns is not None:
        material["telemetry_failsafe_deadline_ns"] = \
            config.telemetry_failsafe_deadline_ns
    return material


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
    #: Per-policy decision aggregate for the experiment arm; ``None``
    #: unless the study ran with an injected control policy.
    policy_metrics: Optional["PolicyMetrics"] = None

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
                self.chaos = ChaosMetrics()
            self.chaos.merge(other.chaos)
        if other.policy_metrics is not None:
            if self.policy_metrics is None:
                from repro.policy.metrics import PolicyMetrics
                self.policy_metrics = PolicyMetrics()
            self.policy_metrics.merge(other.policy_metrics)
        return self

    def to_dict(self) -> Dict:
        """Lossless plain-data form (cache and journal payloads)."""
        from repro.serialization import ablation_result_to_dict

        return ablation_result_to_dict(self)

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


@dataclass(frozen=True)
class AblationShardSpec:
    """One shard's worth of an ablation study — plain data, picklable,
    so it can cross a process boundary to a pool worker."""

    mode: str
    machines: int
    epochs: int
    warmup_epochs: int
    seed: int
    config: Optional[LimoncelloConfig]
    profile_sample_rate: float
    fault_plan: Optional[FaultPlan] = None
    #: Position in the shard plan; carried so the worker can stamp its
    #: events without the parent re-deriving the mapping.
    shard_index: int = 0
    #: Canonical JSON of the injected control policy, or ``None`` for
    #: the stock hysteresis deployment. A string (not a Policy object)
    #: so the spec stays hashable and picklable across pool workers.
    policy_json: Optional[str] = None
    #: :data:`~repro.fleet.platform.PLATFORM_CATALOG` name of every
    #: machine's platform, or ``None`` for the default platform.
    platform: Optional[str] = None


def run_ablation_shard(
        spec: AblationShardSpec) -> Tuple[AblationResult, List[Dict], float]:
    """Run one shard (both arms) to completion under an in-process
    tracer; returns ``(result, events, wall_seconds)``. Pure function of
    the spec — the process-pool worker entry point."""
    study = AblationStudy(
        mode=spec.mode, machines=spec.machines, epochs=spec.epochs,
        warmup_epochs=spec.warmup_epochs, seed=spec.seed,
        config=spec.config, profile_sample_rate=spec.profile_sample_rate,
        fault_plan=spec.fault_plan, policy=spec.policy_json,
        platform=spec.platform)
    return run_traced(study, spec)


class AblationStudy(FleetStudy):
    """Builds and runs a paired control/experiment fleet comparison.

    Args:
        shard_size: Maximum machines per shard. Populations up to this
            size run as a single sub-fleet (the historical engine);
            larger studies split into balanced shards that can run on
            parallel workers. The shard plan — and therefore the result
            — is independent of the worker count.
        policy: Optional control policy for the experiment arm's
            daemons — a :class:`~repro.policy.Policy`, its serialized
            dict, or canonical JSON. Requires a daemon-running mode
            (``hard``/``hard+soft``). Enters cache and shard-task keys
            only when set, so policy-free study keys are unchanged.
        platform: :data:`~repro.fleet.platform.PLATFORM_CATALOG` name of
            every machine's platform (Table 1 compares two). ``None``
            keeps the default platform; like the policy, it enters cache
            and shard-task keys only when set.
    """

    STUDY = "ablation"

    def __init__(self, mode: str = "off", machines: int = 30,
                 epochs: int = 100, seed: int = 11,
                 warmup_epochs: int = 20,
                 config: Optional[LimoncelloConfig] = None,
                 profile_sample_rate: float = 0.25,
                 shard_size: int = DEFAULT_SHARD_SIZE,
                 fault_plan: Optional[FaultPlan] = None,
                 policy=None, platform: Optional[str] = None) -> None:
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        if epochs <= 0:
            raise ConfigError("epochs must be positive")
        if warmup_epochs < 0:
            raise ConfigError("warmup cannot be negative")
        if shard_size <= 0:
            raise ConfigError("shard size must be positive")
        self._platform_spec = (platform_by_name(platform)
                               if platform is not None else PLATFORM_1)
        self.policy_json: Optional[str] = None
        if policy is not None:
            if mode not in ("hard", "hard+soft"):
                raise ConfigError(
                    "a control policy needs a daemon-running mode "
                    f"('hard' or 'hard+soft'), got {mode!r}")
            from repro.policy import policy_from_spec
            self.policy_json = canonical_json(
                policy_from_spec(policy).to_dict())
        self.mode = mode
        self.machines = machines
        self.epochs = epochs
        self.warmup_epochs = warmup_epochs
        self.seed = seed
        self.config = config
        self.shard_size = shard_size
        self.fault_plan = fault_plan
        self.platform = platform
        self._sample_rate = profile_sample_rate
        #: Work-queue disposition of the last :meth:`run` (a
        #: :class:`~repro.fleet.queue.QueueStats`), or ``None``.
        self.queue_stats = None

    # --- sharding -----------------------------------------------------------

    def shard_specs(self) -> List[AblationShardSpec]:
        """Per-shard specs (plan order), ready for any worker."""
        plan = self.shard_plan()
        return [
            AblationShardSpec(
                mode=self.mode, machines=size, epochs=self.epochs,
                warmup_epochs=self.warmup_epochs, seed=seed,
                config=self.config,
                profile_sample_rate=self._sample_rate,
                fault_plan=self.fault_plan, shard_index=index,
                policy_json=self.policy_json, platform=self.platform)
            for index, (size, seed)
            in enumerate(zip(plan.sizes, plan.seeds(self.seed)))
        ]

    def cache_key_material(self) -> Dict:
        """Everything the study's result depends on, as plain data.

        Deliberately excludes the worker count (results are identical at
        any parallelism) and includes the shard size (the plan shapes the
        machine populations). Fault plans and the hardening knobs enter
        the key only when set, so fault-free study keys — and their
        cached results — are unchanged from earlier revisions.
        """
        config = self.config
        material = {
            "study": "ablation",
            "mode": self.mode,
            "machines": self.machines,
            "epochs": self.epochs,
            "warmup_epochs": self.warmup_epochs,
            "seed": self.seed,
            "shard_size": self.shard_size,
            "profile_sample_rate": self._sample_rate,
            "config": _config_key_material(self.config),
        }
        if self.fault_plan is not None:
            material["fault_plan"] = self.fault_plan.to_key_material()
        if self.policy_json is not None:
            material["policy"] = json.loads(self.policy_json)
        if self.platform is not None:
            material["platform"] = self.platform
        return material

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
            self._deploy_controller(fleet)
        elif self.mode == "hard+soft":
            self._deploy_controller(fleet)
            fleet.deploy_soft_limoncello()
        elif self.mode == "soft-only":
            fleet.deploy_soft_limoncello()

    def _deploy_controller(self, fleet: Fleet) -> None:
        """The experiment arm's control plane: the injected policy when
        one is set, the stock hysteresis daemons otherwise."""
        if self.policy_json is not None:
            fleet.deploy_policy(self.policy_json, self.config)
        else:
            fleet.deploy_hard_limoncello(self.config)

    def _run_single(self, tracer=None) -> AblationResult:
        """Run the whole population as one fleet (no sharding)."""
        tracer = tracer or NULL_TRACER
        control_fleet = self._build_fleet(self.seed, tracer)
        experiment_fleet = self._build_fleet(self.seed, tracer)
        self._apply_mode(experiment_fleet)

        control_profiler = FleetProfiler(
            self._sample_rate, rng=random.Random(_PROFILER_SEED))
        experiment_profiler = FleetProfiler(
            self._sample_rate, rng=random.Random(_PROFILER_SEED))

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
        chaos = (collect_chaos_metrics(experiment_fleet.machines)
                 if self.fault_plan is not None else None)
        if self.policy_json is not None:
            from repro.policy.metrics import collect_policy_metrics
            policy_metrics = collect_policy_metrics(experiment_fleet.machines)
        else:
            policy_metrics = None
        return AblationResult(
            mode=self.mode,
            control=control,
            experiment=experiment,
            control_profile=control_profiler.data,
            experiment_profile=experiment_profiler.data,
            chaos=chaos,
            policy_metrics=policy_metrics,
        )

    def run(self, workers: Optional[int] = None,
            cache_dir: Optional[str] = None,
            obs_dir: Optional[str] = None,
            checkpoint_dir: Optional[str] = None,
            resume: bool = True) -> AblationResult:
        """Run both arms and collect the paired result.

        The arguments follow :func:`~repro.fleet.study.run_study`: the
        result is identical at any worker count, a cache hit skips the
        computation, journaled shards restore on a re-run, and an obs
        run's event log is byte-identical at any worker count.

        After the call, :attr:`queue_stats` holds the work-queue
        disposition (``None`` on a whole-study cache hit).
        """
        from repro.serialization import ablation_result_from_dict

        result, self.queue_stats = run_study(
            self, run_ablation_shard, ablation_result_from_dict,
            workers=workers, cache_dir=cache_dir,
            checkpoint_dir=checkpoint_dir, resume=resume, obs_dir=obs_dir)
        return result
