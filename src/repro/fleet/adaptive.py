"""Adaptive early stopping for multi-arm ablation studies.

An exhaustive ablation runs every arm (prefetcher mode) over its full
machine budget even when the arms' effects separated long before the
budget was spent. This module schedules the arms through the
checkpointed work queue in fixed *rounds* — each round computes the
same quantum of shards for every still-active arm — and after each
round computes a per-arm confidence interval over a per-shard scalar
metric (default: the shard's fleet throughput change). An arm stops
scheduling new shards once its interval has separated from *every*
other arm's by more than a configurable margin; the remaining budget is
simply never spent.

Determinism is the design constraint, not an afterthought:

* The round schedule is a pure function of the shard count and the
  quantum (:func:`~repro.fleet.shard.plan_rounds`) — never of timing,
  worker count, or completion order.
* Per-shard metrics come from shard results that are themselves pure
  functions of the study parameters, and every interval and stopping
  decision is arithmetic over those metrics in fixed arm order.

So two runs with the same seed and knobs stop the same arms at the same
rounds and produce identical verdicts — which is what lets a benchmark
assert "adaptive reproduces the exhaustive ranking with fewer
machine-runs" as a hard gate rather than a statistical hope.

Statistical caveat (documented in ``docs/USAGE.md``): the intervals are
normal-approximation CIs over per-shard means, so early stopping is
trustworthy only when arms are genuinely separable at shard
granularity and shard count is not tiny; the margin should be chosen
larger than the effect resolution you care about. Adaptive mode is
off by default everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import LimoncelloConfig
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.fleet.ablation import (
    MODES,
    AblationResult,
    AblationStudy,
    run_ablation_shard,
)
from repro.fleet.parallel import resolve_workers
from repro.fleet.shard import plan_rounds
from repro.fleet.study import shard_from_payload, shard_payload

#: Two-sided 95% normal quantile — the fixed confidence level for arm
#: intervals (configurability here would just be another way to p-hack
#: a study).
Z_95 = 1.959963984540054

#: Default separation margin on the per-shard metric (fractional
#: throughput change): arms whose means differ by less than this are
#: treated as "the same verdict" and never separate.
DEFAULT_MARGIN = 0.02

#: Default shards per arm per round.
DEFAULT_QUANTUM = 1

#: Rounds every arm must complete before any stopping decision — below
#: two rounds at quantum 1 an arm cannot even have a finite interval.
DEFAULT_MIN_ROUNDS = 2


def default_metric(result: AblationResult) -> float:
    """The per-shard scalar the intervals summarize: the shard's
    fractional fleet throughput change, experiment vs. control."""
    return result.throughput_change()


def arm_interval(values: Sequence[float],
                 z: float = Z_95) -> Tuple[float, float]:
    """``(mean, halfwidth)`` of a normal-approximation CI over
    ``values``.

    With fewer than two samples the halfwidth is infinite — an arm with
    one shard has no variance estimate and must never separate.
    """
    n = len(values)
    if n == 0:
        return 0.0, math.inf
    mean = sum(values) / n
    if n < 2:
        return mean, math.inf
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, z * math.sqrt(variance / n)


def arms_separated(a: Tuple[float, float], b: Tuple[float, float],
                   margin: float) -> bool:
    """Whether two ``(mean, halfwidth)`` intervals are decisively apart:
    the means differ by more than the margin plus both halfwidths."""
    mean_a, hw_a = a
    mean_b, hw_b = b
    if math.isinf(hw_a) or math.isinf(hw_b):
        return False
    return abs(mean_a - mean_b) > margin + hw_a + hw_b


@dataclass
class ArmState:
    """One arm's progress through an adaptive study."""

    mode: str
    shards_total: int
    metrics: List[float] = field(default_factory=list)
    shards_run: int = 0
    machine_runs: int = 0
    #: Round index at which the arm stopped early, or ``None`` if it ran
    #: its full budget.
    stopped_round: Optional[int] = None

    def interval(self) -> Tuple[float, float]:
        """Current ``(mean, halfwidth)`` over the arm's shard metrics."""
        return arm_interval(self.metrics)


@dataclass
class AdaptiveResult:
    """Outcome of one adaptive multi-arm ablation.

    ``results`` holds each arm's merged :class:`AblationResult` over the
    shards it actually ran — *partial* for early-stopped arms, which is
    the whole point; use the exhaustive study when you need the full
    population.
    """

    modes: Tuple[str, ...]
    arms: Dict[str, ArmState]
    results: Dict[str, AblationResult]
    rounds_run: int
    rounds_total: int
    margin: float
    quantum: int
    min_rounds: int
    #: Machine population per arm (every arm covers the same
    #: population, so the exhaustive per-arm budget is this count).
    machines_per_arm: int = 0

    def machine_runs(self) -> int:
        """Machine-runs actually scheduled, all arms."""
        return sum(arm.machine_runs for arm in self.arms.values())

    def exhaustive_machine_runs(self) -> int:
        """Machine-runs the exhaustive study would have scheduled."""
        return len(self.modes) * self.machines_per_arm

    def savings(self) -> float:
        """Exhaustive machine-runs over actual: >= 1.0; 2.0 means the
        adaptive run cost half the exhaustive budget."""
        actual = self.machine_runs()
        if actual <= 0:
            return 1.0
        return self.exhaustive_machine_runs() / actual

    def ranking(self) -> List[str]:
        """Arms ordered best-to-worst by mean metric (ties keep the
        study's fixed arm order, so the ranking is deterministic)."""
        order = {mode: index for index, mode in enumerate(self.modes)}
        return sorted(
            self.modes,
            key=lambda mode: (-self.arms[mode].interval()[0], order[mode]))

    def verdicts(self) -> Dict[str, Dict]:
        """Per-arm summary: metric mean/halfwidth, shards run vs.
        budget, machine-runs, and the stopping round (if any)."""
        out: Dict[str, Dict] = {}
        for mode in self.modes:
            arm = self.arms[mode]
            mean, halfwidth = arm.interval()
            out[mode] = {
                "mean": mean,
                "halfwidth": halfwidth if math.isfinite(halfwidth) else None,
                "shards_run": arm.shards_run,
                "shards_total": arm.shards_total,
                "machine_runs": arm.machine_runs,
                "stopped_round": arm.stopped_round,
            }
        return out

    def to_dict(self) -> Dict:
        """Plain-data summary for the CLI and benchmarks."""
        return {
            "modes": list(self.modes),
            "ranking": self.ranking(),
            "verdicts": self.verdicts(),
            "rounds_run": self.rounds_run,
            "rounds_total": self.rounds_total,
            "machine_runs": self.machine_runs(),
            "exhaustive_machine_runs": self.exhaustive_machine_runs(),
            "savings": self.savings(),
            "margin": self.margin,
            "quantum": self.quantum,
            "min_rounds": self.min_rounds,
        }


class AdaptiveAblation:
    """Runs several ablation arms with CI-based early stopping.

    Args:
        modes: Experiment arms to compare (default: every mode in
            :data:`~repro.fleet.ablation.MODES`). Order is fixed and
            part of the determinism contract.
        margin: Separation margin on the per-shard metric; an arm stops
            once its CI is more than this far from every other arm's.
        quantum: Shards each active arm computes per round.
        min_rounds: Rounds every arm completes before any stopping
            decision is allowed.
        metric: Per-shard scalar the intervals summarize (default
            :func:`default_metric`). Must be a pure function of the
            shard result.

    The remaining arguments mirror :class:`AblationStudy`.
    """

    def __init__(self, modes: Optional[Sequence[str]] = None,
                 machines: int = 30, epochs: int = 100, seed: int = 11,
                 warmup_epochs: int = 20,
                 config: Optional[LimoncelloConfig] = None,
                 profile_sample_rate: float = 0.25,
                 shard_size: Optional[int] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 margin: float = DEFAULT_MARGIN,
                 quantum: int = DEFAULT_QUANTUM,
                 min_rounds: int = DEFAULT_MIN_ROUNDS,
                 metric: Optional[Callable[[AblationResult], float]] = None
                 ) -> None:
        modes = tuple(modes) if modes is not None else MODES
        if len(modes) < 2:
            raise ConfigError(
                f"adaptive sampling needs at least two arms, got {modes!r}")
        if len(set(modes)) != len(modes):
            raise ConfigError(f"duplicate arms in {modes!r}")
        for mode in modes:
            if mode not in MODES:
                raise ConfigError(
                    f"mode must be one of {MODES}, got {mode!r}")
        if margin < 0:
            raise ConfigError(f"margin cannot be negative, got {margin}")
        if quantum <= 0:
            raise ConfigError(f"quantum must be positive, got {quantum}")
        if min_rounds < 2:
            raise ConfigError(
                f"min_rounds must be at least 2, got {min_rounds}")
        self.modes = modes
        self.margin = margin
        self.quantum = quantum
        self.min_rounds = min_rounds
        self.metric = metric or default_metric
        self.machines = machines
        self.seed = seed
        kwargs = dict(machines=machines, epochs=epochs, seed=seed,
                      warmup_epochs=warmup_epochs, config=config,
                      profile_sample_rate=profile_sample_rate,
                      fault_plan=fault_plan)
        if shard_size is not None:
            kwargs["shard_size"] = shard_size
        self.studies: Dict[str, AblationStudy] = {
            mode: AblationStudy(mode=mode, **kwargs) for mode in modes}
        #: Aggregate work-queue disposition of the last :meth:`run` (a
        #: plain dict), or ``None``.
        self.queue_stats = None

    def run_material(self) -> Dict:
        """Everything the adaptive run's decisions depend on (the obs
        manifest ``run`` block)."""
        first = self.studies[self.modes[0]]
        return {
            "study": "adaptive-ablation",
            "modes": list(self.modes),
            "margin": self.margin,
            "quantum": self.quantum,
            "min_rounds": self.min_rounds,
            "arm": first.cache_key_material(),
        }

    def run(self, workers: Optional[int] = None,
            checkpoint_dir: Optional[str] = None,
            obs_dir: Optional[str] = None) -> AdaptiveResult:
        """Run the arms round by round with early stopping.

        Shards execute through the checkpointed work queue when a
        ``checkpoint_dir`` (or ``$REPRO_CHECKPOINT``) is configured, so
        an interrupted adaptive study resumes like any other — and
        because stopping decisions are pure functions of the shard
        results, the resumed run stops the same arms at the same rounds.
        """
        from repro.fleet.queue import run_checkpointed, shard_checkpoint
        from repro.obs.session import ObsSession, resolve_obs_dir
        from repro.serialization import ablation_result_from_dict

        workers = resolve_workers(workers)
        checkpoint = shard_checkpoint(checkpoint_dir)
        obs_dir = resolve_obs_dir(obs_dir)
        session = (ObsSession(obs_dir, "adaptive-ablation", workers=workers)
                   if obs_dir is not None else None)
        if session is not None:
            session.event("study-start", study="adaptive-ablation")

        specs = {mode: self.studies[mode].shard_specs()
                 for mode in self.modes}
        materials = {mode: self.studies[mode].shard_task_materials()
                     for mode in self.modes}
        shard_count = len(specs[self.modes[0]])
        rounds = plan_rounds(shard_count, self.quantum)
        arms = {mode: ArmState(mode=mode, shards_total=shard_count)
                for mode in self.modes}
        shard_results: Dict[str, List[AblationResult]] = {
            mode: [] for mode in self.modes}
        active = list(self.modes)
        totals = {"total": 0, "restored": 0, "computed": 0, "journaled": 0}
        rounds_run = 0

        for round_index, (start, stop) in enumerate(rounds):
            if not active:
                break
            rounds_run = round_index + 1
            for mode in active:
                outputs, stats = run_checkpointed(
                    run_ablation_shard, specs[mode][start:stop],
                    materials[mode][start:stop], workers,
                    checkpoint=checkpoint, to_payload=shard_payload,
                    from_payload=shard_from_payload(
                        ablation_result_from_dict))
                arm = arms[mode]
                # The arms' shard events stay out of the adaptive log.
                for spec, (result, _, _) in zip(specs[mode][start:stop],
                                                outputs):
                    shard_results[mode].append(result)
                    arm.metrics.append(self.metric(result))
                    arm.shards_run += 1
                    arm.machine_runs += spec.machines
                for name in totals:
                    totals[name] += getattr(stats, name)
            if session is not None:
                session.event("adaptive-round", round=round_index,
                              active=list(active))
            if round_index + 1 < self.min_rounds:
                continue
            intervals = {mode: arms[mode].interval()
                         for mode in self.modes}
            still_active = []
            for mode in active:
                separated = all(
                    arms_separated(intervals[mode], intervals[other],
                                   self.margin)
                    for other in self.modes if other != mode)
                if separated:
                    arms[mode].stopped_round = round_index
                    if session is not None:
                        session.event("arm-early-stop", arm=mode,
                                      round=round_index)
                else:
                    still_active.append(mode)
            active = still_active

        merged = {}
        for mode in self.modes:
            parts = shard_results[mode]
            result = parts[0]
            for part in parts[1:]:
                result.merge(part)
            merged[mode] = result

        self.queue_stats = dict(totals)
        outcome = AdaptiveResult(
            modes=self.modes, arms=arms, results=merged,
            rounds_run=rounds_run, rounds_total=len(rounds),
            margin=self.margin, quantum=self.quantum,
            min_rounds=self.min_rounds, machines_per_arm=self.machines)
        if session is not None:
            session.event("study-finish", study="adaptive-ablation")
            plan = self.studies[self.modes[0]].shard_plan()
            session.finalize(self.run_material(),
                             shard_seeds=plan.seeds(self.seed))
        return outcome
