"""The chaos study: the Hard Limoncello control loop under injected faults.

The paper's evaluation is about steady-state wins; this study is about
the operational claim underneath them — that a controller flipping
prefetcher state fleetwide can be trusted while telemetry drops out, MSR
writes fail, and machines reboot. A :class:`ChaosStudy` runs a paired
ablation under a :class:`~repro.faults.plan.FaultPlan` and reports, next
to the usual bandwidth/throughput deltas:

* **availability** — fraction of scheduled control ticks where the
  controller had live, usable telemetry;
* **duty-cycle error** — how far the prefetchers-disabled duty cycle
  drifted from a fault-free run of the same study (the faults should
  degrade observability, not flip policy);
* **MTTR** — mean time from detecting an incident to recovering from it.

Everything shards and merges exactly like the underlying ablation: the
same plan at any worker count produces a bit-identical result, which is
what :func:`result_digest` exists to check.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

from repro.core.config import LimoncelloConfig, RetryPolicy
from repro.faults.metrics import ChaosMetrics
from repro.faults.plan import FaultPlan
from repro.fleet.ablation import AblationResult, AblationStudy
from repro.serialization import ablation_result_to_dict
from repro.units import SECOND


def chaos_default_config(epoch_ns: float = 10 * SECOND) -> LimoncelloConfig:
    """The hardened daemon configuration chaos studies run with.

    Unlike the legacy default (retry every tick forever, no fail-safe),
    this bounds actuation retries with exponential backoff and engages
    the telemetry fail-safe after three dark sampling periods — the
    configuration the fault-model docs describe.
    """
    return LimoncelloConfig(
        sample_period_ns=epoch_ns,
        sustain_duration_ns=3 * epoch_ns,
        retry_policy=RetryPolicy.exponential(
            max_attempts=6, initial_backoff_ns=epoch_ns),
        telemetry_failsafe_deadline_ns=3 * epoch_ns,
    )


@dataclass
class ChaosOutcome:
    """A chaos study's verdict: the faulted run, its fault-free twin,
    and the robustness numbers derived from comparing them."""

    plan: FaultPlan
    faulted: AblationResult
    baseline: AblationResult

    @property
    def chaos(self) -> ChaosMetrics:
        """The faulted run's chaos aggregate (always present)."""
        assert self.faulted.chaos is not None
        return self.faulted.chaos

    def availability(self) -> float:
        """Controller availability under the fault plan."""
        return self.chaos.availability()

    def mean_time_to_recovery_ns(self) -> Optional[float]:
        """Mean incident recovery time, or ``None`` if nothing recovered."""
        return self.chaos.mean_time_to_recovery_ns()

    def duty_cycle_error(self) -> float:
        """Absolute drift of the prefetchers-disabled duty cycle from
        the fault-free twin study.

        The fault-free duty cycle comes from the baseline's per-sample
        prefetcher-state series (aggregated fleetwide in its experiment
        arm); a robust controller keeps the error small because faults
        cost it observability, not policy.
        """
        return abs(self.chaos.duty_cycle_disabled()
                   - self._baseline_duty_cycle())

    def throughput_change(self) -> float:
        """Faulted-run fractional throughput change vs its own control
        arm (the usual ablation metric, under fault)."""
        return self.faulted.throughput_change()

    def _baseline_duty_cycle(self) -> float:
        # The twin runs under an inert (rate-zero) plan precisely so it
        # still carries a ChaosMetrics aggregate to read this from; a
        # hand-built outcome without one compares against 0.0.
        baseline_chaos = self.baseline.chaos
        if baseline_chaos is None:
            return 0.0
        return baseline_chaos.duty_cycle_disabled()


class ChaosStudy:
    """A paired chaos experiment: one ablation under a fault plan, one
    fault-free twin, same seed and population.

    Args:
        plan: The fault plan to inject.
        mode: Experiment-arm deployment (default ``"hard"`` — chaos is
            about the controller, so the arm must run daemons).
        config: Daemon configuration; defaults to
            :func:`chaos_default_config` (hardened retries + fail-safe).
        Everything else matches :class:`AblationStudy`.
    """

    def __init__(self, plan: FaultPlan, mode: str = "hard",
                 machines: int = 30, epochs: int = 100, seed: int = 11,
                 warmup_epochs: int = 20,
                 config: Optional[LimoncelloConfig] = None,
                 profile_sample_rate: float = 0.25,
                 shard_size: Optional[int] = None,
                 epoch_ns: float = 10 * SECOND) -> None:
        self.plan = plan
        self.config = config or chaos_default_config(epoch_ns)
        kwargs = dict(mode=mode, machines=machines, epochs=epochs,
                      seed=seed, warmup_epochs=warmup_epochs,
                      config=self.config,
                      profile_sample_rate=profile_sample_rate)
        if shard_size is not None:
            kwargs["shard_size"] = shard_size
        self._faulted = AblationStudy(fault_plan=plan, **kwargs)
        # The twin injects nothing (a rate-zero drop clause draws no
        # randomness and forwards every sample untouched) but still runs
        # "under a plan", so it collects the ChaosMetrics the duty-cycle
        # comparison needs.
        self._baseline = AblationStudy(
            fault_plan=FaultPlan.parse("telemetry-drop:rate=0",
                                       seed=plan.seed), **kwargs)

    def run(self, workers: Optional[int] = None,
            cache_dir: Optional[str] = None,
            obs_dir: Optional[str] = None,
            checkpoint_dir: Optional[str] = None) -> ChaosOutcome:
        """Run both the faulted study and its fault-free twin.

        ``workers``, ``cache_dir`` and ``checkpoint_dir`` reach both
        legs. ``obs_dir`` (or ``$REPRO_OBS_DIR``) traces the *faulted*
        study — the run whose incidents and fail-safe engagements the
        report renders; the inert twin stays untraced. ``""`` traces
        neither.
        """
        faulted = self._faulted.run(workers=workers, cache_dir=cache_dir,
                                    obs_dir=obs_dir,
                                    checkpoint_dir=checkpoint_dir)
        baseline = self._baseline.run(workers=workers, cache_dir=cache_dir,
                                      obs_dir="",
                                      checkpoint_dir=checkpoint_dir)
        return ChaosOutcome(plan=self.plan, faulted=faulted,
                            baseline=baseline)


def result_digest(result: AblationResult) -> str:
    """A stable content hash of an ablation result.

    Serializes losslessly (raw samples included) with sorted keys and
    hashes the canonical JSON — two results digest equal iff every
    sample, profile, and chaos counter matches bit-for-bit. The CLI's
    ``--compare-serial`` and the CI chaos-smoke job use this to prove
    serial/parallel equivalence.
    """
    payload = json.dumps(ablation_result_to_dict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
