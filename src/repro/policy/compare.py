"""Head-to-head policy comparison studies (``repro policy compare``).

Runs N policies over the *same* fleet, traffic, and (optional) fault
plan — each as a ``mode="hard"`` :class:`~repro.fleet.ablation.
AblationStudy` with the policy injected fleet-wide — and reduces the
per-policy :class:`~repro.policy.metrics.PolicyMetrics` and paired
fleet metrics to one plain-data report:

* ``duty_cycle_error`` — band-oracle disagreement rate (the gate
  metric: a trained tree must match or beat the hysteresis baseline);
* ``duty_cycle_disabled`` and ``transitions`` — how aggressively the
  policy toggles;
* ``throughput_gain`` and the p99 latency / mean bandwidth change vs
  the policy-free control arm;
* under a fault plan, a faulted twin reports availability and
  duty-cycle drift (robustness).

Every leg reuses the ablation machinery end-to-end — sharding, result
cache, checkpoints, obs — so the whole report is a pure function of
the comparison parameters, and :func:`comparison_digest` proves
determinism across reruns, worker counts, and engines.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.config import LimoncelloConfig
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.fleet.ablation import AblationStudy
from repro.policy.base import policy_digest, policy_from_spec

#: Report schema; bumped on incompatible changes.
COMPARE_SCHEMA_VERSION = 1


def comparison_digest(report: Dict) -> str:
    """A stable content hash of a comparison report."""
    import hashlib

    from repro.serialization import canonical_json

    return hashlib.sha256(canonical_json(report).encode()).hexdigest()


class PolicyComparison:
    """N policies, one fleet, one report.

    Args:
        policies: Mapping of display name → policy spec (a
            :class:`~repro.policy.base.Policy`, serialized dict, or
            canonical JSON string). Studies run in mapping order; the
            report digest is order-independent (canonical JSON).
        machines / epochs / warmup_epochs / seed / config / shard_size:
            Forwarded to every leg's :class:`AblationStudy`, so all
            policies face identical machine populations and traffic.
        fault_plan: When set, each policy additionally runs a faulted
            twin and reports robustness numbers.
    """

    def __init__(self, policies: Dict[str, object], machines: int = 12,
                 epochs: int = 40, warmup_epochs: int = 10, seed: int = 11,
                 config: Optional[LimoncelloConfig] = None,
                 shard_size: Optional[int] = None,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        if not policies:
            raise ConfigError("compare needs at least one policy")
        # Normalize specs up front so a bad policy fails before any
        # simulation runs.
        self.policies: List[Tuple[str, object]] = [
            (name, policy_from_spec(spec).to_dict())
            for name, spec in policies.items()]
        self.machines = machines
        self.epochs = epochs
        self.warmup_epochs = warmup_epochs
        self.seed = seed
        self.config = config
        self.shard_size = shard_size
        self.fault_plan = fault_plan

    def _study(self, spec: object,
               fault_plan: Optional[FaultPlan]) -> AblationStudy:
        kwargs = dict(mode="hard", machines=self.machines,
                      epochs=self.epochs, warmup_epochs=self.warmup_epochs,
                      seed=self.seed, config=self.config, policy=spec,
                      fault_plan=fault_plan)
        if self.shard_size is not None:
            kwargs["shard_size"] = self.shard_size
        return AblationStudy(**kwargs)

    def run(self, workers: Optional[int] = None,
            cache_dir: Optional[str] = None,
            obs_dir: Optional[str] = None,
            checkpoint_dir: Optional[str] = None) -> Dict:
        """Run every policy leg and build the report dict."""
        entries: Dict[str, Dict] = {}
        for name, spec in self.policies:
            study = self._study(spec, fault_plan=None)
            result = study.run(workers=workers, cache_dir=cache_dir,
                               obs_dir=obs_dir,
                               checkpoint_dir=checkpoint_dir)
            pm = result.policy_metrics
            if pm is None:
                raise ConfigError(
                    f"policy leg {name!r} returned no policy metrics")
            entry = {
                "kind": spec["kind"],
                "policy_digest": policy_digest(spec),
                "samples": pm.samples,
                "duty_cycle_error": pm.duty_cycle_error(),
                "duty_cycle_disabled": pm.duty_cycle_disabled(),
                "transitions": pm.transitions,
                "learn_updates": pm.learn_updates,
                "explorations": pm.explorations,
                "prefetcher_disabled": dict(pm.prefetcher_disabled),
                "throughput_gain": result.throughput_change(),
                "latency_p99_change": result.latency_reduction()["p99"],
                "bandwidth_mean_change": result.bandwidth_reduction()["mean"],
            }
            if self.fault_plan is not None:
                faulted = self._study(spec, fault_plan=self.fault_plan)
                fresult = faulted.run(workers=workers, cache_dir=cache_dir,
                                      obs_dir=obs_dir,
                                      checkpoint_dir=checkpoint_dir)
                fpm = fresult.policy_metrics
                chaos = fresult.chaos
                entry["faulted"] = {
                    "availability": (chaos.availability()
                                     if chaos is not None else 1.0),
                    "duty_cycle_error": (fpm.duty_cycle_error()
                                         if fpm is not None else 0.0),
                    "duty_cycle_disabled": (fpm.duty_cycle_disabled()
                                            if fpm is not None else 0.0),
                    "duty_cycle_drift": abs(
                        (fpm.duty_cycle_disabled() if fpm is not None
                         else 0.0) - pm.duty_cycle_disabled()),
                }
            entries[name] = entry

        ranking = sorted(
            entries,
            key=lambda n: (entries[n]["duty_cycle_error"],
                           -entries[n]["throughput_gain"], n))
        report = {
            "schema": COMPARE_SCHEMA_VERSION,
            "study": "policy-compare",
            "machines": self.machines,
            "epochs": self.epochs,
            "warmup_epochs": self.warmup_epochs,
            "seed": self.seed,
            "policies": entries,
            "ranking": ranking,
        }
        if self.fault_plan is not None:
            report["fault_plan"] = self.fault_plan.spec()
        return report
