"""Aggregated per-policy decision metrics for policy-driven studies.

A fleet running a :class:`~repro.policy.base.PolicyController` on every
socket accumulates per-sample decision statistics. :class:`PolicyMetrics`
reduces them — duty cycle, band-oracle mismatches, per-prefetcher
disable counts — to the numbers a policy-injected
:class:`~repro.fleet.ablation.AblationStudy` carries in its result.

Like :class:`~repro.faults.metrics.ChaosMetrics`, every field is a plain
additive accumulator, so :meth:`PolicyMetrics.merge` is associative and
order-independent — merged shard metrics are bit-identical at any worker
count or engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class PolicyMetrics:
    """What a policy study observed across every controller in a fleet."""

    #: Telemetry samples the policy decided on.
    samples: int = 0
    #: Samples with socket-level prefetchers disabled (all prefetchers off).
    disabled_samples: int = 0
    #: Samples where the decision disagreed with the threshold-band
    #: oracle: prefetchers on while utilization sat above the upper
    #: threshold, or off while it sat below the lower threshold.
    #: In-band samples can never mismatch.
    band_mismatches: int = 0
    #: Samples that were outside the threshold band (the denominator
    #: band_mismatches is judged against).
    band_samples: int = 0
    #: Socket-level prefetcher state flips.
    transitions: int = 0
    #: Per-prefetcher disabled-sample counts, keyed by prefetcher name.
    prefetcher_disabled: Dict[str, int] = field(default_factory=dict)

    # --- combination ----------------------------------------------------------

    def merge(self, other: "PolicyMetrics") -> "PolicyMetrics":
        """Fold another shard's policy metrics into this one (in place).

        Pure addition on every field — associative and commutative, so
        merged shard metrics are independent of merge order. Returns
        ``self`` for chaining.
        """
        self.samples += other.samples
        self.disabled_samples += other.disabled_samples
        self.band_mismatches += other.band_mismatches
        self.band_samples += other.band_samples
        self.transitions += other.transitions
        for name, count in other.prefetcher_disabled.items():
            self.prefetcher_disabled[name] = (
                self.prefetcher_disabled.get(name, 0) + count)
        return self

    # --- views ---------------------------------------------------------------

    def duty_cycle_disabled(self) -> float:
        """Fraction of decided samples with prefetchers disabled."""
        if self.samples == 0:
            return 0.0
        return self.disabled_samples / self.samples

    def duty_cycle_error(self) -> float:
        """Fraction of out-of-band samples where the decision disagreed
        with the threshold-band oracle (lower is better; the hysteresis
        controller errs exactly while its sustain timers run)."""
        if self.band_samples == 0:
            return 0.0
        return self.band_mismatches / self.band_samples


def collect_policy_metrics(machines) -> PolicyMetrics:
    """Reduce a fleet's policy controllers to one :class:`PolicyMetrics`.

    Walks machines → daemons → controllers and folds in every controller
    exposing a ``policy_metrics`` attribute (i.e. every
    :class:`~repro.policy.base.PolicyController`). Iteration order is
    fleet order; since every field is additive the result is independent
    of that order anyway.
    """
    metrics = PolicyMetrics()
    for machine in machines:
        for daemon in getattr(machine, "daemons", []):
            controller = getattr(daemon, "controller", None)
            found = getattr(controller, "policy_metrics", None)
            if found is not None:
                metrics.merge(found)
    return metrics
