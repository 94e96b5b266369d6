"""A stub :class:`PolicyMetrics`: its fields and its merge, nothing more.

No code in ``repro`` builds one. It stays because
``benchmarks/e2e/spans.py::_MERGES`` probes
``repro.policy.metrics:PolicyMetrics.merge``, and the harness tests
(``pytest benchmarks/e2e``) fail when a probe target stops resolving.
The next change to the benchmark drops that probe, and this package
with it (ROADMAP, "One controller surface").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class PolicyMetrics:
    """Per-sample decision counts of a prefetcher controller."""

    #: Telemetry samples decided on.
    samples: int = 0
    #: Samples with socket-level prefetchers disabled.
    disabled_samples: int = 0
    #: Out-of-band samples whose decision disagreed with the
    #: threshold-band oracle.
    band_mismatches: int = 0
    #: Samples outside the threshold band.
    band_samples: int = 0
    #: Socket-level prefetcher state flips.
    transitions: int = 0
    #: Per-prefetcher disabled-sample counts, keyed by prefetcher name.
    prefetcher_disabled: Dict[str, int] = field(default_factory=dict)

    def merge(self, other: "PolicyMetrics") -> "PolicyMetrics":
        """Fold another set of counts into this one (in place).

        Pure addition on every field, so the result is independent of
        merge order. Returns ``self`` for chaining.
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
