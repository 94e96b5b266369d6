"""Pluggable prefetcher-control policies (see DESIGN.md §13).

The public surface: the :class:`Policy` protocol, its two threshold
kinds (the paper's hysteresis controller and the single-threshold
straw man), the :class:`PolicyController` daemon adapter, and the
:class:`PolicyMetrics` a policy-driven study reports. Both kinds live
in :mod:`repro.policy.base` next to :func:`policy_from_dict`, which
rebuilds either one from its serialized ``kind``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": (
        "DEFAULT_PREFETCHERS", "POLICY_SCHEMA_VERSION", "HysteresisPolicy",
        "Policy", "PolicyController", "SingleThresholdPolicy",
        "policy_digest", "policy_from_dict", "policy_from_spec",
    ),
    "metrics": ("PolicyMetrics", "collect_policy_metrics"),
})
