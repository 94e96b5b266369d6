"""A stub kept for one benchmark probe (see DESIGN.md §13).

Controllers reach the daemon through
``deploy_hard_limoncello(config, controller_factory)``; this package
holds no policy. It keeps only :class:`PolicyMetrics` because the
end-to-end benchmark's span probes name
``repro.policy.metrics:PolicyMetrics.merge``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "metrics": ("PolicyMetrics",),
})
