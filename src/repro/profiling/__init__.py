"""Fleetwide profiling — the measurement plane of the ablation studies.

Models the Google-Wide-Profiler-style tool of Section 4.1: it samples "a
limited number of random machines at any given time [...] activated only
for small time intervals", collecting per-function CPU cycles and LLC
misses. Aggregated over enough machine-epochs, the samples expose the
per-function impact of prefetcher configuration changes.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "profile_data": ("ProfileData",),
    "profiler": ("FleetProfiler",),
})
