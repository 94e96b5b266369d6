"""Soft Limoncello: targeted software prefetching (Section 4).

The workflow mirrors the paper's:

1. :func:`identify_targets` ranks functions by how much they regress
   (cycles and LLC MPKI) when hardware prefetchers are ablated —
   surfacing the data center tax functions of Figure 11.
2. :class:`PrefetchDescriptor` captures a prefetch insertion's design
   point: distance, degree, and a call-size gate (Section 4.2/4.3).
3. :class:`SoftwarePrefetchInjector` rewrites traces, inserting prefetch
   records into the targeted functions' streams — the stand-in for
   editing the library source.
4. :class:`PrefetchTuner` sweeps distances and degrees on
   microbenchmarks and validates winners on load tests (Figure 15).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "descriptor": ("PrefetchDescriptor",),
    "injector": ("SoftwarePrefetchInjector",),
    "targets": ("TargetSelection", "identify_targets"),
    "tuner": ("PrefetchTuner", "SweepPoint", "TuningResult"),
})
