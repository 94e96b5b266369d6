"""Microbenchmarks and load tests for tuning software prefetches.

The stand-ins for the LLVM-libc mem* benchmark suite and the production
load tests of Section 4.3: size-swept memcpy kernels run through the
cycle-level simulator under configurable background memory load, measuring
the speedup of candidate prefetch descriptors.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "memcpy_bench": (
        "MemcpyMicrobenchmark", "MicrobenchResult", "PAPER_SIZES",
    ),
    "loadtest": ("FleetMixLoadTest",),
})
