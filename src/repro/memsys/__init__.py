"""Trace-driven memory-system timing simulator.

This package is the stand-in for the real hardware the paper runs on: a
three-level set-associative cache hierarchy with hardware prefetchers at
L1 and L2, backed by a DRAM model whose load-to-use latency grows with
bandwidth utilization (the queuing behaviour behind the paper's Figure 1).

The public entry point is :class:`MemoryHierarchy`: feed it a
:class:`repro.access.Trace` and it returns a :class:`RunResult` with
per-function cycles, MPKI, and DRAM traffic — the quantities every
experiment in the paper is expressed in.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "config": ("CacheConfig", "DRAMConfig", "HierarchyConfig"),
    "cache": ("SetAssociativeCache",),
    "dram": ("ConstantExternalLoad", "DRAMModel"),
    "stats": ("FunctionStats", "RunResult"),
    "hierarchy": ("MemoryHierarchy", "run_many"),
    "prefetchers": (
        "HardwarePrefetcher", "NextLinePrefetcher", "StridePrefetcher",
        "StreamPrefetcher", "PrefetcherBank", "default_prefetcher_bank",
    ),
})
