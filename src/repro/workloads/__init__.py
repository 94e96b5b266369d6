"""Synthetic workload and trace generators.

The paper characterizes fleet software through a small vocabulary of
memory-access behaviours: *data center tax* functions (data movement,
compression, hashing, RPC serialization) that stream sequentially over
well-defined extents, and everything else — pointer chasing, hash-table
probing, irregular application code. This package generates traces for
each, plus composite application models (search, ML serving, database), a
SPEC-like suite, and Fleetbench-like machine mixes.

All generators are deterministic given a seeded ``random.Random``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": (
        "FunctionCategory", "TAX_CATEGORIES", "Workload",
        "category_of_function",
    ),
    "sizes": ("MemcpySizeDistribution", "size_histogram"),
    "tax": (
        "compress_trace", "crc32_trace", "decompress_trace",
        "deserialize_trace", "hashing_trace", "memcpy_call_trace",
        "memcpy_trace", "memmove_trace", "memset_trace", "serialize_trace",
    ),
    "irregular": (
        "btree_lookup_trace", "hashmap_probe_trace", "pointer_chase_trace",
        "random_access_trace",
    ),
    "functions": (
        "FUNCTION_ROSTER", "FunctionProfile", "generate_function_trace",
    ),
    "apps": (
        "ApplicationModel", "database_server", "ml_model_server",
        "search_backend",
    ),
    "spec": ("SPEC_SUITE", "SpecBenchmark", "suite_trace"),
    "mixes": ("fleet_mix_trace", "fleetbench_trace"),
})
