"""Trace generators for prefetch-*unfriendly* code.

These model the "other functions" of Figures 11/12 — the ones that *gain*
performance when hardware prefetchers are disabled, because the prefetcher
cannot predict their accesses and only pollutes the cache and burns
bandwidth on their behalf.

Like the tax generators, these emit through
:func:`~repro.access.builder.trace_builder`, so traces are born columnar
(``REPRO_SLOW_ENGINE=1`` selects the record-path oracle).
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.access.address import AddressSpace
from repro.access.builder import trace_builder
from repro.access.record import AccessKind
from repro.access.trace import Trace
from repro.seeds import stable_seed
from repro.units import CACHE_LINE_BYTES


def workload_seed(name: str) -> int:
    """Stable 63-bit default-RNG seed for a workload generator.

    :func:`~repro.seeds.stable_seed` in the ``workload`` namespace.
    Every generator in this module used to default to
    ``random.Random(0)``, so distinct workloads emitted *correlated*
    address streams whenever a caller omitted ``rng`` — a pointer chase
    and a hash-map probe would land on the same "random" lines.
    Namespacing by generator name keeps each default stream
    deterministic while decorrelating the generators.
    """
    return stable_seed("workload", name)


def _default_rng(rng: Optional[random.Random],
                 generator: str) -> random.Random:
    """The caller's RNG, or a fresh per-generator namespaced default."""
    return rng if rng is not None else random.Random(workload_seed(generator))


_PC_CHASE = 0x5000_0010
_PC_RANDOM = 0x5000_0110
_PC_BTREE = 0x5000_0210
_PC_HASHMAP_BUCKET = 0x5000_0310
_PC_HASHMAP_ENTRY = 0x5000_0318
_PC_MISC_STREAM = 0x5000_0410


def pointer_chase_trace(space: AddressSpace, working_set_bytes: int,
                        hops: int, rng: Optional[random.Random] = None,
                        gap_cycles: int = 4,
                        function: str = "pointer_chase") -> Trace:
    """A dependent random walk over a working set: one load per hop.

    Each hop lands on a uniformly random line, so no prefetcher can help
    and a load-to-use latency probe built from this trace measures pure
    DRAM latency — this is also how we reproduce the MLC-style
    measurement in Figure 1.
    """
    if working_set_bytes < CACHE_LINE_BYTES:
        raise ValueError("working set must hold at least one line")
    if hops <= 0:
        raise ValueError(f"hops must be positive, got {hops}")
    rng = _default_rng(rng, "pointer_chase")
    base = space.allocate(working_set_bytes)
    num_lines = working_set_bytes // CACHE_LINE_BYTES
    builder = trace_builder()
    builder.append_addresses(
        [base + rng.randrange(num_lines) * CACHE_LINE_BYTES
         for _ in range(hops)],
        size=8, pc=_PC_CHASE, function=function, gap_cycles=gap_cycles)
    return builder.build()


def random_access_trace(space: AddressSpace, working_set_bytes: int,
                        accesses: int, rng: Optional[random.Random] = None,
                        gap_cycles: int = 2,
                        function: str = "random_access") -> Trace:
    """Independent uniform random loads (no dependence between them)."""
    # Resolve the default *here*, not in the delegate: an omitted rng
    # must follow this generator's own namespaced stream rather than
    # silently inheriting pointer_chase's.
    rng = _default_rng(rng, "random_access")
    return pointer_chase_trace(space, working_set_bytes, accesses, rng,
                               gap_cycles=gap_cycles, function=function)


def btree_lookup_trace(space: AddressSpace, keys: int,
                       rng: Optional[random.Random] = None,
                       depth: int = 5, node_bytes: int = 256,
                       fanout_region_bytes: int = 64 * 1024 * 1024,
                       gap_cycles: int = 8) -> Trace:
    """B-tree lookups: per key, ``depth`` dependent node reads.

    Upper levels live in a small (cacheable) region; leaves are scattered
    across a large one — the classic mostly-random tree pattern.
    """
    if keys <= 0 or depth <= 0:
        raise ValueError("keys and depth must be positive")
    rng = _default_rng(rng, "btree_lookup")
    level_regions: List[int] = []
    level_sizes: List[int] = []
    region = 4 * 1024
    for _ in range(depth):
        region = min(region * 16, fanout_region_bytes)
        level_regions.append(space.allocate(region))
        level_sizes.append(region)
    node_size = min(node_bytes, 64)
    per_level: List[List[int]] = [[] for _ in range(depth)]
    for _ in range(keys):
        for level, (base, size) in enumerate(zip(level_regions, level_sizes)):
            node = rng.randrange(size // node_bytes) * node_bytes
            per_level[level].append(base + node)
    builder = trace_builder()
    builder.append_round_robin(
        [(addresses, node_size, AccessKind.LOAD, _PC_BTREE + level * 8,
          gap_cycles)
         for level, addresses in enumerate(per_level)],
        function="btree_lookup")
    return builder.build()


def misc_streaming_trace(space: AddressSpace, bursts: int,
                         rng: Optional[random.Random] = None,
                         gap_cycles: int = 6) -> Trace:
    """Scattered short sequential bursts in miscellaneous application code.

    Section 4.1 notes that "some non-tax functions also regress with
    hardware prefetchers disabled, but many of these functions are not hot
    enough to warrant standalone optimizations." This generator models
    that long tail: streaming loops buried across thousands of call sites
    — prefetch-friendly, but *not* a Soft Limoncello target, so their
    regression is the residual cost of running with prefetchers off.
    """
    if bursts <= 0:
        raise ValueError(f"bursts must be positive, got {bursts}")
    rng = _default_rng(rng, "misc_streaming")
    builder = trace_builder()
    for burst in range(bursts):
        lines = rng.randrange(16, 64)
        base = space.allocate(lines * CACHE_LINE_BYTES)
        # Thousands of distinct call sites: vary the PC per burst so no
        # single site is hot enough to justify a hand insertion.
        pc = _PC_MISC_STREAM + (burst % 1024) * 8
        builder.append_stream(base, lines, pc=pc, function="misc_streaming",
                              gap_cycles=gap_cycles)
    return builder.build()


def hashmap_probe_trace(space: AddressSpace, probes: int,
                        table_bytes: int = 128 * 1024 * 1024,
                        rng: Optional[random.Random] = None,
                        gap_cycles: int = 6) -> Trace:
    """Open-addressing hash-map probes: a random bucket plus its entry.

    Two dependent loads per probe, both effectively random — the poster
    child of prefetch-unfriendly code.
    """
    if probes <= 0:
        raise ValueError(f"probes must be positive, got {probes}")
    rng = _default_rng(rng, "hashmap_probe")
    base = space.allocate(table_bytes)
    num_lines = table_bytes // CACHE_LINE_BYTES
    buckets: List[int] = []
    entries: List[int] = []
    for _ in range(probes):
        buckets.append(base + rng.randrange(num_lines) * CACHE_LINE_BYTES)
        entries.append(base + rng.randrange(num_lines) * CACHE_LINE_BYTES)
    load = AccessKind.LOAD
    builder = trace_builder()
    builder.append_round_robin(
        [(buckets, 8, load, _PC_HASHMAP_BUCKET, gap_cycles),
         (entries, 32, load, _PC_HASHMAP_ENTRY, 2)],
        function="hashmap_probe")
    return builder.build()
