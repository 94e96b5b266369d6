"""A set-associative cache with true-LRU replacement.

Each cache set is a plain ``dict`` of ``line -> bool`` in LRU order,
oldest first: a hit re-inserts its line at the end and an eviction pops
the first key. The value is True only for a prefetched line that no
demand has touched yet, which is all the simulator needs to account
prefetch usefulness: such a line evicted untouched was a wasted fetch
(the bandwidth cost the paper blames for the latency penalty of
aggressive prefetching), and the first demand hit on it is a covered
miss. A line costs one dict entry and no object of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.memsys.config import CacheConfig


@dataclass
class EvictedLine:
    """What fell out of the cache on an installation: the line, and
    whether it was a prefetch that died without a single demand touch."""

    line: int
    wasted_prefetch: bool


class SetAssociativeCache:
    """A classic set-associative LRU cache over line addresses."""

    __slots__ = ("config", "_sets", "_set_mask", "_line_shift", "_size",
                 "hits", "misses", "prefetch_hits", "wasted_prefetches")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        num_sets = config.num_sets
        if num_sets & (num_sets - 1):
            # Non-power-of-two set counts use modulo indexing instead.
            self._set_mask = None
        else:
            self._set_mask = num_sets - 1
        self._line_shift = config.line_bytes.bit_length() - 1
        #: set index -> {line: untouched prefetch}, LRU order.
        self._sets: Dict[int, Dict[int, bool]] = {}
        self._size = 0
        self.hits = 0
        self.misses = 0
        self.prefetch_hits = 0
        self.wasted_prefetches = 0

    def _index(self, line: int) -> int:
        tag = line >> self._line_shift
        if self._set_mask is not None:
            return tag & self._set_mask
        return tag % self.config.num_sets

    def lookup(self, line: int) -> bool:
        """Demand probe for ``line`` (line-aligned): counts a hit or a
        miss, and a hit touches the line and makes it most recent."""
        cache_set = self._sets.get(self._index(line))
        if cache_set is not None and line in cache_set:
            self.hits += 1
            if cache_set.pop(line):
                self.prefetch_hits += 1
            cache_set[line] = False
            return True
        self.misses += 1
        return False

    def contains(self, line: int) -> bool:
        """Probe without touching LRU state or counters."""
        cache_set = self._sets.get(self._index(line))
        return cache_set is not None and line in cache_set

    def install(self, line: int, prefetched: bool = False) -> Optional[EvictedLine]:
        """Insert ``line``; returns the evicted victim, if any.

        Installing a line that is already present refreshes its LRU
        position; a demand install marks it touched, a prefetch install
        leaves its flag as it was.
        """
        index = self._index(line)
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = {}
        if line in cache_set:
            untouched = cache_set.pop(line)
            cache_set[line] = untouched and prefetched
            return None
        victim: Optional[EvictedLine] = None
        if len(cache_set) >= self.config.associativity:
            victim_line = next(iter(cache_set))
            victim = EvictedLine(victim_line, cache_set.pop(victim_line))
            self._size -= 1
            if victim.wasted_prefetch:
                self.wasted_prefetches += 1
        cache_set[line] = prefetched
        self._size += 1
        return victim

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if present; returns whether it was present."""
        cache_set = self._sets.get(self._index(line))
        if cache_set is not None and line in cache_set:
            del cache_set[line]
            self._size -= 1
            return True
        return False

    def flush(self) -> None:
        """Empty the cache (counters are preserved)."""
        self._sets.clear()
        self._size = 0

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident.

        Maintained incrementally (installs, evictions, invalidations, and
        flushes adjust a counter) because telemetry sampling paths read it
        per epoch; the old O(num_sets) sum walked every set.
        """
        return self._size

    @property
    def accesses(self) -> int:
        """Total demand lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Demand misses / demand lookups (0 when idle)."""
        total = self.accesses
        return self.misses / total if total else 0.0
