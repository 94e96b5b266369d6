"""A set-associative cache with true-LRU replacement.

Each cache set is a plain ``dict`` of ``line -> bool`` in LRU order,
oldest first: a hit re-inserts its line at the end and an eviction pops
the first key. The value is True only for a prefetched line that no
demand has touched yet, which is all the simulator needs to account
prefetch usefulness: such a line evicted untouched was a wasted fetch
(the bandwidth cost the paper blames for the latency penalty of
aggressive prefetching), and the first demand hit on it is a covered
miss. A line costs one dict entry and no object of its own.

Several caches may hold the same set dicts by reference, as one
:class:`CacheLineage`: the arms of a lockstep group that exports its
state (:mod:`repro.memsys.batched`) share the group's caches instead of
each taking a copy. Sharing is copy on write. Every mutator here first
gives its cache its own dicts (:meth:`SetAssociativeCache._own`), and
``flush`` simply lets go of them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Optional

from repro.memsys.config import CacheConfig


@dataclass
class EvictedLine:
    """What fell out of the cache on an installation: the line, and
    whether it was a prefetch that died without a single demand touch."""

    line: int
    wasted_prefetch: bool


def copy_sets(sets: Dict[int, Dict[int, bool]]) -> Dict[int, Dict[int, bool]]:
    """A copy of a cache's set dicts: one ``dict`` per set, since a
    line's state is one bool."""
    return {index: dict(lines) for index, lines in sets.items()}


class CacheLineage:
    """Set dicts that the caches of several hierarchies hold by reference.

    ``holders`` is every live cache that holds one of the lineage's dicts
    (L1, L2 and LLC caches alike). It holds them weakly, so a dropped
    hierarchy stops counting as soon as reference counting frees it. A
    lockstep group may change the dicts in place only if it holds every
    holder; any other change first copies them.
    """

    __slots__ = ("holders",)

    def __init__(self) -> None:
        self.holders: "weakref.WeakSet[SetAssociativeCache]" = \
            weakref.WeakSet()


class SetAssociativeCache:
    """A classic set-associative LRU cache over line addresses."""

    __slots__ = ("config", "_sets", "_set_mask", "_line_shift", "_size",
                 "hits", "misses", "prefetch_hits", "wasted_prefetches",
                 "_lineage", "__weakref__")

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
        #: The :class:`CacheLineage` that ``_sets`` belongs to, or None
        #: while this cache owns its dicts alone.
        self._lineage: Optional[CacheLineage] = None
        self._size = 0
        self.hits = 0
        self.misses = 0
        self.prefetch_hits = 0
        self.wasted_prefetches = 0

    def _share(self, sets: Dict[int, Dict[int, bool]],
               lineage: CacheLineage) -> None:
        """Hold ``sets`` by reference, as one of ``lineage``'s holders."""
        if self._lineage is not None:
            self._lineage.holders.discard(self)
        self._sets = sets
        self._lineage = lineage
        lineage.holders.add(self)

    def _own(self) -> None:
        """Copy on write: leave the lineage, taking a copy of its dicts
        unless no other cache still holds them."""
        holders = self._lineage.holders
        self._lineage = None
        holders.discard(self)
        sets = self._sets
        if any(other._sets is sets for other in holders):
            self._sets = copy_sets(sets)

    def _index(self, line: int) -> int:
        tag = line >> self._line_shift
        if self._set_mask is not None:
            return tag & self._set_mask
        return tag % self.config.num_sets

    def lookup(self, line: int) -> bool:
        """Demand probe for ``line`` (line-aligned): counts a hit or a
        miss, and a hit touches the line and makes it most recent."""
        if self._lineage is not None:
            self._own()
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
        if self._lineage is not None:
            self._own()
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
        if self._lineage is not None:
            self._own()
        cache_set = self._sets.get(self._index(line))
        if cache_set is not None and line in cache_set:
            del cache_set[line]
            self._size -= 1
            return True
        return False

    def flush(self) -> None:
        """Empty the cache (counters are preserved); a shared cache lets
        go of its lineage's dicts rather than emptying them."""
        if self._lineage is not None:
            self._lineage.holders.discard(self)
            self._lineage = None
            self._sets = {}
        else:
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
