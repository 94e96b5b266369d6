"""A per-PC stride prefetcher (IP-stride) with confidence counters."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.memsys.prefetchers.base import HardwarePrefetcher
from repro.units import line_address


class _StrideEntry:
    __slots__ = ("last_line", "stride", "confidence")

    def __init__(self, last_line: int) -> None:
        self.last_line = last_line
        self.stride = 0
        self.confidence = 0


class StridePrefetcher(HardwarePrefetcher):
    """Trains a (last address, stride, confidence) tuple per load PC.

    After ``confidence_threshold`` consecutive accesses with the same line
    stride, it fetches ``degree`` lines ahead along the stride starting
    ``distance`` strides out. The warm-up requirement is the behaviour
    Soft Limoncello exploits: short streams finish before the table is
    confident, so hardware gets no coverage there while software — which
    knows the length up front — can prefetch from the first iteration.
    """

    lockstep_safe = True

    @property
    def max_proposals(self) -> int:  # type: ignore[override]
        return self.degree

    def __init__(self, name: str = "l1_stride", table_size: int = 256,
                 confidence_threshold: int = 2, distance: int = 4,
                 degree: int = 2) -> None:
        super().__init__(name)
        if table_size <= 0:
            raise ValueError(f"table_size must be positive, got {table_size}")
        if confidence_threshold < 1:
            raise ValueError("confidence threshold must be at least 1")
        if distance < 1 or degree < 1:
            raise ValueError("distance and degree must be at least 1")
        self.table_size = table_size
        self.confidence_threshold = confidence_threshold
        self.distance = distance
        self.degree = degree
        #: PC -> entry, in LRU order (oldest first; a touch re-inserts
        #: its PC at the end).
        self._table: Dict[int, _StrideEntry] = {}

    def _observe(self, line: int, pc: int, was_hit: bool) -> List[int]:
        table = self._table
        entry = table.pop(pc, None)
        if entry is None:
            if len(table) >= self.table_size:
                del table[next(iter(table))]
            table[pc] = _StrideEntry(line)
            return []
        table[pc] = entry
        observed = line - entry.last_line
        entry.last_line = line
        if observed == 0:
            return []
        if observed == entry.stride:
            entry.confidence = min(entry.confidence + 1, 2 * self.confidence_threshold)
        else:
            entry.stride = observed
            entry.confidence = 1
            return []
        if entry.confidence < self.confidence_threshold:
            return []
        base = line + entry.stride * self.distance
        return [line_address(base + entry.stride * k) for k in range(self.degree)]

    def reset(self) -> None:
        """Drop all training/tracking state (counters survive)."""
        self._table.clear()

    @property
    def tracked_pcs(self) -> int:
        """Load PCs currently being tracked."""
        return len(self._table)

    # --- lockstep protocol ----------------------------------------------------

    def lockstep_params(self) -> Tuple:
        return (type(self).__name__, self.name, self.table_size,
                self.confidence_threshold, self.distance, self.degree)

    def training_fingerprint(self) -> Tuple:
        # LRU order included: victim selection reads it.
        return tuple((pc, e.last_line, e.stride, e.confidence)
                     for pc, e in self._table.items())

    def clone_for_lockstep(self) -> "StridePrefetcher":
        clone = type(self)(
            name=self.name, table_size=self.table_size,
            confidence_threshold=self.confidence_threshold,
            distance=self.distance, degree=self.degree)
        clone.adopt_training(self)
        return clone

    def adopt_training(self, source: "StridePrefetcher") -> None:
        table: Dict[int, _StrideEntry] = {}
        for pc, entry in source._table.items():
            fresh = _StrideEntry.__new__(_StrideEntry)
            fresh.last_line = entry.last_line
            fresh.stride = entry.stride
            fresh.confidence = entry.confidence
            table[pc] = fresh
        self._table = table
