"""A page-bounded stream prefetcher — the main traffic source.

This models the aggressive L2 streamer on modern server parts: it detects
ascending (or descending) access runs within a 4 KiB page and, once
trained, races ahead of the demand stream by ``distance`` lines, issuing up
to ``degree`` fetches per observation. Two properties matter for the
paper's story and are faithfully reproduced:

* **warm-up**: nothing is fetched until ``train_threshold`` accesses in a
  page have been seen, so short streams get little coverage;
* **overshoot**: when a stream ends, everything already issued beyond the
  last demand access is wasted — for a stream of ``n`` lines the streamer
  fetches up to ``n + distance`` lines, a built-in ~``distance/n``
  traffic overhead that is huge for short streams.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.memsys.prefetchers.base import HardwarePrefetcher
from repro.units import CACHE_LINE_BYTES

_PAGE_SHIFT = 12
_PAGE_BYTES = 1 << _PAGE_SHIFT


class _StreamEntry:
    __slots__ = ("last_line", "direction", "count", "issued_until")

    def __init__(self, line: int) -> None:
        self.last_line = line
        self.direction = 0
        self.count = 1
        #: Exclusive frontier of already-issued prefetches (forward runs)
        #: or inclusive frontier for backward runs; None until trained.
        self.issued_until = None


class StreamPrefetcher(HardwarePrefetcher):
    """Detects sequential runs per page and streams ahead of them."""

    lockstep_safe = True

    @property
    def max_proposals(self) -> int:  # type: ignore[override]
        return self.degree

    def __init__(self, name: str = "l2_stream", table_size: int = 32,
                 train_threshold: int = 3, distance: int = 16,
                 degree: int = 4, max_jump_lines: int = 2) -> None:
        super().__init__(name)
        if table_size <= 0:
            raise ValueError(f"table_size must be positive, got {table_size}")
        if train_threshold < 2:
            raise ValueError("train_threshold must be at least 2")
        if distance < 1 or degree < 1:
            raise ValueError("distance and degree must be at least 1")
        if max_jump_lines < 1:
            raise ValueError("max_jump_lines must be at least 1")
        self.table_size = table_size
        self.train_threshold = train_threshold
        self.distance = distance
        self.degree = degree
        self.max_jump_lines = max_jump_lines
        #: Page -> stream, in LRU order (oldest first; a touch
        #: re-inserts its page at the end).
        self._table: Dict[int, _StreamEntry] = {}

    def _observe(self, line: int, pc: int, was_hit: bool) -> List[int]:
        page = line >> _PAGE_SHIFT
        table = self._table
        entry = table.pop(page, None)
        if entry is None:
            if len(table) >= self.table_size:
                del table[next(iter(table))]
            table[page] = _StreamEntry(line)
            return []
        table[page] = entry

        delta_lines = (line - entry.last_line) // CACHE_LINE_BYTES
        if delta_lines == 0:
            return []
        direction = 1 if delta_lines > 0 else -1
        if abs(delta_lines) > self.max_jump_lines or (
                entry.direction and direction != entry.direction):
            # The run broke; start re-training from here.
            entry.last_line = line
            entry.direction = direction
            entry.count = 1
            entry.issued_until = None
            return []

        entry.direction = direction
        entry.count += 1
        entry.last_line = line
        if entry.count < self.train_threshold:
            return []

        page_base = page << _PAGE_SHIFT
        page_end = page_base + _PAGE_BYTES
        target = line + direction * self.distance * CACHE_LINE_BYTES
        if entry.issued_until is None:
            entry.issued_until = line + direction * CACHE_LINE_BYTES
        lines: List[int] = []
        cursor = entry.issued_until
        while len(lines) < self.degree:
            if direction > 0:
                if cursor > target or cursor >= page_end:
                    break
                lines.append(cursor)
                cursor += CACHE_LINE_BYTES
            else:
                if cursor < target or cursor < page_base:
                    break
                lines.append(cursor)
                cursor -= CACHE_LINE_BYTES
        entry.issued_until = cursor
        return lines

    def reset(self) -> None:
        """Drop all training/tracking state (counters survive)."""
        self._table.clear()

    @property
    def tracked_streams(self) -> int:
        """Streams currently being tracked."""
        return len(self._table)

    # --- lockstep protocol ----------------------------------------------------

    def lockstep_params(self) -> Tuple:
        return (type(self).__name__, self.name, self.table_size,
                self.train_threshold, self.distance, self.degree,
                self.max_jump_lines)

    def training_fingerprint(self) -> Tuple:
        # Iteration order is the table's LRU order — victim selection
        # reads it, so it is part of the state.
        return tuple(
            (page, e.last_line, e.direction, e.count, e.issued_until)
            for page, e in self._table.items())

    def clone_for_lockstep(self) -> "StreamPrefetcher":
        clone = type(self)(
            name=self.name, table_size=self.table_size,
            train_threshold=self.train_threshold, distance=self.distance,
            degree=self.degree, max_jump_lines=self.max_jump_lines)
        clone.adopt_training(self)
        return clone

    def adopt_training(self, source: "StreamPrefetcher") -> None:
        table: Dict[int, _StreamEntry] = {}
        for page, entry in source._table.items():
            fresh = _StreamEntry.__new__(_StreamEntry)
            fresh.last_line = entry.last_line
            fresh.direction = entry.direction
            fresh.count = entry.count
            fresh.issued_until = entry.issued_until
            table[page] = fresh
        self._table = table
