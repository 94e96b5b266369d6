"""Next-line and adjacent-line prefetchers — the simplest, most aggressive.

Both carry a light *page-confirmation filter*, as real implementations
throttle on evidently-random streams: a miss only triggers a fetch when
its 4 KiB page has been touched recently, so the first touch of a cold
page (the common case in uniformly random access over a large footprint)
stays silent while any spatially local pattern activates immediately.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.memsys.prefetchers.base import HardwarePrefetcher
from repro.units import CACHE_LINE_BYTES

_PAGE_SHIFT = 12


class _PageFilter:
    """An LRU set of recently touched pages.

    A plain dict in LRU order (oldest first): a touch re-inserts its
    page at the end. Every lockstep arm copies its filter when it adopts
    a group's training, and ``dict.copy()`` does that in one C-level
    copy, some 20x faster than copying an ``OrderedDict``.
    """

    __slots__ = ("_capacity", "_pages")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"filter capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._pages: Dict[int, None] = {}

    def check_and_touch(self, line: int) -> bool:
        """True if the line's page was already present; records the touch."""
        page = line >> _PAGE_SHIFT
        pages = self._pages
        present = page in pages
        if present:
            del pages[page]
        elif len(pages) >= self._capacity:
            del pages[next(iter(pages))]
        pages[page] = None
        return present

    def clear(self) -> None:
        """Forget all remembered pages."""
        self._pages.clear()

    def fingerprint(self) -> Tuple[int, ...]:
        """The remembered pages in LRU order (eviction reads it)."""
        return tuple(self._pages)

    def copy_from(self, source: "_PageFilter") -> None:
        """Replace contents with a copy of ``source``'s, order included."""
        self._pages = source._pages.copy()


class NextLinePrefetcher(HardwarePrefetcher):
    """On a demand miss to a warm page, fetch the following ``degree`` lines.

    This is the archetype of the coverage-over-traffic design philosophy
    the paper criticises: zero accuracy feedback once the page filter is
    warm, so any revisited region pays ``degree`` lines of traffic per miss
    whether or not the data is ever used.
    """

    lockstep_safe = True

    @property
    def max_proposals(self) -> int:  # type: ignore[override]
        return self.degree

    def __init__(self, name: str = "l1_next_line", degree: int = 1,
                 on_miss_only: bool = True,
                 page_filter_entries: Optional[int] = 8192) -> None:
        super().__init__(name)
        if degree <= 0:
            raise ValueError(f"degree must be positive, got {degree}")
        self.degree = degree
        self.on_miss_only = on_miss_only
        self._filter = (_PageFilter(page_filter_entries)
                        if page_filter_entries else None)

    def _observe(self, line: int, pc: int, was_hit: bool) -> List[int]:
        if self._filter is not None:
            warm = self._filter.check_and_touch(line)
            if not warm:
                return []
        if self.on_miss_only and was_hit:
            return []
        return [line + k * CACHE_LINE_BYTES for k in range(1, self.degree + 1)]

    def reset(self) -> None:
        """Drop all training/tracking state (counters survive)."""
        if self._filter is not None:
            self._filter.clear()

    # --- lockstep protocol ----------------------------------------------------

    def lockstep_params(self) -> Tuple:
        capacity = self._filter._capacity if self._filter is not None else None
        return (type(self).__name__, self.name, self.degree,
                self.on_miss_only, capacity)

    def training_fingerprint(self) -> Tuple:
        if self._filter is None:
            return ()
        return self._filter.fingerprint()

    def clone_for_lockstep(self) -> "NextLinePrefetcher":
        capacity = self._filter._capacity if self._filter is not None else None
        clone = type(self)(name=self.name, degree=self.degree,
                           on_miss_only=self.on_miss_only,
                           page_filter_entries=capacity)
        clone.adopt_training(self)
        return clone

    def adopt_training(self, source: "NextLinePrefetcher") -> None:
        if self._filter is not None and source._filter is not None:
            self._filter.copy_from(source._filter)


class AdjacentLinePrefetcher(HardwarePrefetcher):
    """Fetch the buddy line of the 128-byte pair on a miss to a warm page.

    Models the "adjacent cache line prefetch" feature of the modelled
    platforms: useful on sequential data, a 2x traffic amplifier on
    revisited-but-random regions.
    """

    lockstep_safe = True
    max_proposals = 1

    def __init__(self, name: str = "l2_adjacent_line",
                 page_filter_entries: Optional[int] = 8192) -> None:
        super().__init__(name)
        self._filter = (_PageFilter(page_filter_entries)
                        if page_filter_entries else None)

    def _observe(self, line: int, pc: int, was_hit: bool) -> List[int]:
        if self._filter is not None:
            warm = self._filter.check_and_touch(line)
            if not warm:
                return []
        if was_hit:
            return []
        return [line ^ CACHE_LINE_BYTES]

    def reset(self) -> None:
        """Drop all training/tracking state (counters survive)."""
        if self._filter is not None:
            self._filter.clear()

    # --- lockstep protocol ----------------------------------------------------

    def lockstep_params(self) -> Tuple:
        capacity = self._filter._capacity if self._filter is not None else None
        return (type(self).__name__, self.name, capacity)

    def training_fingerprint(self) -> Tuple:
        if self._filter is None:
            return ()
        return self._filter.fingerprint()

    def clone_for_lockstep(self) -> "AdjacentLinePrefetcher":
        capacity = self._filter._capacity if self._filter is not None else None
        clone = type(self)(name=self.name, page_filter_entries=capacity)
        clone.adopt_training(self)
        return clone

    def adopt_training(self, source: "AdjacentLinePrefetcher") -> None:
        if self._filter is not None and source._filter is not None:
            self._filter.copy_from(source._filter)
