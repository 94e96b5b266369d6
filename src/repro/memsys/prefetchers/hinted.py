"""Software-hinted hardware prefetching — the Section 8.3 prototype.

"Research into better hardware-software interfaces that allow for ease of
collaboration between the two will undoubtedly lead to much more powerful
and efficient prefetching systems." (Section 8.3.)

The prototype interface is one instruction: a *stream hint* carrying the
exact extent of an upcoming stream (start, length). The hardware engine
then does what it is uniquely good at — issuing fetches quickly and
timely — while software contributes what it uniquely knows — exactly how
much data will be touched. Compared to Soft Limoncello's per-`degree`
prefetch instructions, a hinted stream costs a single instruction, never
overshoots the object, and paces itself against the demand stream.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.memsys.prefetchers.base import HardwarePrefetcher
from repro.units import CACHE_LINE_BYTES, line_address


class _HintedRegion:
    __slots__ = ("start", "end", "issued_until")

    def __init__(self, start: int, end: int) -> None:
        self.start = start
        self.end = end
        self.issued_until = start

    @property
    def exhausted(self) -> bool:
        """Whether the region has been fully issued."""
        return self.issued_until >= self.end


class HintedRegionPrefetcher(HardwarePrefetcher):
    """Streams exactly the regions software hinted, paced by demand.

    Pacing: on every demand observation, each active region issues up to
    ``degree`` lines, keeping its fetch frontier at most ``lead_lines``
    ahead of the last demand touch inside the region (or of the region
    start, before the demand stream arrives). A region retires when fully
    issued; there is no training, no overshoot, and no guessing.

    Args:
        degree: Max lines issued per observation per region.
        lead_lines: How far the frontier may run ahead of demand.
        max_regions: Concurrent hinted regions (hardware table size);
            the oldest region is dropped on overflow.
    """

    lockstep_safe = True

    @property
    def max_proposals(self) -> int:  # type: ignore[override]
        return self.degree * self.max_regions

    def __init__(self, name: str = "hinted_stream", degree: int = 4,
                 lead_lines: int = 16, max_regions: int = 16) -> None:
        super().__init__(name)
        if degree < 1 or lead_lines < 1 or max_regions < 1:
            raise ValueError("degree, lead_lines, max_regions must be >= 1")
        self.degree = degree
        self.lead_lines = lead_lines
        self.max_regions = max_regions
        self._regions: Dict[int, _HintedRegion] = {}
        self.hints_accepted = 0
        self.hints_dropped = 0

    # --- the new interface -------------------------------------------------

    def accept_hint(self, start: int, length: int) -> None:
        """Register a stream extent supplied by software."""
        if length <= 0:
            return
        first = line_address(start)
        end = line_address(start + length - 1) + CACHE_LINE_BYTES
        if len(self._regions) >= self.max_regions:
            oldest = next(iter(self._regions))
            del self._regions[oldest]
            self.hints_dropped += 1
        self._regions[first] = _HintedRegion(first, end)
        self.hints_accepted += 1

    # --- observation ----------------------------------------------------------

    def _observe(self, line: int, pc: int, was_hit: bool) -> List[int]:
        if not self._regions:
            return []
        issued: List[int] = []
        retired: List[int] = []
        for key, region in self._regions.items():
            if region.start <= line < region.end:
                demand_frontier = line
            else:
                demand_frontier = region.start
            limit = min(region.end,
                        demand_frontier
                        + self.lead_lines * CACHE_LINE_BYTES)
            budget = self.degree
            while budget > 0 and region.issued_until < limit:
                issued.append(region.issued_until)
                region.issued_until += CACHE_LINE_BYTES
                budget -= 1
            if region.exhausted:
                retired.append(key)
        for key in retired:
            del self._regions[key]
        return issued

    @property
    def active_regions(self) -> int:
        """Hinted regions still being streamed."""
        return len(self._regions)

    def reset(self) -> None:
        """Drop all training/tracking state (counters survive)."""
        self._regions.clear()

    # --- lockstep protocol ----------------------------------------------------

    def lockstep_params(self) -> Tuple:
        return (type(self).__name__, self.name, self.degree,
                self.lead_lines, self.max_regions)

    def training_fingerprint(self) -> Tuple:
        # Insertion order included: overflow drops the oldest region.
        return tuple((key, r.start, r.end, r.issued_until)
                     for key, r in self._regions.items())

    def clone_for_lockstep(self) -> "HintedRegionPrefetcher":
        clone = type(self)(name=self.name, degree=self.degree,
                           lead_lines=self.lead_lines,
                           max_regions=self.max_regions)
        clone.adopt_training(self)
        return clone

    def adopt_training(self, source: "HintedRegionPrefetcher") -> None:
        regions: Dict[int, _HintedRegion] = {}
        for key, region in source._regions.items():
            fresh = _HintedRegion.__new__(_HintedRegion)
            fresh.start = region.start
            fresh.end = region.end
            fresh.issued_until = region.issued_until
            regions[key] = fresh
        self._regions = regions

    def counter_signature(self) -> Tuple[int, ...]:
        return (self.issued, self.hints_accepted, self.hints_dropped)

    def apply_counter_delta(self, delta: Tuple[int, ...]) -> None:
        self.issued += delta[0]
        self.hints_accepted += delta[1]
        self.hints_dropped += delta[2]
