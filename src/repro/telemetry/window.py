"""A time-bounded sliding window over numeric observations.

The DRAM model measures recent bandwidth by summing the bytes transferred
in a short trailing window; the Hard Limoncello controller checks whether
bandwidth has stayed above/below its thresholds for a sustained duration.
Both use :class:`SlidingWindow`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

#: Rebuild the running sum exactly after this many incremental updates.
#: Compensated summation already keeps drift near one ulp per operation;
#: the periodic rebuild bounds the *worst case* over arbitrarily long
#: runs without measurably changing the amortized O(1) update cost.
_RECOMPUTE_INTERVAL = 4096


class SlidingWindow:
    """Sum/mean of observations within a trailing time window.

    Observations are (time, value) pairs appended in non-decreasing time
    order; stale points are evicted lazily relative to the latest
    observation (or an explicit ``now``).

    **Boundary semantics.** The window is half-open on the old side:
    at time ``t`` it covers ``(t - span_ns, t]``, so a point exactly
    ``span_ns`` old is *out* (see :meth:`_evict`'s ``<= horizon`` test).
    This deliberately mirrors the Hard Limoncello controller's sustain
    timer, which treats a threshold crossing that has lasted *exactly*
    ``sustain_duration_ns`` as sustained (``elapsed >= duration`` in
    ``HardLimoncelloController._maybe_expire``): in both, an interval of
    exactly S "has elapsed". The compiled engine's timing replay
    (``MemoryHierarchy._replay`` in ``repro.memsys.hierarchy``) inlines
    the eviction loop once, with the same ``<=`` — changing either copy
    would break the bit-identity invariant between engines, so the
    boundary is pinned by tests at exactly-``span_ns`` age.

    The running sum uses Kahan (compensated) summation: a daemon that
    ticks once per simulated second for a fleet-year performs ~3e7
    incremental add/evict updates per window, enough for naive ``+=`` /
    ``-=`` accumulation to drift visibly when large and small values mix.
    The compensation term absorbs per-operation rounding, a periodic
    exact recomputation bounds any residual, and :meth:`total` clamps at
    zero so rounding can never report a negative sum of non-negative
    observations.
    """

    __slots__ = ("span_ns", "_points", "_sum", "_comp", "_ops")

    def __init__(self, span_ns: float) -> None:
        if span_ns <= 0:
            raise ValueError(f"window span must be positive, got {span_ns}")
        self.span_ns = span_ns
        self._points: Deque[Tuple[float, float]] = deque()
        self._sum = 0.0
        self._comp = 0.0  # Kahan compensation (accumulated rounding error)
        self._ops = 0

    def _accumulate(self, value: float) -> None:
        # Kahan step: fold `value` into `_sum`, capturing the low-order
        # bits lost to rounding in `_comp` for the next step.
        y = value - self._comp
        t = self._sum + y
        self._comp = (t - self._sum) - y
        self._sum = t
        self._ops += 1
        if self._ops >= _RECOMPUTE_INTERVAL:
            self._recompute()

    def _recompute(self) -> None:
        total = 0.0
        comp = 0.0
        for _, value in self._points:
            y = value - comp
            t = total + y
            comp = (t - total) - y
            total = t
        self._sum = total
        self._comp = comp
        self._ops = 0

    def add(self, time_ns: float, value: float) -> None:
        """Add an observation."""
        if self._points and time_ns < self._points[-1][0]:
            raise ValueError(
                f"observations must be time-ordered: {time_ns} < "
                f"{self._points[-1][0]}")
        self._points.append((time_ns, value))
        self._accumulate(value)
        self._evict(time_ns)

    def _evict(self, now: float) -> None:
        # Half-open (now - span, now]: a point exactly span_ns old falls
        # on the horizon and is evicted. Keep in step with the inlined
        # copy in MemoryHierarchy._replay (repro.memsys.hierarchy).
        horizon = now - self.span_ns
        while self._points and self._points[0][0] <= horizon:
            _, value = self._points.popleft()
            self._accumulate(-value)
        if not self._points:
            # An empty window's sum is exactly zero; discard any residue.
            self._sum = 0.0
            self._comp = 0.0
            self._ops = 0

    def advance(self, now: float) -> None:
        """Evict stale observations as of ``now`` without adding any."""
        self._evict(now)

    def total(self, now: Optional[float] = None) -> float:
        """Sum of values currently in the window (never below zero)."""
        if now is not None:
            self._evict(now)
        # Bandwidth windows sum byte counts; floating-point residue must
        # not surface as a (physically meaningless) negative total.
        return self._sum if self._sum > 0.0 else 0.0

    def rate(self, now: Optional[float] = None) -> float:
        """Sum divided by the window span — e.g. bytes/ns for byte counts."""
        return self.total(now) / self.span_ns

    def __len__(self) -> int:
        return len(self._points)

    def clear(self) -> None:
        """Forget all remembered pages."""
        self._points.clear()
        self._sum = 0.0
        self._comp = 0.0
        self._ops = 0
