"""Accuracy-first prefetching — the Section 8.1 prototype.

"Designs that make accuracy a first-class concern would be more efficient
and well-suited for data center environments." (Section 8.1.)

:class:`FeedbackThrottledPrefetcher` wraps any hardware prefetcher with
feedback-directed gating (in the spirit of Srinath et al., HPCA'07, the
paper's [19]): it tracks what fraction of the inner prefetcher's recent
issues were later demanded and *gates* the prefetcher when accuracy drops
below a floor. While gated it keeps evaluating the inner prefetcher in
shadow mode — proposals are tracked but not fetched — so a workload phase
change that restores accuracy automatically un-gates it.

On blindly-aggressive prefetchers (next-line, adjacent-line) this removes
most of the wasted traffic on irregular code while preserving coverage on
streams — the direction the paper suggests hardware should move so that
systems like Limoncello have less to clean up.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.memsys.prefetchers.base import HardwarePrefetcher


class FeedbackThrottledPrefetcher(HardwarePrefetcher):
    """Gates an inner prefetcher by its measured accuracy.

    Args:
        inner: The prefetcher being supervised.
        name: Bank name (defaults to the inner prefetcher's, so the
            wrapper can stand in for it under the same MSR control).
        window: Tracked issues per accuracy evaluation.
        gate_below: Gate when windowed accuracy falls below this.
        ungate_above: Un-gate when shadow accuracy rises above this.
        tracker_entries: LRU capacity of the usefulness tracker.
    """

    def __init__(self, inner: HardwarePrefetcher, name: str = "",
                 window: int = 64, gate_below: float = 0.35,
                 ungate_above: float = 0.65,
                 tracker_entries: int = 4096) -> None:
        super().__init__(name or inner.name)
        if window <= 0 or tracker_entries <= 0:
            raise ValueError("window and tracker size must be positive")
        if not 0.0 <= gate_below < ungate_above <= 1.0:
            raise ValueError("need 0 <= gate_below < ungate_above <= 1")
        self.inner = inner
        self.window = window
        self.gate_below = gate_below
        self.ungate_above = ungate_above
        self._tracker_entries = tracker_entries
        self.gated = False
        #: Recently proposed lines (issued or shadow), awaiting a touch,
        #: oldest first.
        self._tracked: Dict[int, None] = {}
        self._window_proposed = 0
        self._window_useful = 0
        self.gate_events = 0
        self.ungate_events = 0
        self.suppressed = 0

    @property
    def window_accuracy(self) -> float:
        """Useful / proposed fraction in the current window."""
        if self._window_proposed == 0:
            return 1.0
        return self._window_useful / self._window_proposed

    def _observe(self, line: int, pc: int, was_hit: bool) -> List[int]:
        if line in self._tracked:
            del self._tracked[line]
            self._window_useful += 1

        # The inner prefetcher must keep training even while gated, so
        # its own enable flag stays on; the wrapper's flag (checked by
        # the bank via HardwarePrefetcher.observe) governs everything.
        proposals = self.inner.observe(line, pc, was_hit)
        for proposed in proposals:
            if proposed not in self._tracked:
                if len(self._tracked) >= self._tracker_entries:
                    del self._tracked[next(iter(self._tracked))]
                self._tracked[proposed] = None
        self._window_proposed += len(proposals)
        if self._window_proposed >= self.window:
            self._rebalance()

        if self.gated:
            self.suppressed += len(proposals)
            return []
        return proposals

    def _rebalance(self) -> None:
        accuracy = self.window_accuracy
        if not self.gated and accuracy < self.gate_below:
            self.gated = True
            self.gate_events += 1
        elif self.gated and accuracy > self.ungate_above:
            self.gated = False
            self.ungate_events += 1
        self._window_proposed = 0
        self._window_useful = 0

    def reset(self) -> None:
        """Drop all training/tracking state (counters survive)."""
        self.inner.reset()
        self._tracked.clear()
        self._window_proposed = 0
        self._window_useful = 0
        self.gated = False

    # --- lockstep protocol ----------------------------------------------------
    # Every hook recurses into ``inner``: the supervised prefetcher lives
    # outside any bank, so the wrapper is its only lockstep conduit. The
    # wrapper is only lockstep-safe when its inner model is.

    @property
    def lockstep_safe(self) -> bool:  # type: ignore[override]
        return self.inner.lockstep_safe

    @property
    def max_proposals(self) -> Optional[int]:  # type: ignore[override]
        return self.inner.max_proposals

    def lockstep_params(self) -> Tuple:
        if not self.inner.lockstep_safe:
            raise NotImplementedError(
                f"inner prefetcher {self.inner.name!r} is not lockstep-safe")
        return (type(self).__name__, self.name, self.window,
                self.gate_below, self.ungate_above, self._tracker_entries,
                self.inner.lockstep_params())

    def training_fingerprint(self) -> Tuple:
        return (self.gated, self._window_proposed, self._window_useful,
                tuple(self._tracked), self.inner.training_fingerprint())

    def clone_for_lockstep(self) -> "FeedbackThrottledPrefetcher":
        if not self.inner.lockstep_safe:
            raise NotImplementedError(
                f"inner prefetcher {self.inner.name!r} is not lockstep-safe")
        clone = type(self)(
            inner=self.inner.clone_for_lockstep(), name=self.name,
            window=self.window, gate_below=self.gate_below,
            ungate_above=self.ungate_above,
            tracker_entries=self._tracker_entries)
        clone.gated = self.gated
        clone._tracked = self._tracked.copy()
        clone._window_proposed = self._window_proposed
        clone._window_useful = self._window_useful
        return clone

    def adopt_training(self, source: "FeedbackThrottledPrefetcher") -> None:
        self.gated = source.gated
        self._tracked = source._tracked.copy()
        self._window_proposed = source._window_proposed
        self._window_useful = source._window_useful
        self.inner.adopt_training(source.inner)

    def counter_signature(self) -> Tuple[int, ...]:
        return ((self.issued, self.gate_events, self.ungate_events,
                 self.suppressed) + self.inner.counter_signature())

    def apply_counter_delta(self, delta: Tuple[int, ...]) -> None:
        self.issued += delta[0]
        self.gate_events += delta[1]
        self.ungate_events += delta[2]
        self.suppressed += delta[3]
        self.inner.apply_counter_delta(delta[4:])
