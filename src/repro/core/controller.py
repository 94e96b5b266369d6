"""Hard Limoncello's hysteresis controller — the Figure 8 state machine.

Two hysteresis mechanisms keep the controller from thrashing on volatile
bandwidth (Figure 7): separate upper/lower thresholds, and a sustain timer —
bandwidth must stay beyond a threshold for a full ``sustain_duration``
before prefetcher state changes. The four states map onto Figure 8:

* ``ENABLED``       — prefetchers on, bandwidth below the upper threshold.
* ``OVERLOADED``    — prefetchers still on; bandwidth has exceeded the
  upper threshold and the timer is running ("machine overloaded").
* ``DISABLED``      — prefetchers off, bandwidth above the lower threshold.
* ``UNDERLOADED``   — prefetchers still off; bandwidth has dropped below
  the lower threshold and the timer is running ("machine underloaded").
"""

from __future__ import annotations

import enum
from typing import List, NamedTuple, Optional, Tuple

from repro.core.config import LimoncelloConfig
from repro.errors import TelemetryError


class ControllerState(enum.Enum):
    """The four states of Figure 8."""

    ENABLED = "enabled"
    OVERLOADED = "overloaded"      # enabled, timing toward disable
    DISABLED = "disabled"
    UNDERLOADED = "underloaded"    # disabled, timing toward enable

    @property
    def prefetchers_enabled(self) -> bool:
        """Whether hardware prefetchers are currently on."""
        return self in _ENABLED_STATES


#: The states with prefetchers on. A tuple, not a frozenset: ``in``
#: finds a member by identity, where a set lookup first hashes it
#: through ``Enum.__hash__``, a Python-level call.
_ENABLED_STATES = (ControllerState.ENABLED, ControllerState.OVERLOADED)


class Decision(NamedTuple):
    """The controller's output for one telemetry sample (a named tuple:
    the controller builds one per tick)."""

    time_ns: float
    utilization: float
    state: ControllerState
    #: True exactly when this sample flipped the prefetcher state.
    changed: bool

    @property
    def prefetchers_enabled(self) -> bool:
        """Whether hardware prefetchers are currently on."""
        return self.state.prefetchers_enabled


class HardLimoncelloController:
    """Consumes utilization samples, decides prefetcher on/off."""

    def __init__(self, config: Optional[LimoncelloConfig] = None,
                 tracer=None, ident: str = "") -> None:
        self.config = config or LimoncelloConfig()
        #: Optional :class:`repro.obs.Tracer`; when set, every state
        #: change (including the OVERLOADED/UNDERLOADED timing states)
        #: emits a ``controller-transition`` event at simulated time.
        self.tracer = tracer
        self.ident = ident
        self._state = ControllerState.ENABLED
        #: When the current timing state was entered (None if not timing).
        self._timing_since: Optional[float] = None
        self._last_time: Optional[float] = None
        self.transitions = 0
        self.decisions: List[Decision] = []

    @property
    def state(self) -> ControllerState:
        """The controller's current state."""
        return self._state

    @property
    def prefetchers_enabled(self) -> bool:
        """Whether hardware prefetchers are currently on."""
        return self._state.prefetchers_enabled

    def observe(self, time_ns: float, utilization: float) -> Decision:
        """Feed one bandwidth-utilization sample; returns the decision.

        ``time_ns`` must be non-decreasing across calls. Gaps (dropped
        samples) are tolerated: the timer still runs on wall time, so a
        threshold crossing that persists through a telemetry dropout still
        flips state once a later sample confirms it.
        """
        if self._last_time is not None and time_ns < self._last_time:
            raise TelemetryError(
                f"controller time moved backwards: {time_ns} < {self._last_time}")
        self._last_time = time_ns

        was_enabled = self.prefetchers_enabled
        upper = self.config.upper_threshold
        lower = self.config.lower_threshold

        if self._state is ControllerState.ENABLED:
            if utilization > upper:
                self._enter(ControllerState.OVERLOADED, time_ns, time_ns)
                self._maybe_expire(time_ns, ControllerState.DISABLED)
        elif self._state is ControllerState.OVERLOADED:
            if utilization <= upper:
                self._enter(ControllerState.ENABLED, None, time_ns)
            else:
                self._maybe_expire(time_ns, ControllerState.DISABLED)
        elif self._state is ControllerState.DISABLED:
            if utilization < lower:
                self._enter(ControllerState.UNDERLOADED, time_ns, time_ns)
                self._maybe_expire(time_ns, ControllerState.ENABLED)
        else:  # UNDERLOADED
            if utilization >= lower:
                self._enter(ControllerState.DISABLED, None, time_ns)
            else:
                self._maybe_expire(time_ns, ControllerState.ENABLED)

        changed = self.prefetchers_enabled != was_enabled
        if changed:
            self.transitions += 1
        decision = Decision(time_ns=time_ns, utilization=utilization,
                            state=self._state, changed=changed)
        self.decisions.append(decision)
        return decision

    def reset(self) -> None:
        """Return to the boot state (prefetchers enabled, no timers).

        Used when the hosting machine restarts: cumulative counters and
        the decision history survive, the volatile control state does
        not — exactly what a daemon respawned by init would see.
        """
        self._state = ControllerState.ENABLED
        self._timing_since = None
        self._last_time = None

    def _enter(self, state: ControllerState, timing_since,
               time_ns: float) -> None:
        if self.tracer and state is not self._state:
            self.tracer.event("controller-transition", time_ns,
                              ident=self.ident, state=state.value,
                              enabled=state.prefetchers_enabled)
        self._state = state
        self._timing_since = timing_since

    def _maybe_expire(self, time_ns: float, target: ControllerState) -> None:
        """Flip to ``target`` if the sustain timer has run out."""
        assert self._timing_since is not None
        if time_ns - self._timing_since >= self.config.sustain_duration_ns:
            self._enter(target, None, time_ns)

    # --- introspection -----------------------------------------------------

    def state_intervals(self) -> List[Tuple[float, float, bool]]:
        """(start, end, prefetchers_enabled) intervals over the decision
        history — the data behind Figure 9's red/green shading."""
        intervals: List[Tuple[float, float, bool]] = []
        if not self.decisions:
            return intervals
        start = self.decisions[0].time_ns
        current = self.decisions[0].prefetchers_enabled
        for decision in self.decisions[1:]:
            if decision.prefetchers_enabled != current:
                intervals.append((start, decision.time_ns, current))
                start = decision.time_ns
                current = decision.prefetchers_enabled
        intervals.append((start, self.decisions[-1].time_ns, current))
        return intervals


class SingleThresholdController:
    """A no-hysteresis baseline: one threshold, immediate flips.

    This is the straw-man the paper's hysteresis design is defending
    against — on volatile bandwidth it toggles prefetchers constantly.
    Used by the hysteresis ablation benchmark.
    """

    def __init__(self, threshold: float = 0.8,
                 tracer=None, ident: str = "") -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.threshold = threshold
        self.tracer = tracer
        self.ident = ident
        self._enabled = True
        self._last_time: Optional[float] = None
        self.transitions = 0
        self.decisions: List[Decision] = []

    @property
    def prefetchers_enabled(self) -> bool:
        """Whether hardware prefetchers are currently on."""
        return self._enabled

    @property
    def state(self) -> ControllerState:
        """The controller's current state."""
        return (ControllerState.ENABLED if self._enabled
                else ControllerState.DISABLED)

    def reset(self) -> None:
        """Return to the boot state (prefetchers enabled)."""
        self._enabled = True
        self._last_time = None

    def observe(self, time_ns: float, utilization: float) -> Decision:
        """Feed one utilization sample; returns the decision."""
        if self._last_time is not None and time_ns < self._last_time:
            raise TelemetryError(
                f"controller time moved backwards: {time_ns} < {self._last_time}")
        self._last_time = time_ns
        desired = utilization <= self.threshold
        changed = desired != self._enabled
        if changed:
            self.transitions += 1
            if self.tracer:
                self.tracer.event(
                    "controller-transition", time_ns, ident=self.ident,
                    state=(ControllerState.ENABLED if desired
                           else ControllerState.DISABLED).value,
                    enabled=desired)
        self._enabled = desired
        decision = Decision(time_ns=time_ns, utilization=utilization,
                            state=self.state, changed=changed)
        self.decisions.append(decision)
        return decision
