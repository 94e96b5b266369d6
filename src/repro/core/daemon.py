"""The Limoncello per-socket control daemon.

Ties together the three planes of Section 3: telemetry (a bandwidth
sampler polled every second), decision (the hysteresis controller), and
actuation (MSR writes). The daemon is deliberately defensive — the
deployed controller ran fleetwide, where partial failure is the steady
state, so every plane is hardened:

* Telemetry dropouts hold the previous state; NaN or stale samples are
  rejected rather than fed to the controller; and when telemetry stays
  dark past a configurable deadline the daemon *fails safe* by
  re-enabling prefetchers (the hardware-default state) until samples
  return.
* Failed MSR writes are retried under a configurable
  :class:`~repro.core.config.RetryPolicy` — exponential backoff with
  optionally bounded attempts — instead of hammering a possibly-dead
  msr driver every tick.
* An externally perturbed MSR state is detected by readback and
  re-converged.

Everything the daemon detects and does about a fault is recorded as a
structured :class:`Incident` in its :class:`DaemonReport`, which is
what faulted studies aggregate into availability / MTTR numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.actuator import PrefetcherActuator
from repro.core.config import LimoncelloConfig, RetryPolicy
from repro.core.controller import ControllerState, HardLimoncelloController
from repro.errors import TelemetryError
from repro.telemetry.sampler import BandwidthSampler
from repro.telemetry.timeseries import TimeSeries


@dataclass
class Incident:
    """One detected fault: what happened, when, and what the daemon did.

    Attributes:
        kind: Fault class — ``"telemetry-blackout"``,
            ``"actuation-failure"``, or ``"machine-restart"``.
        onset_ns: When the underlying condition began (best estimate —
            for a blackout, the last good sample).
        detected_ns: When the daemon recognized it.
        action: The recovery action taken, human-readable.
        recovered_ns: When the condition cleared, or ``None`` while
            (or if never) unresolved.
    """

    kind: str
    onset_ns: float
    detected_ns: float
    action: str
    recovered_ns: Optional[float] = None

    @property
    def detection_latency_ns(self) -> float:
        """Time from fault onset to the daemon noticing it."""
        return self.detected_ns - self.onset_ns

    @property
    def recovery_ns(self) -> Optional[float]:
        """Time from detection to recovery, or ``None`` if unresolved."""
        if self.recovered_ns is None:
            return None
        return self.recovered_ns - self.detected_ns

    @property
    def resolved(self) -> bool:
        """Whether the incident has recovered."""
        return self.recovered_ns is not None


@dataclass
class DaemonReport:
    """What a daemon observed and did over its run."""

    samples: int = 0
    dropouts: int = 0
    #: Samples delivered but rejected (NaN utilization, stale timestamp).
    invalid_samples: int = 0
    #: Total control ticks (samples + dropouts).
    ticks: int = 0
    actuation_attempts: int = 0
    actuation_failures: int = 0
    transitions: int = 0
    #: Times the telemetry fail-safe engaged (prefetchers re-enabled).
    failsafe_engagements: int = 0
    #: Per-tick actuator state tallies (counted on every tick, unlike
    #: the sample-gated ``prefetcher_state`` series).
    enabled_ticks: int = 0
    disabled_ticks: int = 0
    #: Structured log of detected faults and recovery actions.
    incidents: List[Incident] = field(default_factory=list)
    #: (time_ns, utilization) history of successful samples.
    utilization: TimeSeries = field(default_factory=lambda: TimeSeries("util"))
    #: (time_ns, 1.0/0.0) history of the applied prefetcher state.
    prefetcher_state: TimeSeries = field(
        default_factory=lambda: TimeSeries("prefetchers"))

    def duty_cycle_disabled(self) -> float:
        """Fraction of samples with prefetchers disabled.

        A zero-duration run (no samples) has, by definition, never
        disabled prefetchers — the duty cycle is 0.0, not NaN.
        """
        values = self.prefetcher_state.values
        if not values:
            return 0.0
        return sum(1 for v in values if v == 0.0) / len(values)

    def availability(self) -> float:
        """Fraction of control ticks with usable telemetry (1.0 for a
        zero-duration run: the controller was never unavailable)."""
        if self.ticks == 0:
            return 1.0
        return self.samples / self.ticks

    def open_incidents(self) -> List[Incident]:
        """Incidents not yet recovered."""
        return [i for i in self.incidents if not i.resolved]

    def mean_time_to_recovery_ns(self) -> Optional[float]:
        """Mean (detected -> recovered) time over resolved incidents;
        ``None`` when nothing has recovered."""
        recovered = [i.recovery_ns for i in self.incidents if i.resolved]
        if not recovered:
            return None
        return sum(recovered) / len(recovered)


class LimoncelloDaemon:
    """The per-socket control loop.

    Args:
        sampler: Bandwidth telemetry source (1-second granularity).
        actuator: Applies prefetcher state to the socket.
        config: Thresholds and timing; also used to build the controller
            and carrying the retry policy and fail-safe deadline.
        controller: Optional pre-built controller (ablation studies swap
            in :class:`~repro.core.controller.SingleThresholdController`).
        tracer: Optional :class:`repro.obs.Tracer`; when set, MSR writes,
            fail-safe engagements, and incident open/resolve all emit
            structured events at simulated time. Propagated to the
            controller so its transitions share the same log.
        ident: Stable identity for emitted events, conventionally
            ``"<machine>/<socket>"``.
    """

    def __init__(self, sampler: BandwidthSampler,
                 actuator: PrefetcherActuator,
                 config: Optional[LimoncelloConfig] = None,
                 controller=None, tracer=None, ident: str = "") -> None:
        self.config = config or LimoncelloConfig()
        self.sampler = sampler
        self.actuator = actuator
        self.tracer = tracer
        self.ident = ident
        self.controller = controller if controller is not None \
            else HardLimoncelloController(self.config, tracer=tracer,
                                          ident=ident)
        if controller is not None and tracer \
                and getattr(controller, "tracer", None) is None:
            # A pre-built controller joins this daemon's event stream.
            controller.tracer = tracer
            controller.ident = ident
        self.report = DaemonReport()
        self._pending_state: Optional[bool] = None
        self._retry_failures = 0
        self._next_retry_ns = 0.0
        self._first_tick_ns: Optional[float] = None
        self._last_good_ns: Optional[float] = None
        self._failsafe_active = False
        self._blackout_incident: Optional[Incident] = None
        self._actuation_incident: Optional[Incident] = None

    @property
    def failsafe_active(self) -> bool:
        """Whether the telemetry fail-safe currently holds prefetchers
        enabled."""
        return self._failsafe_active

    def step(self, now_ns: float) -> Optional[ControllerState]:
        """One control tick: sample, validate, decide, actuate.

        Returns the controller state after the tick, or None when no
        usable sample arrived (previous state held, pending actuations
        retried, fail-safe deadline checked).
        """
        self.report.ticks += 1
        if self._first_tick_ns is None:
            self._first_tick_ns = now_ns
        sample = self._sample(now_ns)
        if sample is None:
            self.report.dropouts += 1
            self._on_dark_tick(now_ns)
            self._tally_state()
            return None
        self.report.samples += 1
        self._last_good_ns = now_ns
        if self._failsafe_active:
            self._release_failsafe(now_ns)
        self.report.utilization.append(now_ns, sample.utilization)
        decision = self.controller.observe(now_ns, sample.utilization)
        if decision.changed:
            self.report.transitions += 1
        self._apply(decision.prefetchers_enabled, now_ns)
        self.report.prefetcher_state.append(
            now_ns, 1.0 if self.actuator.is_enabled() else 0.0)
        self._tally_state()
        return decision.state

    def run(self, duration_ns: float, start_ns: float = 0.0) -> DaemonReport:
        """Run ticks every ``config.sample_period_ns`` for ``duration_ns``."""
        if duration_ns < 0:
            raise ValueError(f"duration must be non-negative, got {duration_ns}")
        period = self.config.sample_period_ns
        ticks = int(duration_ns // period)
        for tick in range(ticks):
            self.step(start_ns + tick * period)
        return self.report

    def restart(self, now_ns: float,
                restored_enabled: Optional[bool] = None) -> None:
        """The machine hosting this daemon rebooted: reset the control
        loop's volatile state, keep the (study-owned) report.

        Open incidents are closed — whatever condition they tracked no
        longer describes the freshly booted machine — and the restart
        itself is logged. ``restored_enabled`` records what the restart
        policy did to the prefetcher state, for the incident log.
        """
        for incident in self.report.open_incidents():
            incident.recovered_ns = now_ns
            incident.action += "; cleared by machine restart"
            if self.tracer:
                self.tracer.event(
                    "incident-resolved", now_ns, ident=self.ident,
                    incident=incident.kind,
                    detected_ns=incident.detected_ns, recovered_ns=now_ns)
        reset = getattr(self.controller, "reset", None)
        if callable(reset):
            reset()
        self._pending_state = None
        self._retry_failures = 0
        self._next_retry_ns = 0.0
        self._failsafe_active = False
        self._blackout_incident = None
        self._actuation_incident = None
        self._last_good_ns = None
        self._first_tick_ns = now_ns
        state = {True: "prefetchers enabled", False: "prefetchers disabled",
                 None: "prefetcher state preserved"}[restored_enabled]
        self.report.incidents.append(Incident(
            kind="machine-restart", onset_ns=now_ns, detected_ns=now_ns,
            action=f"controller state reset; {state}",
            recovered_ns=now_ns))
        if self.tracer:
            self.tracer.event("machine-restart", now_ns, ident=self.ident,
                              policy=state)

    # --- internals -----------------------------------------------------------

    def _sample(self, now_ns: float):
        """One validated sample, or None (dropout / NaN / stale)."""
        try:
            sample = self.sampler.sample(now_ns)
        except TelemetryError:
            return None
        # A NaN utilization or a reading older than one sampling period
        # is telemetry noise, not signal; feeding it to the controller
        # could flip prefetcher state on garbage. Treat it as a dropout.
        if not (sample.utilization == sample.utilization):  # NaN check
            self.report.invalid_samples += 1
            return None
        if now_ns - sample.time_ns >= self.config.sample_period_ns:
            self.report.invalid_samples += 1
            return None
        return sample

    def _on_dark_tick(self, now_ns: float) -> None:
        """Bookkeeping for a tick without usable telemetry."""
        if self._failsafe_active:
            # Keep converging on the fail-safe state (the first attempt
            # may have failed and be in backoff).
            self._apply(True, now_ns)
            return
        self._retry_pending(now_ns)
        deadline = self.config.telemetry_failsafe_deadline_ns
        if deadline is None:
            return
        dark_since = (self._last_good_ns if self._last_good_ns is not None
                      else self._first_tick_ns)
        if now_ns - dark_since >= deadline:
            self._engage_failsafe(now_ns, dark_since)

    def _engage_failsafe(self, now_ns: float, dark_since: float) -> None:
        self._failsafe_active = True
        self.report.failsafe_engagements += 1
        self._blackout_incident = Incident(
            kind="telemetry-blackout", onset_ns=dark_since,
            detected_ns=now_ns,
            action="fail-safe: reverting to prefetchers enabled")
        self.report.incidents.append(self._blackout_incident)
        if self.tracer:
            self.tracer.event("failsafe-engaged", now_ns, ident=self.ident,
                              dark_since_ns=dark_since)
            self.tracer.event("incident-open", now_ns, ident=self.ident,
                              incident="telemetry-blackout",
                              onset_ns=dark_since)
        self._apply(True, now_ns)

    def _release_failsafe(self, now_ns: float) -> None:
        self._failsafe_active = False
        if self.tracer:
            self.tracer.event("failsafe-released", now_ns, ident=self.ident)
        if self._blackout_incident is not None:
            self._blackout_incident.recovered_ns = now_ns
            self._blackout_incident.action += "; telemetry recovered"
            if self.tracer:
                self.tracer.event(
                    "incident-resolved", now_ns, ident=self.ident,
                    incident="telemetry-blackout",
                    detected_ns=self._blackout_incident.detected_ns,
                    recovered_ns=now_ns)
            self._blackout_incident = None

    def _tally_state(self) -> None:
        if self.actuator.is_enabled():
            self.report.enabled_ticks += 1
        else:
            self.report.disabled_ticks += 1

    def _apply(self, desired: bool, now_ns: float) -> None:
        """Actuate toward ``desired`` under the retry policy."""
        if self.actuator.is_enabled() == desired:
            self._pending_state = None
            self._retry_failures = 0
            self._close_actuation_incident(now_ns)
            return
        policy: RetryPolicy = self.config.retry_policy
        if self._pending_state != desired:
            # New target state: fresh retry budget; an incident tracking
            # the abandoned target no longer has a recovery to await.
            self._supersede_actuation_incident()
            self._pending_state = desired
            self._retry_failures = 0
            self._next_retry_ns = now_ns
        if now_ns < self._next_retry_ns:
            return  # backing off
        if (policy.max_attempts is not None
                and self._retry_failures >= policy.max_attempts):
            return  # gave up on this target until the decision changes
        self.report.actuation_attempts += 1
        ok = self.actuator.set_enabled(desired)
        if self.tracer:
            self.tracer.event("msr-write", now_ns, ident=self.ident,
                              enabled=desired, ok=ok)
        if ok:
            self._pending_state = None
            self._retry_failures = 0
            self._close_actuation_incident(now_ns)
            return
        self.report.actuation_failures += 1
        self._retry_failures += 1
        self._next_retry_ns = now_ns + policy.backoff_ns(self._retry_failures)
        if self._actuation_incident is None:
            self._actuation_incident = Incident(
                kind="actuation-failure", onset_ns=now_ns,
                detected_ns=now_ns,
                action=("retrying toward prefetchers "
                        + ("enabled" if desired else "disabled")))
            self.report.incidents.append(self._actuation_incident)
            if self.tracer:
                self.tracer.event("incident-open", now_ns, ident=self.ident,
                                  incident="actuation-failure",
                                  onset_ns=now_ns)
        if (policy.max_attempts is not None
                and self._retry_failures >= policy.max_attempts):
            self._actuation_incident.action = (
                f"gave up after {self._retry_failures} attempts; "
                "awaiting controller state change")

    def _close_actuation_incident(self, now_ns: float) -> None:
        if self._actuation_incident is not None:
            self._actuation_incident.recovered_ns = now_ns
            self._actuation_incident.action += "; actuation recovered"
            if self.tracer:
                self.tracer.event(
                    "incident-resolved", now_ns, ident=self.ident,
                    incident="actuation-failure",
                    detected_ns=self._actuation_incident.detected_ns,
                    recovered_ns=now_ns)
            self._actuation_incident = None

    def _supersede_actuation_incident(self) -> None:
        if self._actuation_incident is not None:
            self._actuation_incident.action += "; superseded by new target"
            self._actuation_incident = None

    def _retry_pending(self, now_ns: float) -> None:
        """A dropped sample still retries an actuation that failed earlier."""
        if self._pending_state is not None:
            self._apply(self._pending_state, now_ns)
