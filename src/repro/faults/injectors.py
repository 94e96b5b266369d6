"""Fault injectors: wrappers that sit between the daemon and the world.

Three planes, mirroring how the deployed controller actually fails:

* :class:`FaultyTelemetry` wraps any ``BandwidthSampler`` — dropped
  samples, NaN readings, stale (repeated) samples, sensor latency
  spikes, constant clock skew, and hard blackout windows.
* :class:`FaultyActuation` wraps any ``PrefetcherActuator`` — transient
  write failures, a permanent failure after N successful writes (dead
  msr driver), and torn multi-register writes that leave the socket in
  a mixed prefetcher state.
* :class:`MachineChaos` owns one machine's crash/restart schedule and
  builds the per-socket wrappers above, deriving every random stream
  from :func:`~repro.faults.plan.fault_seed` so an identical plan over
  an identical fleet replays identically — serial or sharded.

The wrappers never touch the fleet's own RNG streams: a fault plan
perturbs the run only through the faults themselves.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.errors import TelemetryError
from repro.faults.plan import FaultClause, FaultPlan, fault_rng
from repro.telemetry.sampler import BandwidthSample


class FaultyTelemetry:
    """A ``BandwidthSampler`` decorator injecting telemetry-plane faults.

    Fault checks run in a fixed order (blackout, drop, NaN, stale,
    latency) with one RNG draw per configured kind, so the stream of
    draws — and therefore the injected fault sequence — is a pure
    function of the injector's seed and the call count.
    """

    def __init__(self, inner, rng, drop_rate: float = 0.0,
                 nan_rate: float = 0.0, stale_rate: float = 0.0,
                 latency_rate: float = 0.0, latency_ns: float = 0.0,
                 skew_ns: float = 0.0,
                 blackouts: Tuple[Tuple[float, float], ...] = ()) -> None:
        self._inner = inner
        self._rng = rng
        self._drop_rate = drop_rate
        self._nan_rate = nan_rate
        self._stale_rate = stale_rate
        self._latency_rate = latency_rate
        self._latency_ns = latency_ns
        self._skew_ns = skew_ns
        self._blackouts = blackouts
        self._last: Optional[BandwidthSample] = None
        self.dropped = 0
        self.nans = 0
        self.stale_served = 0
        self.delayed = 0
        self.blackout_drops = 0

    @classmethod
    def from_plan(cls, inner, plan: FaultPlan, rng) -> "FaultyTelemetry":
        """Build a wrapper configured by the plan's telemetry clauses."""

        def rate(kind: str) -> float:
            clause = plan.clause(kind)
            return float(clause.param("rate")) if clause else 0.0

        latency = plan.clause("telemetry-latency")
        skew = plan.clause("telemetry-skew")
        blackout = plan.clause("telemetry-blackout")
        blackouts: Tuple[Tuple[float, float], ...] = ()
        if blackout is not None:
            start = blackout.time_ns("start")
            blackouts = ((start, start + blackout.time_ns("duration")),)
        return cls(
            inner, rng,
            drop_rate=rate("telemetry-drop"),
            nan_rate=rate("telemetry-nan"),
            stale_rate=rate("telemetry-stale"),
            latency_rate=(float(latency.param("rate")) if latency else 0.0),
            latency_ns=(latency.time_ns("delay") if latency else 0.0),
            skew_ns=(skew.time_ns("offset") if skew else 0.0),
            blackouts=blackouts,
        )

    def sample(self, now_ns: float) -> BandwidthSample:
        """One (possibly faulted) bandwidth sample at ``now_ns``."""
        for start_ns, end_ns in self._blackouts:
            if start_ns <= now_ns < end_ns:
                self.blackout_drops += 1
                raise TelemetryError(
                    f"telemetry blackout at t={now_ns}ns "
                    f"(window {start_ns}..{end_ns})")
        if self._drop_rate and self._rng.random() < self._drop_rate:
            self.dropped += 1
            raise TelemetryError(f"injected sample drop at t={now_ns}ns")
        observed_ns = now_ns + self._skew_ns
        if self._nan_rate and self._rng.random() < self._nan_rate:
            self.nans += 1
            return BandwidthSample(time_ns=observed_ns,
                                   bandwidth=math.nan,
                                   utilization=math.nan)
        if (self._stale_rate and self._last is not None
                and self._rng.random() < self._stale_rate):
            self.stale_served += 1
            return self._last
        if self._latency_rate and self._rng.random() < self._latency_rate:
            self.delayed += 1
            delayed_ns = observed_ns - self._latency_ns
            return self._inner.sample(delayed_ns)
        sample = self._inner.sample(observed_ns)
        self._last = sample
        return sample


class FaultyActuation:
    """A ``PrefetcherActuator`` decorator injecting actuation faults.

    ``msrs``/``msr_map`` (the socket's register file and platform map)
    are only needed for torn writes; without them ``partial_rate`` is
    ignored and the wrapper degrades to transient/permanent failures.
    """

    def __init__(self, inner, rng, transient_rate: float = 0.0,
                 fail_after: Optional[int] = None,
                 partial_rate: float = 0.0, msrs=None,
                 msr_map=None) -> None:
        self._inner = inner
        self._rng = rng
        self._transient_rate = transient_rate
        self._fail_after = fail_after
        self._partial_rate = partial_rate if msrs is not None else 0.0
        self._msrs = msrs
        self._msr_map = msr_map
        self._successful_writes = 0
        self.transient_failures = 0
        self.permanent_failures = 0
        self.torn_writes = 0

    @classmethod
    def from_plan(cls, inner, plan: FaultPlan, rng, msrs=None,
                  msr_map=None) -> "FaultyActuation":
        """Build a wrapper configured by the plan's MSR clauses."""
        transient = plan.clause("msr-transient")
        permanent = plan.clause("msr-permanent")
        partial = plan.clause("msr-partial")
        return cls(
            inner, rng,
            transient_rate=(float(transient.param("rate"))
                            if transient else 0.0),
            fail_after=(int(permanent.param("after"))
                        if permanent else None),
            partial_rate=(float(partial.param("rate")) if partial else 0.0),
            msrs=msrs, msr_map=msr_map,
        )

    @property
    def broken(self) -> bool:
        """Whether the permanent failure has tripped (writes dead)."""
        return (self._fail_after is not None
                and self._successful_writes >= self._fail_after)

    def set_enabled(self, enabled: bool) -> bool:
        """Attempt actuation through the fault model; True on success."""
        if self.broken:
            self.permanent_failures += 1
            return False
        if self._transient_rate and self._rng.random() < self._transient_rate:
            self.transient_failures += 1
            return False
        if self._partial_rate and self._rng.random() < self._partial_rate:
            # A torn write: only the first register of the multi-register
            # sequence lands, leaving a mixed per-core/per-prefetcher
            # state that readback reports as "not enabled".
            self.torn_writes += 1
            register = self._msr_map.registers[0]
            mask = self._msr_map.register_mask(register)
            if enabled:
                self._msrs.clear_bits(register, mask)
            else:
                self._msrs.set_bits(register, mask)
            # Success requires a fully consistent state — on a
            # multi-register platform the torn write leaves the other
            # registers untouched and reports failure.
            if enabled:
                return self._msr_map.all_enabled(self._msrs)
            return self._msr_map.all_disabled(self._msrs)
        if self._inner.set_enabled(enabled):
            self._successful_writes += 1
            return True
        return False

    def is_enabled(self) -> bool:
        """Readback passes straight through to the real actuator."""
        return self._inner.is_enabled()


class MachineChaos:
    """One machine's fault environment: crash schedule + socket wrappers.

    Built per machine by the fleet from ``(plan, fleet seed, machine
    name)``; every random stream derives from those three via
    :func:`~repro.faults.plan.fault_seed`, which is what keeps faulted
    studies bit-identical between serial and sharded execution.
    """

    def __init__(self, plan: FaultPlan, fleet_seed: int,
                 machine_name: str) -> None:
        self.plan = plan
        self._fleet_seed = fleet_seed
        self._machine_name = machine_name
        self._crash: Optional[FaultClause] = plan.clause("machine-crash")
        self._crash_rng = fault_rng(plan.seed, fleet_seed, machine_name,
                                    "crash")
        self.down = False
        self._outage_left = 0
        self.crashes = 0
        self.down_epochs = 0
        self.telemetry_wrappers: List[FaultyTelemetry] = []
        self.actuation_wrappers: List[FaultyActuation] = []

    # --- socket wrappers --------------------------------------------------------

    def wrap_sampler(self, inner, socket_index: int) -> FaultyTelemetry:
        """The plan's telemetry wrapper for one socket's sampler."""
        rng = fault_rng(self.plan.seed, self._fleet_seed,
                        self._machine_name, f"telemetry:{socket_index}")
        wrapper = FaultyTelemetry.from_plan(inner, self.plan, rng)
        self.telemetry_wrappers.append(wrapper)
        return wrapper

    def wrap_actuator(self, inner, socket) -> FaultyActuation:
        """The plan's actuation wrapper for one socket's actuator."""
        rng = fault_rng(self.plan.seed, self._fleet_seed,
                        self._machine_name, f"msr:{socket.index}")
        wrapper = FaultyActuation.from_plan(inner, self.plan, rng,
                                            msrs=socket.msrs,
                                            msr_map=socket.msr_map)
        self.actuation_wrappers.append(wrapper)
        return wrapper

    # --- crash/restart schedule -------------------------------------------------

    @property
    def restart_policy(self) -> str:
        """Prefetcher state policy applied when the machine reboots."""
        if self._crash is None:
            return "enabled"
        return str(self._crash.param("restart"))

    def advance(self) -> str:
        """Advance one epoch; returns ``"up"``, ``"down"``, or
        ``"restart"`` (the machine comes back up *this* epoch)."""
        if self.down:
            if self._outage_left > 0:
                self._outage_left -= 1
                self.down_epochs += 1
                return "down"
            self.down = False
            return "restart"
        if self._crash is not None:
            rate = float(self._crash.param("rate"))
            if rate and self._crash_rng.random() < rate:
                self.crashes += 1
                # The crash epoch itself is lost; the configured outage
                # counts the *additional* epochs the machine stays dark.
                self.down = True
                self._outage_left = int(self._crash.param("outage"))
                self.down_epochs += 1
                return "down"
        return "up"
