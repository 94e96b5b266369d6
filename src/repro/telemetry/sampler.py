"""Per-socket memory-bandwidth sampling.

The paper's controller is driven by socket-level memory-bandwidth telemetry
collected every 1 second with ``perf`` (Section 3, "Telemetry"). Here the
role of ``perf`` is played by :class:`PerfBandwidthSampler`, which reads the
instantaneous bandwidth of any *source* — a simulated socket, a scripted
profile, or a fleet machine — and converts it to a utilization fraction of
the platform's saturation bandwidth.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional, Protocol

from repro.errors import TelemetryError


class BandwidthSample(NamedTuple):
    """One telemetry reading for a socket (a named tuple: the daemon
    builds one per tick)."""

    time_ns: float
    #: Observed memory bandwidth in bytes/ns (== GB/s).
    bandwidth: float
    #: Bandwidth as a fraction of the socket's saturation bandwidth.
    utilization: float


class BandwidthSource(Protocol):
    """Anything whose memory bandwidth can be observed."""

    @property
    def saturation_bandwidth(self) -> float:
        """The socket's qualified maximum bandwidth, bytes/ns."""

    def memory_bandwidth(self, now_ns: float) -> float:
        """Instantaneous memory bandwidth at ``now_ns``, bytes/ns."""


class BandwidthSampler(Protocol):
    """The interface Hard Limoncello's daemon polls every second."""

    def sample(self, now_ns: float) -> BandwidthSample:
        """Take one bandwidth sample at the given time."""


class PerfBandwidthSampler:
    """Samples a :class:`BandwidthSource`, optionally injecting dropouts.

    Args:
        source: The socket (or stand-in) to observe.
        dropout_rate: Probability that any given sample fails with
            :class:`~repro.errors.TelemetryError`, modelling the profiler
            being descheduled or a counter read failing. The controller
            daemon must tolerate these (it holds its previous state).
        rng: Random source for dropout decisions; supply a seeded
            ``random.Random`` for reproducibility.
    """

    def __init__(self, source: BandwidthSource, dropout_rate: float = 0.0,
                 rng: Optional[random.Random] = None) -> None:
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError(
                f"dropout_rate must be in [0, 1), got {dropout_rate}")
        self._source = source
        self._dropout_rate = dropout_rate
        self._rng = rng or random.Random(0)
        self.samples_taken = 0
        self.samples_dropped = 0

    def sample(self, now_ns: float) -> BandwidthSample:
        """Take one bandwidth sample at the given time."""
        if self._dropout_rate and self._rng.random() < self._dropout_rate:
            self.samples_dropped += 1
            raise TelemetryError(f"bandwidth sample dropped at t={now_ns}ns")
        bandwidth = self._source.memory_bandwidth(now_ns)
        saturation = self._source.saturation_bandwidth
        if saturation <= 0:
            raise TelemetryError("source reports non-positive saturation bandwidth")
        self.samples_taken += 1
        return BandwidthSample(
            time_ns=now_ns,
            bandwidth=bandwidth,
            utilization=bandwidth / saturation,
        )


class ScriptedBandwidthSource:
    """A :class:`BandwidthSource` that replays a scripted profile.

    Useful for unit tests and for reproducing the worked example of
    Figure 9, where a known bandwidth trajectory drives the controller.
    The profile is a sequence of (time_ns, bandwidth) breakpoints;
    lookups return the value of the most recent breakpoint (step-wise
    hold), which mirrors how a counter-based sampler behaves.
    """

    def __init__(self, profile, saturation_bandwidth: float) -> None:
        if saturation_bandwidth <= 0:
            raise ValueError("saturation bandwidth must be positive")
        self._profile = sorted(profile)
        if not self._profile:
            raise ValueError("profile must contain at least one breakpoint")
        self._saturation = float(saturation_bandwidth)

    @property
    def saturation_bandwidth(self) -> float:
        """The source's saturation bandwidth, bytes/ns."""
        return self._saturation

    def memory_bandwidth(self, now_ns: float) -> float:
        """Instantaneous bandwidth at a time, bytes/ns."""
        current = self._profile[0][1]
        for time_ns, value in self._profile:
            if time_ns > now_ns:
                break
            current = value
        return current
