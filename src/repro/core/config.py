"""Configuration for the Limoncello controller and daemon."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.units import SECOND


@dataclass(frozen=True)
class RetryPolicy:
    """How the daemon retries failed actuations.

    The defaults reproduce the original ad-hoc behaviour — retry on
    every subsequent tick, forever — so existing configurations are
    unchanged. Hardened deployments (and faulted studies) bound the
    attempts and space them out exponentially, which is what keeps a
    daemon from hammering a dead msr driver every second fleetwide.

    Attributes:
        max_attempts: Consecutive failed attempts toward one target
            state before the daemon gives up until the controller's
            decision changes. ``None`` means unbounded.
        initial_backoff_ns: Wait after the first failure before the
            next attempt. ``0`` retries on the next tick.
        backoff_multiplier: Growth factor per subsequent failure.
        max_backoff_ns: Upper bound on the computed backoff.
    """

    max_attempts: Optional[int] = None
    initial_backoff_ns: float = 0.0
    backoff_multiplier: float = 2.0
    max_backoff_ns: float = 60.0 * SECOND

    def __post_init__(self) -> None:
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be at least 1 (or None for "
                f"unbounded), got {self.max_attempts}")
        if self.initial_backoff_ns < 0:
            raise ConfigError("initial backoff cannot be negative")
        if self.backoff_multiplier < 1.0:
            raise ConfigError(
                f"backoff multiplier must be >= 1, got "
                f"{self.backoff_multiplier}")
        if self.max_backoff_ns < self.initial_backoff_ns:
            raise ConfigError("max backoff cannot undercut the initial "
                              "backoff")

    def backoff_ns(self, failures: int) -> float:
        """Wait before the next attempt after ``failures`` consecutive
        failures (``failures >= 1``)."""
        if failures < 1:
            raise ConfigError(
                f"backoff is defined after at least one failure, got "
                f"{failures}")
        backoff = (self.initial_backoff_ns
                   * self.backoff_multiplier ** (failures - 1))
        return min(backoff, self.max_backoff_ns)

    @classmethod
    def exponential(cls, max_attempts: int = 6,
                    initial_backoff_ns: float = 1.0 * SECOND,
                    backoff_multiplier: float = 2.0,
                    max_backoff_ns: float = 60.0 * SECOND) -> "RetryPolicy":
        """The hardened default: bounded attempts, exponential spacing."""
        return cls(max_attempts=max_attempts,
                   initial_backoff_ns=initial_backoff_ns,
                   backoff_multiplier=backoff_multiplier,
                   max_backoff_ns=max_backoff_ns)


@dataclass(frozen=True)
class LimoncelloConfig:
    """Hard Limoncello's operating parameters.

    The deployed configuration (Section 5) uses thresholds at 60% and 80%
    of the platform's memory-bandwidth saturation, chosen by the fleet
    threshold study (Figure 10), with telemetry sampled every second.

    Attributes:
        lower_threshold: Utilization (fraction of saturation bandwidth)
            below which prefetchers are re-enabled.
        upper_threshold: Utilization above which prefetchers are disabled.
        sustain_duration_ns: How long bandwidth must stay beyond a
            threshold before the controller changes prefetcher state —
            the second hysteresis mechanism of Section 3.
        sample_period_ns: Telemetry sampling period (1 s in the paper).
        actuation_retries: wrmsr attempts before giving up on a transient
            MSR failure; the daemon retries on the next sample anyway.
        retry_policy: How the daemon spaces and bounds those next-sample
            retries (default: legacy behaviour — every tick, unbounded).
        telemetry_failsafe_deadline_ns: When telemetry stays dark (no
            usable sample) at least this long, the daemon fails safe by
            re-enabling prefetchers — the hardware-default state — and
            logs an incident. ``None`` (default) disables the rule.
    """

    lower_threshold: float = 0.60
    upper_threshold: float = 0.80
    sustain_duration_ns: float = 5.0 * SECOND
    sample_period_ns: float = 1.0 * SECOND
    actuation_retries: int = 3
    retry_policy: RetryPolicy = RetryPolicy()
    telemetry_failsafe_deadline_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.lower_threshold < self.upper_threshold:
            raise ConfigError(
                f"need 0 < lower ({self.lower_threshold}) < upper "
                f"({self.upper_threshold})")
        if self.upper_threshold > 1.0:
            raise ConfigError(
                f"upper threshold {self.upper_threshold} exceeds saturation")
        if self.sustain_duration_ns < 0:
            raise ConfigError("sustain duration cannot be negative")
        if self.sample_period_ns <= 0:
            raise ConfigError("sample period must be positive")
        if self.actuation_retries < 1:
            raise ConfigError("need at least one actuation attempt")
        if (self.telemetry_failsafe_deadline_ns is not None
                and self.telemetry_failsafe_deadline_ns <= 0):
            raise ConfigError("fail-safe deadline must be positive "
                              "(or None to disable)")

    @classmethod
    def from_percent(cls, lower: float, upper: float,
                     **kwargs) -> "LimoncelloConfig":
        """Build a config from thresholds given in percent (e.g. 60, 80),
        the way the paper writes configurations like "60/80"."""
        return cls(lower_threshold=lower / 100.0,
                   upper_threshold=upper / 100.0, **kwargs)

    @property
    def label(self) -> str:
        """The paper's X/Y configuration label, e.g. ``"60/80"``."""
        return (f"{round(self.lower_threshold * 100)}/"
                f"{round(self.upper_threshold * 100)}")
