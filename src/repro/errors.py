"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing programming errors (``TypeError``/``ValueError`` raised
by Python itself) from domain failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError, ValueError):
    """An invalid configuration value was supplied.

    Also a :class:`ValueError`: a bad knob (e.g. ``REPRO_WORKERS=-2``)
    is a bad value, and callers outside this library reasonably catch it
    as one.
    """


class MSRError(ReproError):
    """Base class for simulated model-specific-register failures."""


class UnknownRegisterError(MSRError):
    """A read or write targeted a register address the platform lacks."""

    def __init__(self, address: int) -> None:
        super().__init__(f"unknown MSR address {address:#x}")
        self.address = address


class MSRAccessError(MSRError):
    """An injected fault prevented the register access from completing."""


class SchedulingError(ReproError):
    """The cluster scheduler could not satisfy a placement request."""


class TelemetryError(ReproError):
    """Telemetry collection failed (for example, a sampler dropout)."""


class TraceError(ReproError):
    """A memory trace was malformed or internally inconsistent."""


class QueueInterrupted(ReproError):
    """A checkpointed work-queue stopped before computing every shard.

    Raised by the abort-after knob (``REPRO_QUEUE_ABORT_AFTER``), which
    CI and tests use to interrupt a study at a deterministic point.
    Every shard finished before the interruption is already journaled —
    atomically — so re-running the same study with the same checkpoint
    directory resumes instead of restarting.
    """
