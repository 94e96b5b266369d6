"""Actuating prefetcher controls.

"The controller in Limoncello enables and disables hardware prefetchers by
writing to the model-specific registers (MSRs) for prefetchers. The
register addresses and values vary for different vendors/platforms. For a
given platform, we disable all prefetchers in the platform." (Section 3.)

:class:`MSRPrefetcherActuator` implements exactly that against the
simulated MSR layer, including readback verification and bounded retries
for transient ``wrmsr`` failures.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.errors import MSRAccessError
from repro.msr.platform_defs import PlatformMSRMap
from repro.msr.registers import MSRFile


class PrefetcherActuator(Protocol):
    """What the daemon needs: set the prefetcher state, report it back."""

    def set_enabled(self, enabled: bool) -> bool:
        """Try to apply ``enabled``; returns True when verified applied."""

    def is_enabled(self) -> bool:
        """Current state as read back from the hardware."""


class MSRPrefetcherActuator:
    """Flips every prefetcher disable bit in the platform's MSR map."""

    def __init__(self, msr_file: MSRFile, msr_map: PlatformMSRMap,
                 retries: int = 3) -> None:
        if retries < 1:
            raise ValueError(f"retries must be at least 1, got {retries}")
        self._msrs = msr_file
        self._map = msr_map
        self._retries = retries
        msr_map.declare_registers(msr_file)
        self.actuations = 0
        self.failed_actuations = 0
        # is_enabled's cached readback, and the register file's
        # ``write_count`` when it was read.
        self._stamp = -1
        self._enabled = True

    def set_enabled(self, enabled: bool) -> bool:
        """Write the disable bits, verifying by readback; retries transient
        failures up to the configured bound. Returns success."""
        for _ in range(self._retries):
            try:
                if enabled:
                    self._map.enable_all(self._msrs)
                else:
                    self._map.disable_all(self._msrs)
            except MSRAccessError:
                continue
            if self.is_enabled() == enabled:
                self.actuations += 1
                return True
        self.failed_actuations += 1
        return False

    def is_enabled(self) -> bool:
        """True iff every prefetcher reads back enabled.

        A socket with a partial (mixed) state reports disabled, which
        makes the daemon re-actuate toward a consistent state.

        The readback is cached, stamped by the register file's
        ``write_count``: every successful write (and every re-declared
        register) moves it, and failed writes raise before changing
        anything. A daemon tick reads the state several times.
        """
        msrs = self._msrs
        if msrs.write_count != self._stamp:
            self._enabled = self._map.all_enabled(msrs)
            self._stamp = msrs.write_count
        return self._enabled


class CallbackActuator:
    """An actuator that calls a function — used by tests and by fleet
    machines whose sockets expose a direct toggle."""

    def __init__(self, apply: Callable[[bool], None],
                 initial_enabled: bool = True) -> None:
        self._apply = apply
        self._enabled = initial_enabled
        self.actuations = 0

    def set_enabled(self, enabled: bool) -> bool:
        """Apply the prefetcher state; returns True when verified."""
        self._apply(enabled)
        self._enabled = enabled
        self.actuations += 1
        return True

    def is_enabled(self) -> bool:
        """Current prefetcher state as known to this actuator."""
        return self._enabled
