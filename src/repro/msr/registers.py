"""The simulated MSR register file."""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro.errors import MSRAccessError, UnknownRegisterError


class MSRFile:
    """A per-socket bank of 64-bit model-specific registers.

    Registers must be declared (with a reset value) before they can be read
    or written, mirroring how real platforms only implement a sparse set of
    addresses; accessing an undeclared address raises
    :class:`~repro.errors.UnknownRegisterError`, as ``rdmsr`` on real
    hardware raises #GP.

    Observers can subscribe to writes; the simulated socket uses this to
    react immediately when the Limoncello actuator flips prefetcher bits.
    """

    _MASK = (1 << 64) - 1

    def __init__(self) -> None:
        self._registers: Dict[int, int] = {}
        self._observers: List[Callable[[int, int], None]] = []
        self.write_count = 0
        self.read_count = 0

    def declare(self, address: int, reset_value: int = 0) -> None:
        """Make ``address`` a valid register with the given reset value.

        Re-declaring a declared address overwrites its value, so it
        counts as a write: ``write_count`` stamps (the socket's and the
        actuator's cached readback) must see it. A first declaration is
        not a write.
        """
        if not 0 <= reset_value <= self._MASK:
            raise ValueError(f"reset value out of 64-bit range: {reset_value:#x}")
        if address in self._registers:
            self.write_count += 1
        self._registers[address] = reset_value

    def declared(self, address: int) -> bool:
        """Whether an address is a valid register."""
        return address in self._registers

    def rdmsr(self, address: int) -> int:
        """Read a register; raises for undeclared addresses."""
        try:
            value = self._registers[address]
        except KeyError:
            raise UnknownRegisterError(address) from None
        self.read_count += 1
        return value

    def wrmsr(self, address: int, value: int) -> None:
        """Write a register; raises for undeclared addresses."""
        if address not in self._registers:
            raise UnknownRegisterError(address)
        if not 0 <= value <= self._MASK:
            raise ValueError(f"value out of 64-bit range: {value:#x}")
        self._registers[address] = value
        self.write_count += 1
        for observer in self._observers:
            observer(address, value)

    def set_bits(self, address: int, mask: int) -> None:
        """Read-modify-write: set every bit in ``mask``."""
        self.wrmsr(address, self.rdmsr(address) | mask)

    def clear_bits(self, address: int, mask: int) -> None:
        """Read-modify-write: clear every bit in ``mask``."""
        self.wrmsr(address, self.rdmsr(address) & ~mask & self._MASK)

    def subscribe(self, observer: Callable[[int, int], None]) -> None:
        """Call ``observer(address, value)`` after every successful write."""
        self._observers.append(observer)


class FaultyMSRFile(MSRFile):
    """An :class:`MSRFile` whose writes can transiently fail.

    Models ``wrmsr`` attempts racing with power-management firmware or the
    msr driver returning ``EBUSY``. The Limoncello daemon must retry rather
    than silently believing the prefetcher state changed.
    """

    def __init__(self, failure_rate: float = 0.0,
                 rng: Optional[random.Random] = None) -> None:
        super().__init__()
        if not 0.0 <= failure_rate < 1.0:
            raise ValueError(f"failure_rate must be in [0, 1), got {failure_rate}")
        self._failure_rate = failure_rate
        self._rng = rng or random.Random(0)
        self.failed_writes = 0

    def wrmsr(self, address: int, value: int) -> None:
        """Write a register; raises for undeclared addresses."""
        if self._failure_rate and self._rng.random() < self._failure_rate:
            self.failed_writes += 1
            raise MSRAccessError(f"transient wrmsr failure at {address:#x}")
        super().wrmsr(address, value)


class DegradingMSRFile(MSRFile):
    """An :class:`MSRFile` whose writes fail permanently after a budget.

    Models a dying msr driver (or firmware lockdown kicking in): the
    first ``fail_after_writes`` writes succeed, every later write raises.
    Reads keep working — the daemon can still see the stuck state, which
    is what its bounded :class:`~repro.core.config.RetryPolicy` and
    incident log are for.
    """

    def __init__(self, fail_after_writes: int) -> None:
        super().__init__()
        if fail_after_writes < 0:
            raise ValueError(
                f"fail_after_writes must be non-negative, got "
                f"{fail_after_writes}")
        self._fail_after_writes = fail_after_writes
        self.failed_writes = 0

    @property
    def broken(self) -> bool:
        """Whether the write budget is exhausted."""
        return self.write_count >= self._fail_after_writes

    def wrmsr(self, address: int, value: int) -> None:
        """Write a register; fails permanently once the budget is spent."""
        if self.broken:
            self.failed_writes += 1
            raise MSRAccessError(
                f"permanent wrmsr failure at {address:#x} after "
                f"{self.write_count} writes")
        super().wrmsr(address, value)
