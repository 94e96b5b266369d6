"""Per-platform prefetcher control register definitions.

"The register addresses and values vary for different vendors/platforms.
For a given platform, we disable all prefetchers in the platform."
(Section 3.) We model two vendor families with deliberately different
register layouts so the actuator code must genuinely dispatch on platform,
as the deployed system does:

* An Intel-like layout: one ``MISC_FEATURE_CONTROL`` register at ``0x1A4``
  where *setting* a bit *disables* the corresponding prefetcher.
* An AMD-like layout: two ``DE_CFG``-style registers where prefetchers are
  controlled by disable bits spread across both registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ConfigError
from repro.msr.registers import MSRFile


@dataclass(frozen=True)
class PrefetcherControl:
    """Where one prefetcher's disable bit lives."""

    name: str
    register: int
    disable_bit: int

    @property
    def mask(self) -> int:
        """Bit mask for this control's disable bit."""
        return 1 << self.disable_bit


class PlatformMSRMap:
    """The set of prefetcher controls for one platform generation."""

    def __init__(self, vendor: str, controls: Tuple[PrefetcherControl, ...]) -> None:
        if not controls:
            raise ConfigError("a platform MSR map needs at least one control")
        names = [control.name for control in controls]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate prefetcher names in MSR map: {names}")
        self.vendor = vendor
        self.controls = controls
        self._registers = tuple(sorted({control.register for control in controls}))
        #: ``(register, combined disable mask)`` per register, for the
        #: all-enabled / all-disabled readbacks.
        self._masks = tuple(
            (register, self._register_mask(register)) for register in self._registers
        )

    @property
    def registers(self) -> Tuple[int, ...]:
        """Distinct register addresses used by this map, sorted."""
        return self._registers

    def control(self, name: str) -> PrefetcherControl:
        """Look up a prefetcher control by name."""
        for candidate in self.controls:
            if candidate.name == name:
                return candidate
        raise ConfigError(f"platform has no prefetcher named {name!r}")

    def declare_registers(self, msr_file: MSRFile) -> None:
        """Declare every register this map needs (reset: all enabled)."""
        for register in self.registers:
            if not msr_file.declared(register):
                msr_file.declare(register, reset_value=0)

    def register_mask(self, register: int) -> int:
        """Combined disable-bit mask of every control in ``register``.

        Fault injectors use this to model torn multi-register writes —
        flipping one register's controls while leaving the rest alone.
        """
        return self._register_mask(register)

    def disable_all(self, msr_file: MSRFile) -> None:
        """Set every disable bit — the actuation Hard Limoncello performs."""
        for register, mask in self._masks:
            msr_file.set_bits(register, mask)

    def enable_all(self, msr_file: MSRFile) -> None:
        """Clear every disable bit."""
        for register, mask in self._masks:
            msr_file.clear_bits(register, mask)

    def disable_one(self, msr_file: MSRFile, name: str) -> None:
        """Set one prefetcher's disable bit."""
        control = self.control(name)
        msr_file.set_bits(control.register, control.mask)

    def enable_one(self, msr_file: MSRFile, name: str) -> None:
        """Clear one prefetcher's disable bit."""
        control = self.control(name)
        msr_file.clear_bits(control.register, control.mask)

    def enabled_prefetchers(self, msr_file: MSRFile) -> Dict[str, bool]:
        """Map of prefetcher name -> enabled, as read back from registers."""
        state = {}
        for control in self.controls:
            value = msr_file.rdmsr(control.register)
            state[control.name] = not (value & control.mask)
        return state

    def all_enabled(self, msr_file: MSRFile) -> bool:
        """True iff every prefetcher reads back enabled: no disable bit
        set in any register (one read per register)."""
        return not any([msr_file.rdmsr(register) & mask for register, mask in self._masks])

    def all_disabled(self, msr_file: MSRFile) -> bool:
        """True iff every prefetcher reads back disabled: every disable
        bit set in every register (one read per register)."""
        return all([msr_file.rdmsr(register) & mask == mask for register, mask in self._masks])

    def _register_mask(self, register: int) -> int:
        mask = 0
        for control in self.controls:
            if control.register == register:
                mask |= control.mask
        return mask


#: MISC_FEATURE_CONTROL-style layout: four prefetchers, one register.
INTEL_LIKE_MAP = PlatformMSRMap(
    vendor="intel-like",
    controls=(
        PrefetcherControl("l2_stream", register=0x1A4, disable_bit=0),
        PrefetcherControl("l2_adjacent_line", register=0x1A4, disable_bit=1),
        PrefetcherControl("l1_stride", register=0x1A4, disable_bit=2),
        PrefetcherControl("l1_next_line", register=0x1A4, disable_bit=3),
    ),
)

#: DE_CFG-style layout: controls spread across two registers.
AMD_LIKE_MAP = PlatformMSRMap(
    vendor="amd-like",
    controls=(
        PrefetcherControl("l1_stride", register=0xC0000108, disable_bit=1),
        PrefetcherControl("l1_region", register=0xC0000108, disable_bit=3),
        PrefetcherControl("l2_stream", register=0xC0000110, disable_bit=0),
        PrefetcherControl("l2_up_down", register=0xC0000110, disable_bit=5),
    ),
)

_VENDOR_MAPS = {
    "intel-like": INTEL_LIKE_MAP,
    "amd-like": AMD_LIKE_MAP,
}


def msr_map_for_vendor(vendor: str) -> PlatformMSRMap:
    """Look up the MSR map for a vendor family."""
    try:
        return _VENDOR_MAPS[vendor]
    except KeyError:
        raise ConfigError(
            f"unknown vendor {vendor!r}; known: {sorted(_VENDOR_MAPS)}") from None
