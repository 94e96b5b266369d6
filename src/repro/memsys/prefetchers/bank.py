"""A bank of hardware prefetchers wired to simulated MSR controls."""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError
from repro.msr.platform_defs import PlatformMSRMap
from repro.msr.registers import MSRFile
from repro.memsys.prefetchers.base import HardwarePrefetcher
from repro.memsys.prefetchers.nextline import AdjacentLinePrefetcher, NextLinePrefetcher
from repro.memsys.prefetchers.stride import StridePrefetcher
from repro.memsys.prefetchers.stream import StreamPrefetcher


def _weak_callback(method) -> Callable:
    """``method`` through a weak reference: a bound method registered
    with an object the bank holds would close a reference cycle. Once
    the bank is gone the callback does nothing."""
    ref = weakref.WeakMethod(method)

    def callback(*args) -> None:
        target = ref()
        if target is not None:
            target(*args)

    return callback


class PrefetcherBank:
    """All hardware prefetchers of one core, with MSR-driven enables.

    When bound to an :class:`~repro.msr.MSRFile` via
    :meth:`bind_msr`, each prefetcher's ``enabled`` flag tracks its disable
    bit in the platform's register map — i.e., the Limoncello actuator's
    ``wrmsr`` calls take effect here, just as they do on real hardware.
    """

    def __init__(self, prefetchers: Iterable[HardwarePrefetcher]) -> None:
        self._prefetchers: Dict[str, HardwarePrefetcher] = {}
        for prefetcher in prefetchers:
            if prefetcher.name in self._prefetchers:
                raise ConfigError(f"duplicate prefetcher name {prefetcher.name!r}")
            self._prefetchers[prefetcher.name] = prefetcher
        self._msr_map: Optional[PlatformMSRMap] = None
        self._msr_file: Optional[MSRFile] = None
        #: Cached list of currently enabled prefetchers, bank order.
        #: ``None`` means stale; every ``enabled`` flip (direct, via
        #: set_all, or via an MSR write) invalidates it through the
        #: prefetchers' enabled-watcher hooks. The fast engine reads this
        #: so a fully disabled bank costs one truthiness check per access.
        self._snapshot: Optional[List[HardwarePrefetcher]] = None
        invalidate = _weak_callback(self._invalidate_snapshot)
        for prefetcher in self._prefetchers.values():
            prefetcher._enabled_watchers.append(invalidate)

    # --- direct control ------------------------------------------------------

    def __iter__(self):
        return iter(self._prefetchers.values())

    def __getitem__(self, name: str) -> HardwarePrefetcher:
        try:
            return self._prefetchers[name]
        except KeyError:
            raise ConfigError(f"no prefetcher named {name!r}") from None

    def names(self) -> List[str]:
        """All known names, in insertion order."""
        return list(self._prefetchers)

    def set_all(self, enabled: bool) -> None:
        """Enable or disable every prefetcher in the bank."""
        for prefetcher in self._prefetchers.values():
            prefetcher.enabled = enabled

    @property
    def any_enabled(self) -> bool:
        """Whether at least one prefetcher is enabled."""
        return any(p.enabled for p in self._prefetchers.values())

    def _invalidate_snapshot(self) -> None:
        self._snapshot = None

    def enabled_prefetchers(self) -> List[HardwarePrefetcher]:
        """Currently enabled prefetchers, bank order (cached snapshot).

        The returned list is owned by the bank and must not be mutated;
        it stays valid until any prefetcher's ``enabled`` flag flips.
        """
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = self._snapshot = [
                p for p in self._prefetchers.values() if p.enabled]
        return snapshot

    @property
    def total_issued(self) -> int:
        """Prefetch lines proposed across the bank's lifetime."""
        return sum(p.issued for p in self._prefetchers.values())

    # --- lockstep protocol -----------------------------------------------------

    def lockstep_safe(self) -> bool:
        """Whether every *enabled* prefetcher supports lockstep cloning.

        Disabled prefetchers are inert during a run (no training, no
        proposals), so they never gate batching; an empty or fully
        disabled bank is vacuously safe.
        """
        return all(p.lockstep_safe for p in self.enabled_prefetchers())

    def config_signature(self) -> Tuple:
        """Immutable bank configuration, bank order — grouping key input.

        Covers *every* member (the composition is fixed at construction,
        so this is cacheable for the hierarchy's lifetime); which members
        are enabled is runtime state and lives in
        :meth:`state_fingerprint` instead.
        """
        return tuple(p.lockstep_params() if p.lockstep_safe else
                     (type(p).__name__, p.name)
                     for p in self._prefetchers.values())

    def state_fingerprint(self) -> Tuple:
        """Hashable summary of the bank state that steers proposals.

        The enabled mask (bank order) plus every prefetcher's training
        fingerprint, disabled ones included: a disabled prefetcher's
        training steers proposals again once an MSR write enables it. A
        member without the lockstep protocol stands for itself (by
        identity), so no two such banks compare equal.
        """
        prefetchers = self._prefetchers.values()
        return (tuple(p.enabled for p in prefetchers),
                tuple(p.training_fingerprint() if p.lockstep_safe else p
                      for p in prefetchers))

    def clone_enabled_for_lockstep(self) -> List[HardwarePrefetcher]:
        """Fresh clones of the enabled prefetchers, bank order.

        Clones carry copied training state, zeroed counters, and no
        watchers — the batch evolves them once and every arm adopts the
        result.
        """
        return [p.clone_for_lockstep() for p in self.enabled_prefetchers()]

    def reset(self) -> None:
        """Drop all training/tracking state (counters survive)."""
        for prefetcher in self._prefetchers.values():
            prefetcher.reset()

    # --- observation ----------------------------------------------------------

    def observe(self, line: int, pc: int, was_hit: bool) -> List[int]:
        """Feed a demand access to every enabled prefetcher."""
        lines: List[int] = []
        for prefetcher in self._prefetchers.values():
            lines.extend(prefetcher.observe(line, pc, was_hit))
        return lines

    def accept_hint(self, start: int, length: int) -> bool:
        """Deliver a software stream hint (Section 8.3 interface) to every
        enabled prefetcher that understands hints. Returns whether any
        prefetcher accepted it (hints are ignored by legacy engines,
        exactly as an unsupported ISA hint would be)."""
        accepted = False
        for prefetcher in self._prefetchers.values():
            handler = getattr(prefetcher, "accept_hint", None)
            if handler is not None and prefetcher.enabled:
                handler(start, length)
                accepted = True
        return accepted

    # --- MSR wiring -------------------------------------------------------------

    def bind_msr(self, msr_file: MSRFile, msr_map: PlatformMSRMap) -> None:
        """Slave the enable flags to the platform's MSR disable bits.

        Every prefetcher in the bank must have a control in the map (the
        paper disables *all* platform prefetchers, so an uncontrolled one
        would silently undermine Hard Limoncello).
        """
        control_names = {control.name for control in msr_map.controls}
        missing = set(self._prefetchers) - control_names
        if missing:
            raise ConfigError(
                f"prefetchers lack MSR controls on this platform: {sorted(missing)}")
        msr_map.declare_registers(msr_file)
        self._msr_map = msr_map
        self._msr_file = msr_file
        msr_file.subscribe(_weak_callback(self._on_msr_write))
        self._sync_from_msr()

    def _on_msr_write(self, address: int, value: int) -> None:
        if self._msr_map is None:
            return
        if address in self._msr_map.registers:
            self._sync_from_msr()

    def _sync_from_msr(self) -> None:
        assert self._msr_map is not None and self._msr_file is not None
        state = self._msr_map.enabled_prefetchers(self._msr_file)
        for name, prefetcher in self._prefetchers.items():
            prefetcher.enabled = state[name]


def default_prefetcher_bank(aggressive: bool = True) -> PrefetcherBank:
    """The standard four-prefetcher complement of the modelled platforms.

    Names match :data:`repro.msr.INTEL_LIKE_MAP` so the bank can be bound
    to that register map directly.

    Args:
        aggressive: When True (the default, matching current server parts),
            the streamer uses a long distance and high degree — the
            coverage-over-traffic tuning the paper's Section 2.1 describes.
    """
    if aggressive:
        stream = StreamPrefetcher(distance=16, degree=4)
    else:
        stream = StreamPrefetcher(distance=8, degree=2)
    return PrefetcherBank([
        NextLinePrefetcher(name="l1_next_line", degree=1),
        StridePrefetcher(name="l1_stride"),
        stream,
        AdjacentLinePrefetcher(name="l2_adjacent_line"),
    ])
