"""Common interface for hardware prefetcher models."""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple


class HardwarePrefetcher:
    """Base class: observe demand accesses, propose line addresses to fetch.

    Subclasses implement :meth:`_observe`; this base class handles the
    enable switch (driven, ultimately, by the simulated MSR bits) and the
    issue counter. A disabled prefetcher neither trains nor issues, which
    matches how the MSR disable bits behave on real parts.

    ``enabled`` is a property: flipping it notifies any registered
    watchers (``_enabled_watchers``), which is how a
    :class:`~repro.memsys.prefetchers.bank.PrefetcherBank` keeps its
    enabled-prefetcher snapshot coherent without re-scanning the bank on
    every simulated access.

    **Lockstep protocol.** The batched lockstep engine
    (:mod:`repro.memsys.batched`) evolves one prefetcher *clone* for a
    whole batch of machine-arms, exploiting the fact that ``observe`` is
    a pure function of arm-uniform inputs. A model that opts in sets
    :attr:`lockstep_safe` and implements the four state hooks
    (:meth:`lockstep_params`, :meth:`training_fingerprint`,
    :meth:`clone_for_lockstep`, :meth:`adopt_training`) plus — when it
    carries counters beyond ``issued`` — the counter pair
    (:meth:`counter_signature` / :meth:`apply_counter_delta`). The
    contract: the fingerprint must cover *every* bit of mutable training
    state that can steer future proposals, and a clone must evolve
    exactly as the original would. Subclasses that add training state
    without extending the hooks must leave ``lockstep_safe`` False. A
    model may also state :attr:`max_proposals`.
    """

    #: Whether the batched lockstep engine may clone this prefetcher and
    #: evolve the clone once per batch. Built-in models opt in; custom
    #: subclasses default to scalar execution until they implement the
    #: lockstep protocol themselves.
    lockstep_safe = False

    #: Most lines one ``observe`` call can return, or None for no stated
    #: bound. A lockstep group passes over caches it shares with no one
    #: else in place only when every enabled prefetcher states one: the
    #: bound proves the pass cannot reach the in-flight prune.
    max_proposals: Optional[int] = None

    def __init__(self, name: str) -> None:
        self.name = name
        self._enabled = True
        #: Zero-argument callbacks invoked whenever ``enabled`` flips.
        self._enabled_watchers: List[Callable[[], None]] = []
        self.issued = 0

    @property
    def enabled(self) -> bool:
        """Whether the prefetcher trains and issues."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        value = bool(value)
        if value == self._enabled:
            return
        self._enabled = value
        for watcher in self._enabled_watchers:
            watcher()

    def observe(self, line: int, pc: int, was_hit: bool) -> List[int]:
        """Feed one demand access; returns line addresses to prefetch.

        Args:
            line: Line-aligned address of the demand access.
            pc: Program counter of the access (stride tables key on it).
            was_hit: Whether the access hit in the cache the prefetcher
                observes (some policies only train on misses).
        """
        if not self._enabled:
            return []
        lines = self._observe(line, pc, was_hit)
        self.issued += len(lines)
        return lines

    def _observe(self, line: int, pc: int, was_hit: bool) -> List[int]:
        raise NotImplementedError

    def reset(self) -> None:
        """Drop all training state (counters are preserved)."""

    # --- lockstep protocol ----------------------------------------------------

    def lockstep_params(self) -> Tuple:
        """Immutable configuration, for the batch grouping key.

        Two prefetchers whose params match propose identical lines from
        identical training state; the class and bank name are included so
        differently-shaped banks can never alias.
        """
        raise NotImplementedError

    def training_fingerprint(self) -> Tuple:
        """Hashable summary of all mutable training state, order included.

        Arms group into one lockstep batch only when their fingerprints
        match — table iteration order matters (LRU victim selection reads
        it), so implementations must preserve it, and counters are
        excluded (they never steer proposals).
        """
        raise NotImplementedError

    def clone_for_lockstep(self) -> "HardwarePrefetcher":
        """A fresh instance carrying a copy of the training state.

        The clone starts with zeroed counters (so its post-run counter
        signature *is* the batch delta) and no enabled-watchers (it must
        never alias a bank or a hierarchy). ``copy.deepcopy`` is wrong
        here — ``_enabled_watchers`` holds callbacks into the owning
        bank — hence the explicit constructor-plus-copy shape.
        """
        raise NotImplementedError

    def adopt_training(self, source: "HardwarePrefetcher") -> None:
        """Copy the evolved training state from a lockstep clone.

        Called once per arm at batch export; must deep-copy (each arm
        needs its own mutable tables) and must not touch counters.
        """
        raise NotImplementedError

    def counter_signature(self) -> Tuple[int, ...]:
        """The counters a run may advance, in a fixed per-class order."""
        return (self.issued,)

    def apply_counter_delta(self, delta: Tuple[int, ...]) -> None:
        """Add a lockstep clone's counter signature onto this instance."""
        self.issued += delta[0]
