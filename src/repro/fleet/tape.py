"""The driver tape: one shard's fleet driver, recorded once.

The arms of a paired fleet study (the rollout's before/Hard/full, an
ablation's control/experiment) run fleets built from the same seed.
Under a prefetch-unaware scheduler they place the same tasks on the
same sockets, drain the same ones and draw the same noise, because none
of those decisions reads prefetcher state. So the first such arm
records its driver on a tape, and the sibling arms replay it instead of
recomputing it (DESIGN.md §6, "Driver tape"). Chaos, daemons, sockets,
profilers and metrics still run per arm.
"""

from __future__ import annotations

from array import array
from typing import List, Tuple

from repro.engine import slow_engine_requested
from repro.fleet.task import Task


class TapeEpoch:
    """One recorded epoch of a fleet's driver."""

    __slots__ = ("target", "placed", "drained", "rejections", "noise", "slots", "solves")

    def __init__(self) -> None:
        #: The traffic target (load fraction).
        self.target = 0.0
        #: ``(socket ordinal, task)`` per placement, then per drain, in
        #: order; a socket's ordinal is its position in the fleet's
        #: machine-major socket list.
        self.placed: List[Tuple[int, Task]] = []
        self.drained: List[Tuple[int, Task]] = []
        #: Placement failures this epoch.
        self.rejections = 0
        #: Per machine: the demand factor, then every task's noise in
        #: socket and task order. Machine ``m``'s slot is
        #: ``noise[slots[m]:slots[m + 1]]``, empty while chaos has it down.
        self.noise = array("d")
        self.slots = array("l", (0,))
        #: Four floats per socket, machine-major: start load, end load,
        #: latency and qps before the toggle penalty. The start load is
        #: NaN when the recorder's prefetchers were off, so no replay can
        #: match it (see :meth:`SimulatedSocket.step`).
        self.solves = array("d")


class DriverTape:
    """A fleet driver's epochs, in order, for sibling arms to replay."""

    def __init__(self) -> None:
        self.epochs: List[TapeEpoch] = []


def new_tape():
    """A fresh tape for a study's arms, or ``None`` on the reference
    path (``$REPRO_SLOW_ENGINE``), where every arm drives itself."""
    return None if slow_engine_requested() else DriverTape()
