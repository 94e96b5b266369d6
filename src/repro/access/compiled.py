"""Compiled traces: a :class:`Trace` lowered once into flat int columns.

The cycle-level simulator's inner loop is the hottest code in the
repository — every paper figure, ablation arm, and fleet calibration
funnels through it. Iterating :class:`~repro.access.record.MemoryAccess`
dataclasses there pays an attribute lookup per field, an enum identity
check per kind test, and a ``range`` allocation per ``lines_touched()``
call, for every record, on every run.

:class:`CompiledTrace` pays those costs once. A single pass lowers the
records into parallel columns of plain ints — line-aligned address,
extra-lines count (0 for the dominant single-line access), kind as a
small int (:data:`~repro.access.record.KIND_CODES`), pc, gap cycles, and
an interned function id — so the hot loop touches nothing but ints,
walking the columns with one ``zip``.

The columns are the only copy of the records. Every column but
``lines`` is a typed ``array('q')`` (8 bytes a record, no int objects).
``lines`` stays a ``list``: its int objects are the keys that cache
sets, in-flight tables and recent-miss histories store, so arms that
replay one trace share them instead of each holding fresh ints. A
value outside the signed 64-bit range raises ``OverflowError`` when the
columns are built, never wraps.

Compilation is cached on the owning :class:`~repro.access.trace.Trace`
(traces are immutable by convention), so repeated runs of the same trace —
ablation on/off arms, threshold sweeps, calibration passes — compile once.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List

from repro.access.record import KIND_CODES, MemoryAccess
from repro.units import CACHE_LINE_BYTES

#: Column names in record-field order; every one but ``lines`` is an
#: ``array('q')``.
COLUMNS = ("kinds", "lines", "extras", "pcs", "gaps", "fids", "addrs",
           "sizes")


def _typed(column) -> array:
    """``column`` as an ``array('q')`` (adopted as-is if it is one)."""
    return column if type(column) is array else array("q", column)


def empty_columns() -> tuple:
    """Fresh empty columns in :data:`COLUMNS` order, for code that splices
    traces column by column."""
    return (array("q"), [], array("q"), array("q"), array("q"),
            array("q"), array("q"), array("q"))


class CompiledTrace:
    """Column-oriented lowering of a trace, ready for the fast engine.

    Attributes:
        length: Number of records.
        kinds: Kind code per record (see :data:`KIND_CODES`).
        lines: First line-aligned address touched per record (a list).
        extras: Lines touched beyond the first (0 = single-line access).
        pcs: Synthetic program counter per record.
        gaps: Pure-compute gap cycles per record.
        fids: Interned function id per record (index into ``functions``).
        addrs: Raw byte address per record (stream hints need it exact).
        sizes: Byte size per record (stream hints carry the extent).
        functions: Interned function names, id order (first-seen order).
    """

    __slots__ = ("length",) + COLUMNS + ("functions",)

    def __init__(self, records: Iterable[MemoryAccess]) -> None:
        kinds: List[int] = []
        lines: List[int] = []
        extras: List[int] = []
        pcs: List[int] = []
        gaps: List[int] = []
        fids: List[int] = []
        addrs: List[int] = []
        sizes: List[int] = []
        functions: List[str] = []
        fid_of = {}
        kind_codes = KIND_CODES
        line_mask = ~(CACHE_LINE_BYTES - 1)
        for record in records:
            address = record.address
            size = record.size
            first = address & line_mask
            last = (address + size - 1) & line_mask
            function = record.function
            fid = fid_of.get(function)
            if fid is None:
                fid = fid_of[function] = len(functions)
                functions.append(function)
            kinds.append(kind_codes[record.kind])
            lines.append(first)
            extras.append((last - first) // CACHE_LINE_BYTES)
            pcs.append(record.pc)
            gaps.append(record.gap_cycles)
            fids.append(fid)
            addrs.append(address)
            sizes.append(size)
        self._adopt(kinds, lines, extras, pcs, gaps, fids, addrs, sizes,
                    functions)

    def _adopt(self, kinds, lines, extras, pcs, gaps, fids, addrs, sizes,
               functions: List[str]) -> None:
        self.length = len(kinds)
        self.kinds = _typed(kinds)
        self.lines = lines
        self.extras = _typed(extras)
        self.pcs = _typed(pcs)
        self.gaps = _typed(gaps)
        self.fids = _typed(fids)
        self.addrs = _typed(addrs)
        self.sizes = _typed(sizes)
        self.functions = functions

    @classmethod
    def from_columns(cls, kinds, lines: List[int], extras, pcs, gaps, fids,
                     addrs, sizes, functions: List[str]) -> "CompiledTrace":
        """Adopt already-lowered columns without re-walking records.

        Int lists or tuples become ``array('q')`` columns once; arrays,
        and the ``lines`` list, are stored as-is (no copies), so the caller hands
        over ownership and must not mutate them afterwards. This is how
        :class:`~repro.access.builder.TraceBuilder` and the columnar
        injector/concat/interleave paths make ``Trace.compile()`` free.
        """
        compiled = cls.__new__(cls)
        compiled._adopt(kinds, lines, extras, pcs, gaps, fids, addrs, sizes,
                        functions)
        return compiled

    def columns(self) -> tuple:
        """The eight columns, in :data:`COLUMNS` order."""
        return (self.kinds, self.lines, self.extras, self.pcs, self.gaps,
                self.fids, self.addrs, self.sizes)

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return (f"CompiledTrace({self.length} records, "
                f"{len(self.functions)} functions)")


def concat_compiled(first: CompiledTrace,
                    second: CompiledTrace) -> CompiledTrace:
    """Concatenate two compiled traces without touching records.

    Function interning follows first-seen order across the combined
    sequence, exactly as compiling the concatenated records would.
    """
    if not first.length:
        return second
    if not second.length:
        return first
    functions = list(first.functions)
    fid_of = {name: fid for fid, name in enumerate(functions)}
    remap: List[int] = []
    identity = True
    for fid, name in enumerate(second.functions):
        out = fid_of.get(name)
        if out is None:
            out = fid_of[name] = len(functions)
            functions.append(name)
        identity = identity and out == fid
        remap.append(out)
    fids = second.fids if identity else \
        array("q", map(remap.__getitem__, second.fids))
    return CompiledTrace.from_columns(
        first.kinds + second.kinds, first.lines + second.lines,
        first.extras + second.extras, first.pcs + second.pcs,
        first.gaps + second.gaps, first.fids + fids,
        first.addrs + second.addrs, first.sizes + second.sizes, functions)
