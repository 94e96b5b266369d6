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
an interned function id — so the hot loop touches nothing but ints held
in lists and locals. The columns are also pre-zipped into one list of
tuples (:attr:`CompiledTrace.packed`) because a single ``UNPACK_SEQUENCE``
per record beats eight parallel subscripts.

Compilation is cached on the owning :class:`~repro.access.trace.Trace`
(traces are immutable by convention), so repeated runs of the same trace —
ablation on/off arms, threshold sweeps, calibration passes — compile once.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.access.record import KIND_CODES, MemoryAccess
from repro.units import CACHE_LINE_BYTES


class CompiledTrace:
    """Column-oriented lowering of a trace, ready for the fast engine.

    Attributes:
        length: Number of records.
        kinds: Kind code per record (see :data:`KIND_CODES`).
        lines: First line-aligned address touched per record.
        extras: Lines touched beyond the first (0 = single-line access).
        pcs: Synthetic program counter per record.
        gaps: Pure-compute gap cycles per record.
        fids: Interned function id per record (index into ``functions``).
        addrs: Raw byte address per record (stream hints need it exact).
        sizes: Byte size per record (stream hints carry the extent).
        functions: Interned function names, id order (first-seen order).
        packed: The columns zipped per record as
            ``(kind, line, extra, pc, gap, fid, addr, size)`` tuples —
            the structure the hot loop actually iterates.
    """

    __slots__ = ("length", "kinds", "lines", "extras", "pcs", "gaps",
                 "fids", "addrs", "sizes", "functions", "packed")

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
        self.length = len(kinds)
        self.kinds = kinds
        self.lines = lines
        self.extras = extras
        self.pcs = pcs
        self.gaps = gaps
        self.fids = fids
        self.addrs = addrs
        self.sizes = sizes
        self.functions = functions
        self.packed: List[Tuple[int, int, int, int, int, int, int, int]] = \
            list(zip(kinds, lines, extras, pcs, gaps, fids, addrs, sizes))

    @classmethod
    def from_columns(cls, kinds: List[int], lines: List[int],
                     extras: List[int], pcs: List[int], gaps: List[int],
                     fids: List[int], addrs: List[int], sizes: List[int],
                     functions: List[str],
                     packed: "List[Tuple[int, int, int, int, int, int, int, int]]" = None,
                     ) -> "CompiledTrace":
        """Adopt already-lowered columns without re-walking records.

        The caller hands over ownership: the lists are stored as-is (no
        copies) and must not be mutated afterwards. This is how
        :class:`~repro.access.builder.TraceBuilder` and the columnar
        injector/concat/interleave paths make ``Trace.compile()`` free.
        """
        compiled = cls.__new__(cls)
        compiled.length = len(kinds)
        compiled.kinds = kinds
        compiled.lines = lines
        compiled.extras = extras
        compiled.pcs = pcs
        compiled.gaps = gaps
        compiled.fids = fids
        compiled.addrs = addrs
        compiled.sizes = sizes
        compiled.functions = functions
        compiled.packed = packed if packed is not None else \
            list(zip(kinds, lines, extras, pcs, gaps, fids, addrs, sizes))
        return compiled

    @classmethod
    def from_packed(cls, packed, functions: List[str]) -> "CompiledTrace":
        """Adopt pre-zipped per-record tuples (see :attr:`packed`)."""
        if packed:
            kinds, lines, extras, pcs, gaps, fids, addrs, sizes = \
                map(list, zip(*packed))
        else:
            kinds, lines, extras, pcs = [], [], [], []
            gaps, fids, addrs, sizes = [], [], [], []
        return cls.from_columns(kinds, lines, extras, pcs, gaps, fids,
                                addrs, sizes, functions, packed=packed)

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
    if identity:
        fids = first.fids + second.fids
        packed = first.packed + second.packed
    else:
        fids = first.fids + [remap[fid] for fid in second.fids]
        packed = first.packed + [
            (kind, line, extra, pc, gap, remap[fid], addr, size)
            for kind, line, extra, pc, gap, fid, addr, size in second.packed]
    return CompiledTrace.from_columns(
        first.kinds + second.kinds, first.lines + second.lines,
        first.extras + second.extras, first.pcs + second.pcs,
        first.gaps + second.gaps, fids, first.addrs + second.addrs,
        first.sizes + second.sizes, functions, packed=packed)
