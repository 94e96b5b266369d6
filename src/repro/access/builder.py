"""Trace builders: columnar-native trace generation.

Workload generators used to build one frozen :class:`MemoryAccess`
dataclass per cache line, hand the list to ``Trace`` (which re-validates
every record), and later pay a full :class:`CompiledTrace` lowering pass
— three walks over every record before the simulator sees a single one.

:class:`TraceBuilder` collapses all of that into the generation loop
itself: ``append`` writes straight into the flat int columns
:class:`~repro.access.compiled.CompiledTrace` defines (kind code,
line-aligned address, extra-lines count, pc, gap, interned function id,
raw address, size), and :meth:`TraceBuilder.build` types the finished
columns once and hands them to a column-backed
:class:`~repro.access.trace.Trace` whose ``compile()`` is then free.
Records are materialized lazily, only if someone actually iterates them.

:class:`RecordTraceBuilder` is the oracle twin: the same API, but it
constructs a real ``MemoryAccess`` per ``append`` and builds a validated,
record-backed ``Trace`` — exactly the old pipeline's cost and behaviour.
Under the engine switch (``REPRO_SLOW_ENGINE=1``, or code run inside
:func:`repro.engine.reference_engine`) :func:`trace_builder` returns it,
so every generator can be driven down the record path for equivalence
testing (``tests/test_trace_builder.py``).
"""

from __future__ import annotations

from typing import List, Union

from repro.access.compiled import CompiledTrace
from repro.access.record import AccessKind, KIND_CODES, MemoryAccess
from repro.access.trace import Trace
from repro.engine import slow_engine_requested
from repro.errors import TraceError
from repro.units import CACHE_LINE_BYTES

_LINE_MASK = ~(CACHE_LINE_BYTES - 1)
_LINE_SHIFT = CACHE_LINE_BYTES.bit_length() - 1
_KIND_LOAD = KIND_CODES[AccessKind.LOAD]
_KIND_STORE = KIND_CODES[AccessKind.STORE]


def trace_builder() -> "Union[TraceBuilder, RecordTraceBuilder]":
    """The builder generators should use: columnar unless the engine
    switch asks for the reference paths."""
    if slow_engine_requested():
        return RecordTraceBuilder()
    return TraceBuilder()


class TraceBuilder:
    """Appends trace records directly into compiled-trace columns.

    Single-use: :meth:`build` hands column ownership to the returned
    trace, after which further appends raise :class:`TraceError`.

    Argument validation matches ``MemoryAccess.__post_init__`` exactly
    (non-negative address and gap, positive size), so a generator bug
    raises the same ``ValueError`` on either builder backend.
    """

    __slots__ = ("_kinds", "_lines", "_extras", "_pcs", "_gaps", "_fids",
                 "_addrs", "_sizes", "_functions", "_fid_of")

    def __init__(self) -> None:
        self._kinds: List[int] = []
        self._lines: List[int] = []
        self._extras: List[int] = []
        self._pcs: List[int] = []
        self._gaps: List[int] = []
        self._fids: List[int] = []
        self._addrs: List[int] = []
        self._sizes: List[int] = []
        self._functions: List[str] = []
        self._fid_of = {}

    def __len__(self) -> int:
        return len(self._kinds)

    def _intern(self, function: str) -> int:
        fid_of = self._fid_of
        if fid_of is None:
            raise TraceError("builder already built; create a new one")
        fid = fid_of.get(function)
        if fid is None:
            fid = fid_of[function] = len(self._functions)
            self._functions.append(function)
        return fid

    # --- appends ------------------------------------------------------------

    def append(self, address: int, size: int = 8,
               kind: AccessKind = AccessKind.LOAD, pc: int = 0,
               function: str = "", gap_cycles: int = 0) -> None:
        """Append one record (same signature as ``MemoryAccess``)."""
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if gap_cycles < 0:
            raise ValueError(
                f"gap_cycles must be non-negative, got {gap_cycles}")
        fid = self._intern(function)
        first = address & _LINE_MASK
        self._kinds.append(KIND_CODES[kind])
        self._lines.append(first)
        self._extras.append(
            (((address + size - 1) & _LINE_MASK) - first) >> _LINE_SHIFT)
        self._pcs.append(pc)
        self._gaps.append(gap_cycles)
        self._fids.append(fid)
        self._addrs.append(address)
        self._sizes.append(size)

    def append_stream(self, base: int, count: int,
                      step: int = CACHE_LINE_BYTES,
                      size: int = CACHE_LINE_BYTES,
                      kind: AccessKind = AccessKind.LOAD, pc: int = 0,
                      function: str = "", gap_cycles: int = 0) -> None:
        """Append ``count`` records at ``base, base+step, ...`` in bulk.

        The hot generator shape (memset/hash/stream sweeps): every
        column extends from a range or a constant-list, so the per-record
        Python work of :meth:`append` disappears.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if gap_cycles < 0:
            raise ValueError(
                f"gap_cycles must be non-negative, got {gap_cycles}")
        last_address = base + (count - 1) * step
        if base < 0 or last_address < 0:
            raise ValueError(
                f"address must be non-negative, got {min(base, last_address)}")
        code = KIND_CODES[kind]
        fid = self._intern(function)
        addresses = (range(base, base + count * step, step) if step
                     else [base] * count)
        self._kinds += [code] * count
        if base & ~_LINE_MASK == 0 and step & ~_LINE_MASK == 0:
            # Aligned stream: addresses are their own line addresses and
            # the extra-lines count is the same for every record.
            self._lines += addresses
            self._extras += [(size - 1) >> _LINE_SHIFT] * count
        else:
            self._lines += [a & _LINE_MASK for a in addresses]
            self._extras += [
                (((a + size - 1) & _LINE_MASK) - (a & _LINE_MASK))
                >> _LINE_SHIFT for a in addresses]
        self._pcs += [pc] * count
        self._gaps += [gap_cycles] * count
        self._fids += [fid] * count
        self._addrs += addresses
        self._sizes += [size] * count

    def append_copy(self, src: int, dst: int, count: int,
                    step: int = CACHE_LINE_BYTES,
                    size: int = CACHE_LINE_BYTES,
                    load_pc: int = 0, store_pc: int = 0,
                    function: str = "", gap_cycles: int = 0,
                    first_gap_cycles: int = -1) -> None:
        """Append ``count`` load/store pairs: the copy-loop shape.

        Emits ``LOAD src, STORE dst, LOAD src+step, STORE dst+step, ...``
        — the memcpy/memmove/data-movement pattern that dominates tax
        traces. Loads carry ``gap_cycles`` (the per-line compute),
        stores carry none; ``first_gap_cycles`` (when >= 0) replaces the
        first load's gap, which batched call sequences use to charge the
        caller's inter-call compute to the call's first record.

        Both interleaved streams extend the columns through C-level
        slice assignment, so per-record Python work disappears exactly
        as in :meth:`append_stream`.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if gap_cycles < 0:
            raise ValueError(
                f"gap_cycles must be non-negative, got {gap_cycles}")
        span = (count - 1) * step
        lowest = min(src, src + span, dst, dst + span)
        if lowest < 0:
            raise ValueError(f"address must be non-negative, got {lowest}")
        fid = self._intern(function)
        total = 2 * count
        loads = (range(src, src + count * step, step) if step
                 else [src] * count)
        stores = (range(dst, dst + count * step, step) if step
                  else [dst] * count)
        addresses = [0] * total
        addresses[0::2] = loads
        addresses[1::2] = stores
        self._kinds += [_KIND_LOAD, _KIND_STORE] * count
        if (src | dst | step) & ~_LINE_MASK == 0:
            self._lines += addresses
            self._extras += [(size - 1) >> _LINE_SHIFT] * total
        else:
            lines = [a & _LINE_MASK for a in addresses]
            self._lines += lines
            offset = size - 1
            self._extras += [(((a + offset) & _LINE_MASK) - line)
                             >> _LINE_SHIFT
                             for a, line in zip(addresses, lines)]
        self._pcs += [load_pc, store_pc] * count
        gaps = [gap_cycles, 0] * count
        if first_gap_cycles >= 0:
            gaps[0] = first_gap_cycles
        self._gaps += gaps
        self._fids += [fid] * total
        self._addrs += addresses
        self._sizes += [size] * total

    def append_round_robin(self, streams, function: str = "") -> None:
        """Append N equal-length address streams in rotation.

        ``streams`` is a sequence of ``(addresses, size, kind, pc,
        gap_cycles)`` tuples; records are emitted round-robin —
        ``streams[0][0][0], streams[1][0][0], ..., streams[0][0][1], ...``
        — the dependent-chain shape (hash bucket + entry, per-level tree
        node reads). Each stream's fixed fields tile via list repetition
        and its addresses land through C-level slice assignment.
        """
        streams = [(list(addresses), size, kind, pc, gap)
                   for addresses, size, kind, pc, gap in streams]
        if not streams:
            return
        width = len(streams)
        length = len(streams[0][0])
        if any(len(addresses) != length for addresses, *_ in streams):
            raise ValueError("round-robin streams must share one length")
        if length == 0:
            return
        for addresses, size, _kind, _pc, gap in streams:
            smallest = min(addresses)
            if smallest < 0:
                raise ValueError(
                    f"address must be non-negative, got {smallest}")
            if size <= 0:
                raise ValueError(f"size must be positive, got {size}")
            if gap < 0:
                raise ValueError(
                    f"gap_cycles must be non-negative, got {gap}")
        fid = self._intern(function)
        total = width * length
        addrs = [0] * total
        sizes = [0] * total
        for position, (addresses, size, kind, pc, gap) in enumerate(streams):
            addrs[position::width] = addresses
            sizes[position::width] = [size] * length
        self._kinds += [KIND_CODES[kind] for _, _, kind, _, _ in streams] \
            * length
        lines = [a & _LINE_MASK for a in addrs]
        self._lines += lines
        self._extras += [(((a + size - 1) & _LINE_MASK) - line) >> _LINE_SHIFT
                         for a, line, size in zip(addrs, lines, sizes)]
        self._pcs += [pc for _, _, _, pc, _ in streams] * length
        self._gaps += [gap for *_, gap in streams] * length
        self._fids += [fid] * total
        self._addrs += addrs
        self._sizes += sizes

    def append_addresses(self, addresses, size: int = 8,
                         kind: AccessKind = AccessKind.LOAD, pc: int = 0,
                         function: str = "", gap_cycles: int = 0) -> None:
        """Append one record per address with shared other fields (the
        random-access generator shape)."""
        addresses = list(addresses)
        if not addresses:
            return
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if gap_cycles < 0:
            raise ValueError(
                f"gap_cycles must be non-negative, got {gap_cycles}")
        smallest = min(addresses)
        if smallest < 0:
            raise ValueError(
                f"address must be non-negative, got {smallest}")
        count = len(addresses)
        code = KIND_CODES[kind]
        fid = self._intern(function)
        mask = _LINE_MASK
        shift = _LINE_SHIFT
        lines = [a & mask for a in addresses]
        self._kinds += [code] * count
        self._lines += lines
        if size <= 1:
            self._extras += [0] * count
        else:
            offset = size - 1
            self._extras += [(((a + offset) & mask) - line) >> shift
                             for a, line in zip(addresses, lines)]
        self._pcs += [pc] * count
        self._gaps += [gap_cycles] * count
        self._fids += [fid] * count
        self._addrs += addresses
        self._sizes += [size] * count

    # --- finishing ----------------------------------------------------------

    def build(self) -> Trace:
        """Finish: a column-backed trace over the builder's columns.

        Appends go to plain lists (``list.append`` is about twice as fast
        as ``array.append``); :meth:`CompiledTrace.from_columns` turns
        them into typed columns once, here.
        """
        if self._fid_of is None:
            raise TraceError("builder already built; create a new one")
        compiled = CompiledTrace.from_columns(
            self._kinds, self._lines, self._extras, self._pcs, self._gaps,
            self._fids, self._addrs, self._sizes, self._functions)
        self._fid_of = None
        return Trace._from_compiled(compiled)


class RecordTraceBuilder:
    """The oracle backend: same API, old record-path costs and behaviour.

    Each ``append`` constructs a frozen ``MemoryAccess`` (with its
    ``__post_init__`` validation) and ``build()`` returns a record-backed
    ``Trace`` via the public validating constructor, which will pay the
    full ``CompiledTrace`` lowering on first ``compile()`` — exactly what
    generators did before the columnar pipeline.
    """

    __slots__ = ("_records",)

    def __init__(self) -> None:
        self._records: List[MemoryAccess] = []

    def __len__(self) -> int:
        return len(self._records)

    def append(self, address: int, size: int = 8,
               kind: AccessKind = AccessKind.LOAD, pc: int = 0,
               function: str = "", gap_cycles: int = 0) -> None:
        if self._records is None:
            raise TraceError("builder already built; create a new one")
        self._records.append(MemoryAccess(
            address=address, size=size, kind=kind, pc=pc,
            function=function, gap_cycles=gap_cycles))

    def append_stream(self, base: int, count: int,
                      step: int = CACHE_LINE_BYTES,
                      size: int = CACHE_LINE_BYTES,
                      kind: AccessKind = AccessKind.LOAD, pc: int = 0,
                      function: str = "", gap_cycles: int = 0) -> None:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        for i in range(count):
            self.append(base + i * step, size=size, kind=kind, pc=pc,
                        function=function, gap_cycles=gap_cycles)

    def append_copy(self, src: int, dst: int, count: int,
                    step: int = CACHE_LINE_BYTES,
                    size: int = CACHE_LINE_BYTES,
                    load_pc: int = 0, store_pc: int = 0,
                    function: str = "", gap_cycles: int = 0,
                    first_gap_cycles: int = -1) -> None:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        for i in range(count):
            gap = gap_cycles
            if i == 0 and first_gap_cycles >= 0:
                gap = first_gap_cycles
            self.append(src + i * step, size=size, pc=load_pc,
                        function=function, gap_cycles=gap)
            self.append(dst + i * step, size=size, kind=AccessKind.STORE,
                        pc=store_pc, function=function)

    def append_round_robin(self, streams, function: str = "") -> None:
        streams = [(list(addresses), size, kind, pc, gap)
                   for addresses, size, kind, pc, gap in streams]
        if not streams:
            return
        length = len(streams[0][0])
        if any(len(addresses) != length for addresses, *_ in streams):
            raise ValueError("round-robin streams must share one length")
        for index in range(length):
            for addresses, size, kind, pc, gap in streams:
                self.append(addresses[index], size=size, kind=kind, pc=pc,
                            function=function, gap_cycles=gap)

    def append_addresses(self, addresses, size: int = 8,
                         kind: AccessKind = AccessKind.LOAD, pc: int = 0,
                         function: str = "", gap_cycles: int = 0) -> None:
        for address in addresses:
            self.append(address, size=size, kind=kind, pc=pc,
                        function=function, gap_cycles=gap_cycles)

    def build(self) -> Trace:
        if self._records is None:
            raise TraceError("builder already built; create a new one")
        trace = Trace(self._records)
        self._records = None
        return trace
