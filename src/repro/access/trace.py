"""Traces: ordered sequences of memory accesses plus bulk helpers."""

from __future__ import annotations

import itertools
from array import array
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

from repro.access.record import (
    AccessKind,
    KIND_FROM_CODE,
    KIND_STORE,
    MemoryAccess,
)
from repro.errors import TraceError


class Trace:
    """An immutable-by-convention ordered list of :class:`MemoryAccess`.

    Traces support concatenation, per-record mapping, and summary
    statistics. Workload generators produce them, the software-prefetch
    injector rewrites them, and :class:`repro.memsys.MemoryHierarchy`
    consumes them.

    A trace is backed by records, by the flat int columns of a
    :class:`~repro.access.compiled.CompiledTrace`, or both. Builder-made
    traces (:class:`~repro.access.builder.TraceBuilder`) start column-only
    — ``compile()`` is then free — and materialize records lazily the
    first time something iterates or indexes them; the public record
    constructor works exactly as it always has.
    """

    __slots__ = ("_records", "_compiled")

    def __init__(self, records: Iterable[MemoryAccess] = ()) -> None:
        self._records: Optional[List[MemoryAccess]] = list(records)
        self._compiled = None
        for record in self._records:
            if not isinstance(record, MemoryAccess):
                raise TraceError(
                    f"trace records must be MemoryAccess, got {type(record).__name__}"
                )

    # --- alternate constructors (internal) -----------------------------------

    @classmethod
    def _trusted(cls, records: List[MemoryAccess]) -> "Trace":
        """Adopt an already-validated record list without re-checking it.

        For internal transformation paths only (slices, concat, the
        injector's rebuild): every record must already be a
        ``MemoryAccess``, and the caller hands over list ownership.
        """
        trace = cls.__new__(cls)
        trace._records = records
        trace._compiled = None
        return trace

    @classmethod
    def _from_compiled(cls, compiled) -> "Trace":
        """A column-backed trace adopting ``compiled`` (records lazy)."""
        trace = cls.__new__(cls)
        trace._records = None
        trace._compiled = compiled
        return trace

    def _materialize(self) -> List[MemoryAccess]:
        """Build (and cache) the record list from the compiled columns."""
        records = self._records
        if records is None:
            kind_of = KIND_FROM_CODE
            compiled = self._compiled
            functions = compiled.functions
            records = self._records = [
                MemoryAccess(address=addr, size=size, kind=kind_of[kind],
                             pc=pc, function=functions[fid],
                             gap_cycles=gap)
                for kind, pc, gap, fid, addr, size
                in zip(compiled.kinds, compiled.pcs, compiled.gaps,
                       compiled.fids, compiled.addrs, compiled.sizes)
            ]
        return records

    # --- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        if self._records is None:
            return self._compiled.length
        return len(self._records)

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self._materialize())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace._trusted(self._materialize()[index])
        return self._materialize()[index]

    def __add__(self, other: "Trace") -> "Trace":
        if not isinstance(other, Trace):
            return NotImplemented
        if self._records is None or other._records is None:
            # At least one side is column-backed: concatenate columns so
            # neither side has to materialize records.
            from repro.access.compiled import concat_compiled
            return Trace._from_compiled(
                concat_compiled(self.compile(), other.compile()))
        return Trace._trusted(self._records + other._records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        if self._records is None and other._records is None:
            # Column comparison: equal records imply identical first-seen
            # function interning, so (functions, columns) is a faithful key.
            mine, theirs = self._compiled, other._compiled
            if mine is theirs:
                return True
            return (mine.functions == theirs.functions
                    and mine.columns() == theirs.columns())
        return self._materialize() == other._materialize()

    def __repr__(self) -> str:
        return f"Trace({len(self)} records)"

    # --- compilation ---------------------------------------------------------

    def compile(self):
        """Lower this trace into flat int columns for the fast engine.

        The result (a :class:`~repro.access.compiled.CompiledTrace`) is
        cached on the trace — safe because traces are immutable by
        convention and every transformation returns a new trace — so
        repeated simulator runs of the same trace compile exactly once.
        For builder-made (column-backed) traces this is free: the columns
        were populated during generation.
        """
        compiled = self._compiled
        if compiled is None:
            from repro.access.compiled import CompiledTrace
            compiled = self._compiled = CompiledTrace(self._records)
        return compiled

    # --- transformations -----------------------------------------------------

    def map(self, fn: Callable[[MemoryAccess], MemoryAccess]) -> "Trace":
        """A new trace with ``fn`` applied to every record."""
        return Trace(fn(record) for record in self._materialize())

    def attributed(self, function: str) -> "Trace":
        """A copy with every record attributed to ``function``."""
        return self.map(lambda record: record.with_function(function))

    def shifted(self, offset: int) -> "Trace":
        """A copy with every address shifted by ``offset``."""
        return self.map(lambda record: record.shifted(offset))

    def repeated(self, times: int) -> "Trace":
        """This trace concatenated with itself ``times`` times."""
        if times < 0:
            raise ValueError(f"times must be non-negative, got {times}")
        records = self._materialize()
        return Trace._trusted(list(itertools.chain.from_iterable(
            records for _ in range(times))))

    def demand_only(self) -> "Trace":
        """A copy with software-prefetch records removed."""
        return Trace._trusted([record for record in self._materialize()
                               if record.is_demand])

    # --- statistics -----------------------------------------------------------

    @property
    def demand_count(self) -> int:
        """Number of demand (load/store) records."""
        if self._records is None:
            return sum(1 for kind in self._compiled.kinds
                       if kind <= KIND_STORE)
        return sum(1 for record in self._records if record.is_demand)

    @property
    def prefetch_count(self) -> int:
        """Number of software-prefetch records."""
        return len(self) - self.demand_count

    @property
    def compute_cycles(self) -> int:
        """Total pure-compute cycles encoded in the trace gaps."""
        if self._records is None:
            return sum(self._compiled.gaps)
        return sum(record.gap_cycles for record in self._records)

    @property
    def instruction_count(self) -> int:
        """Approximate instruction count: one per record plus one per gap
        cycle (the simulator's cycle model assumes IPC 1 for compute)."""
        return len(self) + self.compute_cycles

    def unique_lines(self) -> int:
        """Number of distinct cache lines touched by demand accesses."""
        if self._records is None:
            compiled = self._compiled
            return len({line for kind, line in zip(compiled.kinds,
                                                   compiled.lines)
                        if kind <= KIND_STORE})
        return len({record.line for record in self._records
                    if record.is_demand})

    def footprint_bytes(self) -> int:
        """Total bytes spanned by the trace's demand address range."""
        if self._records is None:
            compiled = self._compiled
            demand = [(addr, size) for kind, addr, size
                      in zip(compiled.kinds, compiled.addrs, compiled.sizes)
                      if kind <= KIND_STORE]
            if not demand:
                return 0
            low = min(addr for addr, _size in demand)
            high = max(addr + size for addr, size in demand)
            return high - low
        demand = [record for record in self._records if record.is_demand]
        if not demand:
            return 0
        low = min(record.address for record in demand)
        high = max(record.address + record.size for record in demand)
        return high - low

    def functions(self) -> Sequence[str]:
        """Distinct function names appearing in the trace, in first-seen order."""
        if self._records is None:
            return [name for name in self._compiled.functions if name]
        seen: List[str] = []
        for record in self._records:
            if record.function and record.function not in seen:
                seen.append(record.function)
        return seen


def interleave(traces: Sequence[Trace], chunk: int = 64,
               limit: Optional[int] = None) -> Trace:
    """Round-robin interleave several traces, ``chunk`` records at a time.

    This approximates the co-located, context-switching execution the paper
    describes: a machine runs hundreds of services whose memory streams mix
    at fine granularity, which is exactly what confuses hardware stream
    prefetchers on short streams.

    When every input is column-backed (the builder pipeline), the merge
    happens on compiled columns — chunk-sized column slices plus a
    function-id remap — and the result is column-backed too, so the whole
    generate → interleave path never touches a record object. Otherwise
    the original record path runs.

    Args:
        traces: The traces to interleave. Exhausted traces drop out.
        chunk: Records taken from each trace per turn.
        limit: Optional cap on total output records.
    """
    if chunk <= 0:
        raise ValueError(f"chunk must be positive, got {chunk}")
    if traces and all(trace._records is None for trace in traces):
        return _interleave_columns(traces, chunk, limit)
    iterators = [iter(trace) for trace in traces]
    merged: List[MemoryAccess] = []
    while iterators:
        still_live = []
        for iterator in iterators:
            taken = list(itertools.islice(iterator, chunk))
            merged.extend(taken)
            if limit is not None and len(merged) >= limit:
                return Trace._trusted(merged[:limit])
            if len(taken) == chunk:
                still_live.append(iterator)
        iterators = still_live
    return Trace._trusted(merged)


class _ColumnMerge:
    """One input trace's cursor in a columnar merge (interleave).

    Function ids are re-interned *as rows are emitted*, so the output
    functions list lands in first-seen output order — the exact list
    compiling the merged records would produce. Every chunk lands in the
    output columns through C-level slices and ``extend``.
    """

    __slots__ = ("compiled", "position", "remap", "unresolved", "identity")

    def __init__(self, compiled) -> None:
        self.compiled = compiled
        self.position = 0
        self.remap: List[Optional[int]] = [None] * len(compiled.functions)
        self.unresolved = len(self.remap)
        self.identity = True

    def emit(self, chunk: int, out: tuple, functions: List[str],
             fid_of: dict) -> int:
        """Append up to ``chunk`` rows to the ``out`` columns (in
        ``COLUMNS`` order); returns rows taken."""
        compiled = self.compiled
        start = self.position
        stop = min(start + chunk, compiled.length)
        self.position = stop
        remap = self.remap
        fids = compiled.fids[start:stop]
        if self.unresolved:
            names = compiled.functions
            for fid in dict.fromkeys(fids):  # first-seen order
                if remap[fid] is None:
                    name = names[fid]
                    new = fid_of.get(name)
                    if new is None:
                        new = fid_of[name] = len(functions)
                        functions.append(name)
                    remap[fid] = new
                    self.unresolved -= 1
                    if new != fid:
                        self.identity = False
        if not self.identity:
            fids = array("q", map(remap.__getitem__, fids))
        kinds, lines, extras, pcs, gaps, out_fids, addrs, sizes = out
        kinds.extend(compiled.kinds[start:stop])
        lines.extend(compiled.lines[start:stop])
        extras.extend(compiled.extras[start:stop])
        pcs.extend(compiled.pcs[start:stop])
        gaps.extend(compiled.gaps[start:stop])
        out_fids.extend(fids)
        addrs.extend(compiled.addrs[start:stop])
        sizes.extend(compiled.sizes[start:stop])
        return stop - start


def _interleave_columns(traces: Sequence[Trace], chunk: int,
                        limit: Optional[int]) -> Trace:
    """Columnar interleave: bit-identical output to the record path."""
    from repro.access.compiled import CompiledTrace, empty_columns

    functions: List[str] = []
    fid_of: dict = {}
    out = empty_columns()
    fids = out[5]
    states = [_ColumnMerge(trace.compile()) for trace in traces]

    def truncated() -> Trace:
        for column in out:
            del column[limit:]
        # First-seen interning means the kept prefix uses a contiguous
        # fid range; drop names whose first use was truncated away.
        del functions[max(fids, default=-1) + 1:]
        return Trace._from_compiled(
            CompiledTrace.from_columns(*out, functions))

    while states:
        still_live = []
        for state in states:
            taken = state.emit(chunk, out, functions, fid_of)
            if limit is not None and len(fids) >= limit:
                return truncated()
            if taken == chunk:
                still_live.append(state)
        states = still_live
    return Trace._from_compiled(CompiledTrace.from_columns(*out, functions))


def software_prefetch(address: int, size: int = 64, pc: int = 0,
                      function: str = "") -> MemoryAccess:
    """Convenience constructor for a software-prefetch trace record."""
    return MemoryAccess(address=address, size=size,
                        kind=AccessKind.SOFTWARE_PREFETCH,
                        pc=pc, function=function)
