"""The software-prefetch injector: rewrites traces like editing library code.

In production, Soft Limoncello inserts ``prefetcht0`` instructions into
library source (memcpy, compression, hashing, serialization). In this
reproduction the "library" is a trace generator, so insertion means trace
rewriting: the injector detects each targeted function's sequential
streams and inserts :data:`~repro.access.AccessKind.SOFTWARE_PREFETCH`
records ahead of them, honouring the descriptor's distance, degree,
size gate, and clamping.

Because the injector sees the whole stream, it has exactly the knowledge
the paper attributes to software: "we know the exact addresses we want to
prefetch, and we also know how much data should be prefetched."

Injection runs directly on a trace's compiled columns (run detection,
planning, and the column-by-column splice all stay in ints), so a sweep that
re-injects one base trace per (distance, degree) config never materializes
a record. The original record-path implementation is kept verbatim as the
oracle: the engine switch (``REPRO_SLOW_ENGINE=1``) forces it, and the
equivalence suite (``tests/test_injector_compiled.py``) proves both
paths bit-identical.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.access.compiled import CompiledTrace
from repro.access.record import (
    AccessKind,
    KIND_CODES,
    MemoryAccess,
)
from repro.access.trace import Trace
from repro.core.soft.descriptor import PrefetchDescriptor
from repro.engine import slow_engine_requested
from repro.errors import ConfigError
from repro.units import CACHE_LINE_BYTES

#: XORed into the demand PC to form the synthetic prefetch-site PC.
_PREFETCH_PC_TAG = 0x1

_KIND_PREFETCH = KIND_CODES[AccessKind.SOFTWARE_PREFETCH]
_KIND_HINT = KIND_CODES[AccessKind.STREAM_HINT]
_LINE_MASK = ~(CACHE_LINE_BYTES - 1)
_LINE_SHIFT = CACHE_LINE_BYTES.bit_length() - 1


@dataclass
class InjectionStats:
    """What the injector did to one trace."""

    streams_seen: int = 0
    streams_instrumented: int = 0
    streams_gated: int = 0
    prefetches_inserted: int = 0
    per_function: Dict[str, int] = field(default_factory=dict)


class _Run:
    """A maximal ascending line-stream of one (function, pc) site."""

    __slots__ = ("start_line", "next_line", "positions")

    def __init__(self, start_line: int, first_index: int) -> None:
        self.start_line = start_line
        self.next_line = start_line
        #: (record index, line offset from start) for each record.
        self.positions: List[Tuple[int, int]] = []
        self.append(first_index, start_line, start_line)

    def append(self, index: int, first_line: int, last_line: int) -> None:
        """Extend the run with one record's line coverage."""
        self.positions.append((index, first_line - self.start_line))
        self.next_line = last_line + CACHE_LINE_BYTES

    @property
    def length_bytes(self) -> int:
        """Run length in bytes."""
        return self.next_line - self.start_line


class SoftwarePrefetchInjector:
    """Inserts software prefetches into targeted functions' streams."""

    def __init__(self, descriptors: Iterable[PrefetchDescriptor],
                 emit_hints: bool = False) -> None:
        """Args:
            descriptors: One per targeted function.
            emit_hints: When True, emit a single
                :data:`~repro.access.AccessKind.STREAM_HINT` record per
                instrumented stream instead of per-``degree`` prefetch
                instructions — the Section 8.3 interface prototype. The
                descriptor's size gate still applies; distance/degree are
                the hardware engine's business in this mode.
        """
        self._descriptors: Dict[str, PrefetchDescriptor] = {}
        for descriptor in descriptors:
            if descriptor.function in self._descriptors:
                raise ConfigError(
                    f"duplicate descriptor for {descriptor.function!r}")
            self._descriptors[descriptor.function] = descriptor
        self._emit_hints = emit_hints
        self.last_stats: Optional[InjectionStats] = None

    @property
    def functions(self) -> List[str]:
        """Targeted function names, sorted."""
        return sorted(self._descriptors)

    def inject(self, trace: Trace) -> Trace:
        """Return a copy of ``trace`` with prefetch records inserted.

        Runs on the trace's compiled columns (free for builder-generated
        traces, cached otherwise) and returns a column-backed trace; the
        engine switch (``REPRO_SLOW_ENGINE=1``) forces the original
        record-path oracle.
        """
        if slow_engine_requested():
            runs = self._collect_runs(trace)
            insertions = self._plan_insertions(trace, runs)
            return self._rebuild(trace, insertions)
        return self._inject_compiled(trace.compile())

    # --- compiled fast path -------------------------------------------------

    def _inject_compiled(self, compiled: CompiledTrace) -> Trace:
        """Columnar injection: identical output to the record path.

        Inserted records only ever land at indices at or after the first
        record of their function's run, so the first-seen interning order
        of function names is unchanged — the output adopts the input
        ``functions`` list as-is and inserted tuples reuse the input fid.
        """
        runs = self._collect_runs_compiled(compiled)
        insertions = self._plan_insertions_compiled(compiled, runs)
        if not insertions:
            return Trace._from_compiled(compiled)
        # Each output column is one C-level gather from its input column
        # followed by the inserted values; ``order`` names, per output
        # row, its row in that sequence.
        length = compiled.length
        order: List[int] = []
        inserted: list = []
        previous = 0
        for index in sorted(insertions):
            rows = insertions[index]
            order += range(previous, index)
            start = length + len(inserted)
            order += range(start, start + len(rows))
            inserted += rows
            previous = index
        order += range(previous, length)
        pick = itemgetter(*order)  # >= 2 rows, so it returns a tuple
        columns = [
            list(pick(column + list(added))) if type(column) is list
            else pick(column + array("q", added))
            for column, added in zip(compiled.columns(), zip(*inserted))]
        return Trace._from_compiled(CompiledTrace.from_columns(
            *columns, compiled.functions))

    def _collect_runs_compiled(self, compiled: CompiledTrace):
        """Column twin of :meth:`_collect_runs`: runs keyed ``(fid, pc)``."""
        descriptors = self._descriptors
        targeted = {fid for fid, name in enumerate(compiled.functions)
                    if name in descriptors}
        if not targeted:
            return []
        line_bytes = CACHE_LINE_BYTES
        active: Dict[Tuple[int, int], _Run] = {}
        closed: List[Tuple[int, int, _Run]] = []
        for index, (kind, first_line, extra, pc, fid) in enumerate(zip(
                compiled.kinds, compiled.lines, compiled.extras, compiled.pcs,
                compiled.fids)):
            if kind == _KIND_PREFETCH or fid not in targeted:
                continue
            key = (fid, pc)
            last_line = first_line + extra * line_bytes
            run = active.get(key)
            if run is not None and first_line == run.next_line:
                run.append(index, first_line, last_line)
                continue
            if run is not None and first_line == run.next_line - line_bytes:
                # Sub-line stride: another access within the run's current
                # last line (e.g. serialize reading 32-byte fields). The
                # stream continues; extend if this record reaches further.
                if last_line >= run.next_line:
                    run.append(index, run.next_line, last_line)
                continue
            if run is not None:
                closed.append((key[0], key[1], run))
            active[key] = _Run(first_line, index)
            active[key].next_line = last_line + line_bytes
        for (fid, pc), run in active.items():
            closed.append((fid, pc, run))
        return closed

    def _plan_insertions_compiled(self, compiled: CompiledTrace, runs):
        """Column twin of :meth:`_plan_insertions`: plans record tuples
        (one int per column) for the splice."""
        functions = compiled.functions
        stats = InjectionStats()
        insertions: Dict[int, list] = defaultdict(list)
        for fid, pc, run in runs:
            stats.streams_seen += 1
            function = functions[fid]
            descriptor = self._descriptors[function]
            if not descriptor.applies_to(run.length_bytes):
                stats.streams_gated += 1
                continue
            stats.streams_instrumented += 1
            inserted = self._instrument_run_compiled(
                descriptor, fid, pc, run, insertions)
            stats.prefetches_inserted += inserted
            stats.per_function[function] = (
                stats.per_function.get(function, 0) + inserted)
        self.last_stats = stats
        return insertions

    def _instrument_run_compiled(self, descriptor: PrefetchDescriptor,
                                 fid: int, pc: int, run: _Run,
                                 insertions) -> int:
        """Column twin of :meth:`_instrument_run` (record-tuple output)."""
        tagged_pc = pc ^ _PREFETCH_PC_TAG
        if self._emit_hints:
            first_index, _ = run.positions[0]
            start = run.start_line
            size = run.length_bytes
            extra = (((start + size - 1) & _LINE_MASK) - start) >> _LINE_SHIFT
            insertions[first_index].append(
                (_KIND_HINT, start, extra, tagged_pc, 0, fid, start, size))
            return 1
        degree = descriptor.degree_bytes
        distance = descriptor.distance_bytes
        clamp = descriptor.clamp_to_stream
        start_line = run.start_line
        positions = run.positions
        last_position = len(positions) - 1
        end = run.length_bytes
        inserted = 0
        position = 0  # walks run.positions
        for offset in range(0, end, degree):
            # Find the record covering this line offset.
            while (position < last_position
                   and positions[position + 1][1] <= offset):
                position += 1
            index = positions[position][0]
            target = offset + distance
            size = degree
            if clamp:
                if target >= end:
                    continue
                size = min(degree, end - target)
            address = start_line + target
            line = address & _LINE_MASK
            extra = (((address + size - 1) & _LINE_MASK) - line) >> _LINE_SHIFT
            insertions[index].append(
                (_KIND_PREFETCH, line, extra, tagged_pc, 0, fid,
                 address, size))
            inserted += 1
        return inserted

    # --- record-path oracle -------------------------------------------------
    #
    # The original implementation, kept verbatim (modulo the trusted
    # constructor in _rebuild). REPRO_SLOW_ENGINE=1 routes inject()
    # here; the equivalence suite diffs the two paths record for record.

    # --- pass 1: stream detection ------------------------------------------------

    def _collect_runs(self, trace: Trace) -> List[Tuple[str, int, _Run]]:
        """Maximal ascending runs per (function, pc) site.

        Runs of different sites may interleave freely (memcpy's loads and
        stores, or co-scheduled functions); a site's run breaks when its
        next access is not the line following its previous one.
        """
        active: Dict[Tuple[str, int], _Run] = {}
        closed: List[Tuple[str, int, _Run]] = []
        for index, record in enumerate(trace):
            if record.kind is AccessKind.SOFTWARE_PREFETCH:
                continue
            if record.function not in self._descriptors:
                continue
            key = (record.function, record.pc)
            lines = record.lines_touched()
            first_line, last_line = lines[0], lines[-1]
            run = active.get(key)
            if run is not None and first_line == run.next_line:
                run.append(index, first_line, last_line)
                continue
            if run is not None and first_line == run.next_line - CACHE_LINE_BYTES:
                # Sub-line stride: another access within the run's current
                # last line (e.g. serialize reading 32-byte fields). The
                # stream continues; extend if this record reaches further.
                if last_line >= run.next_line:
                    run.append(index, run.next_line, last_line)
                continue
            if run is not None:
                closed.append((key[0], key[1], run))
            active[key] = _Run(first_line, index)
            active[key].next_line = last_line + CACHE_LINE_BYTES
        for (function, pc), run in active.items():
            closed.append((function, pc, run))
        return closed

    # --- pass 2: planning ---------------------------------------------------------

    def _plan_insertions(self, trace: Trace,
                         runs: List[Tuple[str, int, _Run]]):
        stats = InjectionStats()
        insertions: Dict[int, List[MemoryAccess]] = defaultdict(list)
        for function, pc, run in runs:
            stats.streams_seen += 1
            descriptor = self._descriptors[function]
            if not descriptor.applies_to(run.length_bytes):
                stats.streams_gated += 1
                continue
            stats.streams_instrumented += 1
            inserted = self._instrument_run(descriptor, pc, run, insertions)
            stats.prefetches_inserted += inserted
            stats.per_function[function] = (
                stats.per_function.get(function, 0) + inserted)
        self.last_stats = stats
        return insertions

    def _instrument_run(self, descriptor: PrefetchDescriptor, pc: int,
                        run: _Run, insertions) -> int:
        """Plan prefetches for one stream; returns how many were inserted."""
        if self._emit_hints:
            first_index, _ = run.positions[0]
            insertions[first_index].append(MemoryAccess(
                address=run.start_line, size=run.length_bytes,
                kind=AccessKind.STREAM_HINT,
                pc=pc ^ _PREFETCH_PC_TAG, function=descriptor.function))
            return 1
        degree = descriptor.degree_bytes
        distance = descriptor.distance_bytes
        end = run.length_bytes
        inserted = 0
        position = 0  # walks run.positions
        for offset in range(0, end, degree):
            # Find the record covering this line offset.
            while (position + 1 < len(run.positions)
                   and run.positions[position + 1][1] <= offset):
                position += 1
            index, _ = run.positions[position]
            target = offset + distance
            size = degree
            if descriptor.clamp_to_stream:
                if target >= end:
                    continue
                size = min(degree, end - target)
            insertions[index].append(MemoryAccess(
                address=run.start_line + target, size=size,
                kind=AccessKind.SOFTWARE_PREFETCH,
                pc=pc ^ _PREFETCH_PC_TAG, function=descriptor.function))
            inserted += 1
        return inserted

    # --- pass 3: rebuild ------------------------------------------------------------

    @staticmethod
    def _rebuild(trace: Trace, insertions) -> Trace:
        if not insertions:
            return Trace._trusted(list(trace))
        records: List[MemoryAccess] = []
        for index, record in enumerate(trace):
            records.extend(insertions.get(index, ()))
            records.append(record)
        return Trace._trusted(records)
