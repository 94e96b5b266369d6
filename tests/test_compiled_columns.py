"""The compiled-trace column layout against the record path.

A :class:`~repro.access.compiled.CompiledTrace` keeps one copy of its
records: seven ``array('q')`` columns plus the ``lines`` list. The
columnar transformations (``interleave``, ``Trace.__add__`` and the
software-prefetch injector) splice those columns directly; these
properties check each against the record path it must reproduce bit
for bit, including the function-interning order.
"""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.access import (
    AccessKind,
    MemoryAccess,
    Trace,
    TraceBuilder,
    interleave,
)
from repro.access.compiled import CompiledTrace
from repro.core.soft.descriptor import PrefetchDescriptor
from repro.core.soft.injector import SoftwarePrefetchInjector
from repro.engine import reference_engine

from tests.hypothesis_profiles import scaled
from tests.test_trace_builder import assert_column_types, assert_same_columns

_FUNCTIONS = ("", "memcpy", "hash", "alpha", "beta")

_RECORD = st.tuples(
    st.integers(min_value=0, max_value=1 << 22),      # address
    st.sampled_from((1, 8, 64, 100, 256)),            # size
    st.sampled_from((AccessKind.LOAD, AccessKind.STORE,
                     AccessKind.SOFTWARE_PREFETCH)),
    st.integers(min_value=0, max_value=3),            # pc
    st.sampled_from(_FUNCTIONS),
    st.integers(min_value=0, max_value=9),            # gap
)

#: Sequential runs give the injector streams to instrument.
_RUN = st.tuples(
    st.integers(min_value=0, max_value=1 << 16).map(lambda line: line * 64),
    st.integers(min_value=1, max_value=40),
    st.sampled_from(("memcpy", "hash", "alpha")),
    st.integers(min_value=0, max_value=2),
)

_TRACE = st.lists(_RECORD, max_size=40)


def records_of(rows):
    return [MemoryAccess(address=address, size=size, kind=kind, pc=pc,
                         function=function, gap_cycles=gap)
            for address, size, kind, pc, function, gap in rows]


def columnar(rows) -> Trace:
    builder = TraceBuilder()
    for address, size, kind, pc, function, gap in rows:
        builder.append(address, size=size, kind=kind, pc=pc,
                       function=function, gap_cycles=gap)
    trace = builder.build()
    assert trace._records is None
    return trace


def assert_matches(fast: Trace, records) -> None:
    """``fast`` is column-backed and equals the record-path result."""
    assert fast._records is None
    assert_same_columns(fast.compile(), Trace(records).compile())
    assert list(fast) == records


class TestInterleave:
    @given(traces=st.lists(_TRACE, min_size=1, max_size=4),
           chunk=st.integers(min_value=1, max_value=12),
           limit=st.one_of(st.none(), st.integers(min_value=0,
                                                  max_value=80)))
    @settings(max_examples=scaled(120), deadline=None)
    def test_matches_record_path(self, traces, chunk, limit):
        fast = interleave([columnar(rows) for rows in traces], chunk=chunk,
                          limit=limit)
        slow = interleave([Trace(records_of(rows)) for rows in traces],
                          chunk=chunk, limit=limit)
        assert_matches(fast, list(slow))

    def test_truncation_trims_functions(self):
        first = columnar([(0, 8, AccessKind.LOAD, 0, "a", 0)] * 3)
        second = columnar([(4096, 8, AccessKind.LOAD, 0, "b", 0)] * 3)
        merged = interleave([first, second], chunk=2, limit=2)
        assert merged.compile().functions == ["a"]
        assert_matches(merged, list(first)[:2])


class TestConcat:
    @given(left=_TRACE, right=_TRACE)
    @settings(max_examples=scaled(80), deadline=None)
    def test_matches_record_path(self, left, right):
        assert_matches(columnar(left) + columnar(right),
                       records_of(left) + records_of(right))

    def test_identity_fids(self):
        rows = [(0, 8, AccessKind.LOAD, 0, "a", 0),
                (64, 8, AccessKind.STORE, 1, "b", 2)]
        left, right = columnar(rows), columnar(rows[:1])
        combined = left + right
        assert combined.compile().fids == array("q", [0, 1, 0])
        assert_matches(combined, records_of(rows + rows[:1]))

    def test_remapped_fids(self):
        left = [(0, 8, AccessKind.LOAD, 0, "a", 0)]
        right = [(64, 8, AccessKind.LOAD, 0, "b", 0),
                 (128, 8, AccessKind.LOAD, 0, "a", 0)]
        combined = columnar(left) + columnar(right)
        assert combined.compile().functions == ["a", "b"]
        assert combined.compile().fids == array("q", [0, 1, 0])
        assert_matches(combined, records_of(left + right))


class TestInject:
    @given(runs=st.lists(_RUN, min_size=1, max_size=6),
           distance=st.sampled_from((64, 256, 512)),
           degree=st.sampled_from((64, 128, 256)),
           clamp=st.booleans(), hints=st.booleans())
    @settings(max_examples=scaled(80), deadline=None)
    def test_matches_record_path(self, runs, distance, degree, clamp,
                                 hints):
        rows = [(base + index * 64, 64, AccessKind.LOAD, pc, function, 1)
                for base, count, function, pc in runs
                for index in range(count)]
        descriptors = [PrefetchDescriptor(
            "memcpy", distance_bytes=distance, degree_bytes=degree,
            min_size_bytes=128, clamp_to_stream=clamp)]
        fast = SoftwarePrefetchInjector(
            descriptors, emit_hints=hints).inject(columnar(rows))
        with reference_engine():
            slow = SoftwarePrefetchInjector(
                descriptors, emit_hints=hints).inject(Trace(records_of(rows)))
        assert_matches(fast, list(slow))


class TestLayout:
    def test_column_types(self):
        rows = [(0x1040, 130, AccessKind.STORE, 7, "a", 3)]
        assert_column_types(columnar(rows).compile())
        assert_column_types(Trace(records_of(rows)).compile())
        assert not hasattr(CompiledTrace, "packed")
        assert not hasattr(CompiledTrace, "from_packed")

    def test_address_beyond_int64_raises(self):
        builder = TraceBuilder()
        builder.append(2 ** 63)
        with pytest.raises(OverflowError):
            builder.build()
        with pytest.raises(OverflowError):
            Trace([MemoryAccess(address=2 ** 63)]).compile()

    def test_largest_int64_address_round_trips(self):
        rows = [(2 ** 63 - 1 - 64, 8, AccessKind.LOAD, 0, "a", 0)]
        assert_matches(columnar(rows), records_of(rows))
