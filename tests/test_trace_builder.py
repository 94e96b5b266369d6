"""Golden-equivalence tests: the columnar trace builder vs the record path.

Every workload generator now emits through
:func:`repro.access.builder.trace_builder`. Under the engine switch
(``reference_engine()``, or ``REPRO_SLOW_ENGINE=1``) that factory returns the record-path oracle (per-record ``MemoryAccess``
construction plus the validating ``Trace`` constructor — the old
pipeline); by default it returns the columnar :class:`TraceBuilder`. The
two must be **bit-identical**: same records, same compiled columns
(including function-interning order), same simulator results, for every
roster function, the fleetbench mix, and hypothesis-generated append
sequences.
"""

import random
from array import array

import pytest
from tests.hypothesis_profiles import scaled
from hypothesis import given, settings, strategies as st

from repro.access import (
    AccessKind,
    AddressSpace,
    MemoryAccess,
    RecordTraceBuilder,
    Trace,
    TraceBuilder,
    interleave,
    trace_builder,
)
from repro.access.compiled import COLUMNS
from repro.engine import SLOW_ENGINE_ENV, reference_engine
from repro.errors import TraceError
from repro.memsys import MemoryHierarchy
from repro.workloads.functions import FUNCTION_ROSTER
from repro.workloads.mixes import fleetbench_trace

from tests.test_engine_equivalence import snapshot


def assert_column_types(compiled) -> None:
    """``lines`` is a list; every other column an ``array('q')``."""
    assert type(compiled.lines) is list
    for name in COLUMNS:
        if name != "lines":
            column = getattr(compiled, name)
            assert type(column) is array and column.typecode == "q", name


def assert_same_columns(fast, slow) -> None:
    """All eight columns plus the interned functions match, typed alike."""
    assert fast.functions == slow.functions
    assert fast.length == slow.length
    for name in COLUMNS:
        assert getattr(fast, name) == getattr(slow, name), name
    assert_column_types(fast)
    assert_column_types(slow)


def assert_bit_identical(columnar: Trace, record: Trace) -> None:
    """Records, compiled columns, and interning must all match."""
    fast, slow = columnar.compile(), Trace(list(record)).compile()
    assert_same_columns(fast, slow)
    assert list(columnar) == list(record)
    assert columnar == record


def generate_twice(generate):
    """Run ``generate`` on the columnar backend, then on the oracle."""
    columnar = generate()
    with reference_engine():
        record = generate()
    return columnar, record


class TestGeneratorEquivalence:
    @pytest.mark.parametrize("name", sorted(FUNCTION_ROSTER))
    def test_roster_function_bit_identical(self, name):
        profile = FUNCTION_ROSTER[name]
        columnar, record = generate_twice(
            lambda: profile.trace(random.Random(7), AddressSpace(),
                                  scale=0.05))
        assert_bit_identical(columnar, record)

    def test_fleetbench_mix_bit_identical(self):
        columnar, record = generate_twice(
            lambda: fleetbench_trace(random.Random(11), AddressSpace(),
                                     scale=0.05))
        assert_bit_identical(columnar, record)

    def test_fleetbench_mix_simulator_results_identical(self):
        columnar, record = generate_twice(
            lambda: fleetbench_trace(random.Random(3), AddressSpace(),
                                     scale=0.05))
        h_fast = MemoryHierarchy()
        r_fast = h_fast.run(columnar)
        h_slow = MemoryHierarchy()
        r_slow = h_slow.run(record)
        assert snapshot(h_fast, r_fast) == snapshot(h_slow, r_slow)

    def test_roster_function_simulator_results_identical(self):
        for name in ("memcpy", "serialize", "pointer_chase"):
            profile = FUNCTION_ROSTER[name]
            columnar, record = generate_twice(
                lambda: profile.trace(random.Random(5), AddressSpace(),
                                      scale=0.05))
            h_fast = MemoryHierarchy()
            r_fast = h_fast.run(columnar)
            h_slow = MemoryHierarchy()
            r_slow = h_slow.run(record)
            assert snapshot(h_fast, r_fast) == snapshot(h_slow, r_slow)


class TestBuilderDispatch:
    def test_default_is_columnar(self, monkeypatch):
        monkeypatch.delenv(SLOW_ENGINE_ENV, raising=False)
        assert isinstance(trace_builder(), TraceBuilder)

    def test_env_forces_record_path(self, monkeypatch):
        monkeypatch.setenv(SLOW_ENGINE_ENV, "1")
        assert isinstance(trace_builder(), RecordTraceBuilder)

    def test_reference_engine_builds_on_the_record_path(self, monkeypatch):
        monkeypatch.delenv(SLOW_ENGINE_ENV, raising=False)
        with reference_engine():
            assert isinstance(trace_builder(), RecordTraceBuilder)
        assert isinstance(trace_builder(), TraceBuilder)

    def test_env_off_values_stay_columnar(self, monkeypatch):
        for value in ("0", "false", "off", ""):
            monkeypatch.setenv(SLOW_ENGINE_ENV, value)
            assert isinstance(trace_builder(), TraceBuilder)


class TestBuilderValidation:
    @pytest.mark.parametrize("backend", [TraceBuilder, RecordTraceBuilder])
    def test_negative_address_rejected(self, backend):
        with pytest.raises(ValueError, match="address"):
            backend().append(-1)

    @pytest.mark.parametrize("backend", [TraceBuilder, RecordTraceBuilder])
    def test_non_positive_size_rejected(self, backend):
        with pytest.raises(ValueError, match="size"):
            backend().append(0, size=0)

    @pytest.mark.parametrize("backend", [TraceBuilder, RecordTraceBuilder])
    def test_negative_gap_rejected(self, backend):
        with pytest.raises(ValueError, match="gap_cycles"):
            backend().append(0, gap_cycles=-1)

    @pytest.mark.parametrize("backend", [TraceBuilder, RecordTraceBuilder])
    def test_stream_negative_count_rejected(self, backend):
        with pytest.raises(ValueError, match="count"):
            backend().append_stream(0, -1)

    def test_stream_negative_address_rejected(self):
        # A descending stream that walks below zero must fail like the
        # record path (which fails on the offending MemoryAccess).
        with pytest.raises(ValueError, match="address"):
            TraceBuilder().append_stream(128, 4, step=-64)
        with pytest.raises(ValueError, match="address"):
            RecordTraceBuilder().append_stream(128, 4, step=-64)

    @pytest.mark.parametrize("backend", [TraceBuilder, RecordTraceBuilder])
    def test_copy_negative_count_rejected(self, backend):
        with pytest.raises(ValueError, match="count"):
            backend().append_copy(0, 4096, -1)

    def test_copy_negative_address_rejected(self):
        # A backward copy that walks below zero fails on either backend.
        with pytest.raises(ValueError, match="address"):
            TraceBuilder().append_copy(128, 4096, 4, step=-64)
        with pytest.raises(ValueError, match="address"):
            RecordTraceBuilder().append_copy(128, 4096, 4, step=-64)

    @pytest.mark.parametrize("backend", [TraceBuilder, RecordTraceBuilder])
    def test_round_robin_ragged_streams_rejected(self, backend):
        with pytest.raises(ValueError, match="length"):
            backend().append_round_robin(
                [([0, 64], 8, AccessKind.LOAD, 0, 0),
                 ([0], 8, AccessKind.LOAD, 0, 0)])

    @pytest.mark.parametrize("backend", [TraceBuilder, RecordTraceBuilder])
    def test_round_robin_negative_address_rejected(self, backend):
        with pytest.raises(ValueError, match="address"):
            backend().append_round_robin(
                [([64, -64], 8, AccessKind.LOAD, 0, 0)])

    @pytest.mark.parametrize("backend", [TraceBuilder, RecordTraceBuilder])
    def test_append_after_build_rejected(self, backend):
        builder = backend()
        builder.append(0)
        builder.build()
        with pytest.raises(TraceError, match="already built"):
            builder.append(1)

    @pytest.mark.parametrize("backend", [TraceBuilder, RecordTraceBuilder])
    def test_build_twice_rejected(self, backend):
        builder = backend()
        builder.build()
        with pytest.raises(TraceError):
            builder.build()


def build_sample(builder):
    builder.append(0x1000, size=64, pc=1, function="f", gap_cycles=2)
    builder.append_stream(0x2000, 6, kind=AccessKind.STORE, pc=2,
                          function="g")
    builder.append_addresses([0x37, 0x4040, 0x50f0], size=16, pc=3,
                             function="f")
    builder.append(0x7ffc, size=130, pc=4)  # crosses three lines
    builder.append_copy(0x9000, 0xa040, 3, load_pc=5, store_pc=6,
                        function="g", gap_cycles=1, first_gap_cycles=9)
    builder.append_round_robin(
        [([0xb000, 0xb100], 8, AccessKind.LOAD, 7, 1),
         ([0xc020, 0xc0a0], 32, AccessKind.STORE, 8, 0)], function="h")
    return builder.build()


class TestLazyTrace:
    def test_sequence_api_matches_record_backed(self):
        lazy = build_sample(TraceBuilder())
        eager = build_sample(RecordTraceBuilder())
        assert len(lazy) == len(eager)
        assert list(lazy) == list(eager)
        assert lazy[0] == eager[0]
        assert lazy[-1] == eager[-1]
        assert list(lazy[2:5]) == list(eager[2:5])
        assert isinstance(lazy[2:5], Trace)

    def test_compile_is_zero_cost_and_lazy(self):
        trace = build_sample(TraceBuilder())
        assert trace._records is None
        assert trace.compile() is trace.compile()
        assert trace._records is None  # compiling never materializes

    def test_statistics_match_record_backed(self):
        lazy = build_sample(TraceBuilder())
        eager = build_sample(RecordTraceBuilder())
        assert lazy.demand_count == eager.demand_count
        assert lazy.prefetch_count == eager.prefetch_count
        assert lazy.compute_cycles == eager.compute_cycles
        assert lazy.instruction_count == eager.instruction_count
        assert lazy.unique_lines() == eager.unique_lines()
        assert lazy.footprint_bytes() == eager.footprint_bytes()
        assert lazy.functions() == eager.functions()

    def test_columnar_eq_fast_path(self):
        first = build_sample(TraceBuilder())
        second = build_sample(TraceBuilder())
        assert first == second
        assert first._records is None and second._records is None

    def test_columnar_concat_matches_record_concat(self):
        a, b = build_sample(TraceBuilder()), build_sample(TraceBuilder())
        combined = a + b
        assert combined._records is None
        reference = Trace(list(a) + list(b))
        assert_bit_identical(combined, reference)

    def test_concat_reinterns_new_functions(self):
        first = TraceBuilder()
        first.append(0, function="a")
        second = TraceBuilder()
        second.append(64, function="b")
        second.append(128, function="a")
        combined = first.build() + second.build()
        reference = Trace([
            MemoryAccess(address=0, function="a"),
            MemoryAccess(address=64, function="b"),
            MemoryAccess(address=128, function="a"),
        ])
        assert_bit_identical(combined, reference)

    def test_empty_plus_columnar_stays_columnar(self):
        combined = Trace() + build_sample(TraceBuilder())
        assert combined._records is None
        assert list(combined) == list(build_sample(RecordTraceBuilder()))

    def test_mixed_concat_materializes_neither_side(self):
        lazy = build_sample(TraceBuilder())
        eager = build_sample(RecordTraceBuilder())
        combined = lazy + eager
        assert lazy._records is None
        assert list(combined) == list(eager) + list(eager)


class TestColumnarInterleave:
    def make_inputs(self, backend):
        first = backend()
        first.append_stream(0, 40, function="a", gap_cycles=1)
        first.append_stream(1 << 20, 7, function="c")
        second = backend()
        second.append_stream(1 << 16, 25, kind=AccessKind.STORE,
                             function="b")
        third = backend()
        third.append_addresses([i * 4096 for i in range(13)], function="a")
        return [first.build(), second.build(), third.build()]

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_matches_record_path(self, chunk):
        columnar = interleave(self.make_inputs(TraceBuilder), chunk=chunk)
        record = interleave(self.make_inputs(RecordTraceBuilder),
                            chunk=chunk)
        assert columnar._records is None
        assert_bit_identical(columnar, record)

    @pytest.mark.parametrize("limit", [1, 17, 50, 200])
    def test_limit_matches_record_path(self, limit):
        columnar = interleave(self.make_inputs(TraceBuilder), chunk=9,
                              limit=limit)
        record = interleave(self.make_inputs(RecordTraceBuilder), chunk=9,
                            limit=limit)
        assert_bit_identical(columnar, record)

    def test_mixed_backing_takes_record_path(self):
        inputs = [build_sample(TraceBuilder()),
                  build_sample(RecordTraceBuilder())]
        merged = interleave(inputs, chunk=3)
        reference = interleave([Trace(list(t)) for t in inputs], chunk=3)
        assert list(merged) == list(reference)


_OP = st.one_of(
    st.tuples(
        st.just("append"),
        st.integers(min_value=0, max_value=1 << 24),
        st.integers(min_value=1, max_value=512),
        st.sampled_from(tuple(AccessKind)),
        st.integers(min_value=0, max_value=9),
        st.sampled_from(("", "alpha", "beta", "gamma")),
        st.integers(min_value=0, max_value=30),
    ),
    st.tuples(
        st.just("stream"),
        st.integers(min_value=0, max_value=1 << 24),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=256),
        st.integers(min_value=1, max_value=256),
        st.sampled_from(("", "alpha", "delta")),
    ),
    st.tuples(
        st.just("addresses"),
        st.lists(st.integers(min_value=0, max_value=1 << 24), max_size=30),
        st.integers(min_value=1, max_value=128),
        st.sampled_from(("alpha", "epsilon")),
    ),
    st.tuples(
        st.just("copy"),
        st.integers(min_value=0, max_value=1 << 24),
        st.integers(min_value=0, max_value=1 << 24),
        st.integers(min_value=0, max_value=24),
        st.sampled_from((64, 128, 8, 96)),
        st.integers(min_value=1, max_value=256),
        st.integers(min_value=-1, max_value=40),
        st.sampled_from(("", "zeta")),
    ),
    st.tuples(
        st.just("round_robin"),
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=200),
                st.sampled_from(tuple(AccessKind)),
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=12),
            ),
            max_size=4),
        st.integers(min_value=0, max_value=20),
        st.sampled_from(("alpha", "eta")),
    ),
)


def apply_ops(builder, ops):
    for op in ops:
        if op[0] == "append":
            _, address, size, kind, pc, function, gap = op
            builder.append(address, size=size, kind=kind, pc=pc,
                           function=function, gap_cycles=gap)
        elif op[0] == "stream":
            _, base, count, step, size, function = op
            builder.append_stream(base, count, step=step, size=size,
                                  function=function)
        elif op[0] == "addresses":
            _, addresses, size, function = op
            builder.append_addresses(addresses, size=size, function=function)
        elif op[0] == "copy":
            _, src, dst, count, step, size, first_gap, function = op
            builder.append_copy(src, dst, count, step=step, size=size,
                                load_pc=5, store_pc=6, function=function,
                                gap_cycles=2, first_gap_cycles=first_gap)
        else:
            _, specs, length, function = op
            # Deterministic per-stream addresses so both backends see the
            # same input without sharing list objects.
            builder.append_round_robin(
                [([(position * 977 + index * 64) % (1 << 20)
                   for index in range(length)], size, kind, pc, gap)
                 for position, (size, kind, pc, gap) in enumerate(specs)],
                function=function)
    return builder.build()


class TestPropertyEquivalence:
    @given(ops=st.lists(_OP, max_size=25))
    @settings(max_examples=scaled(80), deadline=None)
    def test_random_append_sequences(self, ops):
        columnar = apply_ops(TraceBuilder(), ops)
        record = apply_ops(RecordTraceBuilder(), ops)
        assert_bit_identical(columnar, record)
