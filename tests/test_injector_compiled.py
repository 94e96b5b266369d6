"""Golden-equivalence tests: the columnar injector vs the record-path oracle.

``SoftwarePrefetchInjector.inject`` runs on compiled columns by default;
the engine switch (``reference_engine()``, or ``REPRO_SLOW_ENGINE=1``)
forces the original record-path implementation.
Both must produce **bit-identical** traces — records, compiled columns
(including function-interning order), and ``InjectionStats`` — across
every injection mode: plain insertion, unclamped, size-gated, hint
emission, sub-line-stride streams, and interleaved multi-site runs.
"""

import random

from tests.hypothesis_profiles import scaled
from hypothesis import given, settings, strategies as st

from repro.access import (
    AccessKind,
    AddressSpace,
    MemoryAccess,
    Trace,
    interleave,
)
from repro.core.soft.descriptor import PrefetchDescriptor
from repro.core.soft.injector import SoftwarePrefetchInjector
from repro.engine import SLOW_ENGINE_ENV, reference_engine
from repro.units import KB
from repro.workloads import tax
from repro.workloads.mixes import fleetbench_trace

from tests.test_trace_builder import assert_same_columns


def inject_both(trace, descriptors, emit_hints=False):
    """Inject with the compiled path and the oracle; return both."""
    fast_injector = SoftwarePrefetchInjector(descriptors,
                                             emit_hints=emit_hints)
    fast = fast_injector.inject(trace)
    slow_injector = SoftwarePrefetchInjector(descriptors,
                                             emit_hints=emit_hints)
    with reference_engine():
        slow = slow_injector.inject(trace)
    return fast, slow, fast_injector.last_stats, slow_injector.last_stats


def assert_paths_agree(trace, descriptors, emit_hints=False):
    fast, slow, fast_stats, slow_stats = inject_both(trace, descriptors, emit_hints)
    assert list(fast) == list(slow)
    assert_same_columns(fast.compile(), Trace(list(slow)).compile())
    assert fast_stats == slow_stats
    return fast, fast_stats


class TestGoldenEquivalence:
    def test_memcpy_batch(self):
        trace = tax.memcpy_call_trace(AddressSpace(),
                                      [256, 4 * KB, 64, 300 * KB])
        out, stats = assert_paths_agree(
            trace,
            [PrefetchDescriptor("memcpy", distance_bytes=512,
                                degree_bytes=128)])
        assert stats.prefetches_inserted > 0
        assert out.prefetch_count == stats.prefetches_inserted

    def test_fleetbench_mix_all_modes(self):
        trace = fleetbench_trace(random.Random(5), AddressSpace(),
                                 scale=0.1)
        targets = ("memcpy", "memset", "hash", "crc32", "serialize",
                   "deserialize", "compress", "decompress")
        for emit_hints in (False, True):
            for clamp in (True, False):
                out, stats = assert_paths_agree(
                    trace,
                    [PrefetchDescriptor(name, distance_bytes=512,
                                        degree_bytes=256,
                                        clamp_to_stream=clamp)
                     for name in targets],
                    emit_hints=emit_hints)
                assert stats.streams_seen > 0

    def test_size_gate(self):
        trace = tax.memcpy_call_trace(AddressSpace(), [128, 64 * KB, 256])
        out, stats = assert_paths_agree(
            trace,
            [PrefetchDescriptor("memcpy", min_size_bytes=4 * KB)])
        assert stats.streams_gated > 0
        assert stats.streams_instrumented > 0

    def test_untargeted_trace_is_shared_copy(self, monkeypatch):
        monkeypatch.delenv(SLOW_ENGINE_ENV, raising=False)
        trace = tax.hashing_trace(AddressSpace(), 8 * KB)
        injector = SoftwarePrefetchInjector(
            [PrefetchDescriptor("memcpy")])
        out = injector.inject(trace)
        assert out is not trace
        assert out.compile() is trace.compile()  # no insertions: share columns
        assert list(out) == list(trace)

    def test_empty_trace(self):
        out, stats = assert_paths_agree(Trace(), [PrefetchDescriptor("memcpy")])
        assert len(out) == 0
        assert stats.streams_seen == 0


class TestEdgeCases:
    """The oracle-checked edge cases: each runs through both paths."""

    def test_sub_line_stride_stream(self):
        # serialize reads 32-byte fields: two accesses per line. The run
        # must span the whole message, not break between fields.
        trace = tax.serialize_trace(AddressSpace(), 8 * KB)
        out, stats = assert_paths_agree(
            trace,
            [PrefetchDescriptor("serialize", distance_bytes=256,
                                degree_bytes=64)])
        assert stats.streams_instrumented >= 1
        assert stats.prefetches_inserted > 0

    def test_emit_hints_single_record_per_stream(self):
        trace = tax.memcpy_call_trace(AddressSpace(), [16 * KB, 32 * KB])
        out, stats = assert_paths_agree(
            trace, [PrefetchDescriptor("memcpy")], emit_hints=True)
        hints = [r for r in out if r.kind is AccessKind.STREAM_HINT]
        # One hint per instrumented stream, sized to the whole stream.
        assert len(hints) == stats.streams_instrumented
        for hint in hints:
            assert hint.size % 64 == 0 and hint.size >= 16 * KB

    def test_clamp_at_stream_end(self):
        # 8 lines with distance 4 lines: unclamped overshoots the end,
        # clamped truncates the final prefetches and skips the overshoot.
        records = [MemoryAccess(address=1 << 16 | i * 64, size=64, pc=9,
                                function="memcpy") for i in range(8)]
        trace = Trace(records)
        clamped, clamped_stats = assert_paths_agree(
            trace,
            [PrefetchDescriptor("memcpy", distance_bytes=256,
                                degree_bytes=128, clamp_to_stream=True)])
        unclamped, unclamped_stats = assert_paths_agree(
            trace,
            [PrefetchDescriptor("memcpy", distance_bytes=256,
                                degree_bytes=128, clamp_to_stream=False)])
        stream_end = (1 << 16) + 8 * 64
        clamped_pf = [r for r in clamped
                      if r.kind is AccessKind.SOFTWARE_PREFETCH]
        assert clamped_pf
        for record in clamped_pf:
            assert record.address + record.size <= stream_end
        unclamped_pf = [r for r in unclamped
                        if r.kind is AccessKind.SOFTWARE_PREFETCH]
        assert any(r.address + r.size > stream_end for r in unclamped_pf)
        assert clamped_stats.prefetches_inserted \
            < unclamped_stats.prefetches_inserted

    def test_interleaved_multi_site_runs(self):
        # Two targeted functions plus an untargeted one, interleaved at
        # fine grain: per-site runs must survive the interleaving.
        space = AddressSpace()
        trace = interleave([
            tax.memcpy_trace(0x10000, 0x800000, 16 * KB),
            tax.hashing_trace(space, 16 * KB),
            tax.crc32_trace(space, 8 * KB),
        ], chunk=3)
        out, stats = assert_paths_agree(
            trace,
            [PrefetchDescriptor("memcpy", distance_bytes=512,
                                degree_bytes=256),
             PrefetchDescriptor("hash", distance_bytes=256,
                                degree_bytes=128)])
        assert set(stats.per_function) == {"memcpy", "hash"}
        assert stats.per_function["memcpy"] > 0
        assert stats.per_function["hash"] > 0
        # crc32 was not targeted: its records pass through untouched.
        crc = [r for r in out if r.function == "crc32"]
        assert all(r.kind is AccessKind.LOAD for r in crc)

    def test_injected_output_reinjects_identically(self):
        # Injecting an already-injected trace must skip the existing
        # SOFTWARE_PREFETCH records on both paths.
        trace = tax.memcpy_call_trace(AddressSpace(), [32 * KB])
        injector = SoftwarePrefetchInjector([PrefetchDescriptor("memcpy")])
        once = injector.inject(trace)
        assert_paths_agree(once, [PrefetchDescriptor("memcpy")])


class TestDispatch:
    def test_env_forces_record_path(self, monkeypatch):
        monkeypatch.setenv(SLOW_ENGINE_ENV, "1")

        def boom(self, compiled):
            raise AssertionError("compiled injector used despite env")

        monkeypatch.setattr(SoftwarePrefetchInjector, "_inject_compiled",
                            boom)
        injector = SoftwarePrefetchInjector([PrefetchDescriptor("memcpy")])
        out = injector.inject(tax.memcpy_trace(0, 1 << 20, 4 * KB))
        assert out.prefetch_count > 0

    def test_reference_engine_takes_the_record_path(self, monkeypatch):
        monkeypatch.delenv(SLOW_ENGINE_ENV, raising=False)
        trace = tax.memcpy_trace(0, 1 << 20, 4 * KB)
        injector = SoftwarePrefetchInjector([PrefetchDescriptor("memcpy")])
        assert injector.inject(trace)._records is None
        with reference_engine():
            out = injector.inject(trace)
        assert out._records is not None  # the record path's rebuilt trace
        assert out.prefetch_count > 0

    def test_default_uses_compiled_path(self, monkeypatch):
        monkeypatch.delenv(SLOW_ENGINE_ENV, raising=False)
        used = []
        original = SoftwarePrefetchInjector._inject_compiled

        def spy(self, compiled):
            used.append(True)
            return original(self, compiled)

        monkeypatch.setattr(SoftwarePrefetchInjector, "_inject_compiled",
                            spy)
        injector = SoftwarePrefetchInjector([PrefetchDescriptor("memcpy")])
        injector.inject(tax.memcpy_trace(0, 1 << 20, 4 * KB))
        assert used

    def test_output_is_column_backed(self, monkeypatch):
        monkeypatch.delenv(SLOW_ENGINE_ENV, raising=False)
        injector = SoftwarePrefetchInjector([PrefetchDescriptor("memcpy")])
        out = injector.inject(tax.memcpy_trace(0, 1 << 20, 64 * KB))
        assert out._records is None  # stayed columnar end to end


_LINE = 64

_stream_strategy = st.tuples(
    st.sampled_from(("memcpy", "hash", "other")),   # function
    st.integers(min_value=0, max_value=9),           # pc
    st.integers(min_value=0, max_value=1 << 12),     # base line index
    st.integers(min_value=1, max_value=40),          # lines in the stream
    st.sampled_from((8, 32, 64, 256)),               # access size
)


@st.composite
def trace_strategy(draw):
    """Interleave a handful of streams plus random noise records."""
    streams = draw(st.lists(_stream_strategy, min_size=1, max_size=4))
    chunks = []
    for function, pc, base_line, lines, size in streams:
        base = base_line * _LINE
        records = []
        offset = 0
        while offset < lines * _LINE:
            records.append(MemoryAccess(
                address=base + offset, size=size, pc=pc, function=function))
            offset += max(size, 8) if size < _LINE else size
        chunks.append(Trace(records))
    noise = draw(st.lists(st.builds(
        MemoryAccess,
        address=st.integers(min_value=0, max_value=1 << 20),
        size=st.sampled_from((8, 64)),
        kind=st.sampled_from((AccessKind.LOAD, AccessKind.STORE,
                              AccessKind.SOFTWARE_PREFETCH)),
        pc=st.integers(min_value=10, max_value=12),
        function=st.sampled_from(("memcpy", "noise")),
    ), max_size=15))
    chunk = draw(st.integers(min_value=1, max_value=16))
    merged = interleave(chunks + [Trace(noise)] if noise else chunks,
                        chunk=chunk)
    return merged


_descriptor_strategy = st.builds(
    PrefetchDescriptor,
    function=st.sampled_from(("memcpy", "hash")),
    distance_bytes=st.sampled_from((64, 256, 512, 1024)),
    degree_bytes=st.sampled_from((64, 128, 256)),
    min_size_bytes=st.sampled_from((0, 1024)),
    clamp_to_stream=st.booleans(),
)


class TestPropertyEquivalence:
    @given(trace=trace_strategy(), descriptor=_descriptor_strategy,
           emit_hints=st.booleans())
    @settings(max_examples=scaled(80), deadline=None)
    def test_random_traces(self, trace, descriptor, emit_hints):
        assert_paths_agree(trace, [descriptor],
                           emit_hints=emit_hints)
