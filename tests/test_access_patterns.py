"""Tests for the access-pattern analyzer and descriptor proposer (§8.2)."""

import random

import pytest

from repro.access import AddressSpace, MemoryAccess, Trace
from repro.analysis import analyze_trace, propose_descriptors
from repro.units import KB
from repro.workloads import (
    hashing_trace,
    memcpy_trace,
    pointer_chase_trace,
    serialize_trace,
)


@pytest.fixture
def space():
    return AddressSpace()


class TestAnalyzeTrace:
    def test_memcpy_recognized_as_streaming(self):
        patterns = analyze_trace(memcpy_trace(0x10000, 0x90000, 64 * KB))
        pattern = patterns["memcpy"]
        assert pattern.is_streaming
        assert pattern.sequential_fraction > 0.9
        assert pattern.dominant_stride == 64
        assert pattern.stream_p50_bytes >= 32 * KB

    def test_pointer_chase_recognized_as_irregular(self, space):
        patterns = analyze_trace(pointer_chase_trace(
            space, 64 << 20, 500, rng=random.Random(1)))
        pattern = patterns["pointer_chase"]
        assert not pattern.is_streaming
        assert pattern.sequential_fraction < 0.05
        assert pattern.stream_count == 0

    def test_sub_line_strides_count_as_sequential(self, space):
        patterns = analyze_trace(serialize_trace(space, 8 * KB))
        assert patterns["serialize"].is_streaming

    def test_working_set(self, space):
        patterns = analyze_trace(hashing_trace(space, 8 * KB))
        assert patterns["hash"].working_set_lines == 8 * KB // 64

    def test_interleaved_functions_separated(self, space):
        trace = (memcpy_trace(0x10000, 0x90000, 8 * KB)
                 + pointer_chase_trace(space, 1 << 24, 100,
                                       rng=random.Random(2)))
        patterns = analyze_trace(trace)
        assert patterns["memcpy"].is_streaming
        assert not patterns["pointer_chase"].is_streaming

    def test_unattributed_records_ignored(self):
        trace = Trace([MemoryAccess(address=0x1000)])
        assert analyze_trace(trace) == {}


class TestProposeDescriptors:
    def test_targets_only_streaming_functions(self, space):
        trace = (memcpy_trace(0x10000, 0x90000, 64 * KB)
                 + pointer_chase_trace(space, 64 << 20, 500,
                                       rng=random.Random(1)))
        proposals = propose_descriptors(analyze_trace(trace),
                                        min_accesses=10)
        functions = {d.function for d in proposals}
        assert "memcpy" in functions
        assert "pointer_chase" not in functions

    def test_cold_functions_skipped(self):
        trace = memcpy_trace(0x10000, 0x90000, 1 * KB)
        proposals = propose_descriptors(analyze_trace(trace),
                                        min_accesses=1000)
        assert proposals == []

    def test_proposals_are_valid_descriptors(self, space):
        trace = memcpy_trace(0x10000, 0x90000, 64 * KB) \
            + hashing_trace(space, 32 * KB)
        for descriptor in propose_descriptors(analyze_trace(trace),
                                              min_accesses=10):
            assert descriptor.distance_bytes % 64 == 0
            assert descriptor.degree_bytes % 64 == 0
            assert descriptor.clamp_to_stream

    def test_candidate_budget(self, space):
        trace = Trace()
        for index in range(12):
            trace = trace + memcpy_trace(
                0x10000 + index * (1 << 20),
                0x90000 + index * (1 << 20), 16 * KB,
                function=f"fn{index}")
        proposals = propose_descriptors(analyze_trace(trace),
                                        min_accesses=10, max_candidates=3)
        assert len(proposals) == 3

    def test_proposals_actually_help(self):
        """End to end: analyzer proposals speed up the workload they were
        derived from (the §8.2 promise: less guesswork)."""
        from repro.core import SoftwarePrefetchInjector
        from repro.memsys import MemoryHierarchy, PrefetcherBank

        trace = memcpy_trace(0x10_0000, 0x90_0000, 128 * KB)
        proposals = propose_descriptors(analyze_trace(trace),
                                        min_accesses=10)
        assert proposals
        injected = SoftwarePrefetchInjector(proposals).inject(trace)
        plain = MemoryHierarchy(prefetchers=PrefetcherBank([])).run(trace)
        tuned = MemoryHierarchy(prefetchers=PrefetcherBank([])).run(injected)
        assert tuned.elapsed_ns < plain.elapsed_ns
