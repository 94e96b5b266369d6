"""Tests for the content-keyed generated-trace memo."""

import random

import pytest

from repro.access import AddressSpace
from repro.workloads import memo
from repro.workloads.memo import (
    MAX_MEMO_ENTRIES,
    MEMO_ENV,
    clear_trace_memo,
    memoized_fleet_mix,
    memoized_function_trace,
    memoized_trace,
)
from repro.workloads.mixes import fleetbench_trace


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_trace_memo()
    yield
    clear_trace_memo()


class TestMemoizedTrace:
    def test_same_key_same_object(self):
        calls = []

        def build():
            calls.append(1)
            return fleetbench_trace(random.Random(1), AddressSpace(),
                                    scale=0.02)

        first = memoized_trace(("k", 1), build)
        second = memoized_trace(("k", 1), build)
        assert first is second
        assert len(calls) == 1

    def test_distinct_keys_distinct_builds(self):
        first = memoized_trace(
            ("k", 1), lambda: fleetbench_trace(random.Random(1),
                                               AddressSpace(), scale=0.02))
        second = memoized_trace(
            ("k", 2), lambda: fleetbench_trace(random.Random(2),
                                               AddressSpace(), scale=0.02))
        assert first is not second

    def test_env_disables(self, monkeypatch):
        monkeypatch.setenv(MEMO_ENV, "0")
        build = lambda: fleetbench_trace(random.Random(1), AddressSpace(),
                                         scale=0.02)
        assert memoized_trace(("k", 1), build) \
            is not memoized_trace(("k", 1), build)

    def test_bounded(self):
        from repro.access import Trace
        for i in range(MAX_MEMO_ENTRIES + 5):
            memoized_trace(("bound", i), Trace)
        assert len(memo._memo) == MAX_MEMO_ENTRIES

    def test_hit_refreshes_recency(self):
        """Eviction is LRU, not FIFO: a re-touched entry must survive a
        sweep that cycles through more than MAX_MEMO_ENTRIES other keys."""
        from repro.access import Trace
        hot = memoized_trace(("hot",), Trace)
        for i in range(MAX_MEMO_ENTRIES - 1):
            memoized_trace(("cold", i), Trace)
        # The memo is now full with ("hot",) as the oldest insertion.
        # Touch it, then insert one more key: the eviction must take the
        # oldest *cold* entry, not the just-touched hot one.
        assert memoized_trace(("hot",), Trace) is hot
        memoized_trace(("cold", MAX_MEMO_ENTRIES), Trace)
        assert ("hot",) in memo._memo
        assert ("cold", 0) not in memo._memo
        assert memoized_trace(("hot",), Trace) is hot

    def test_lru_order_tracks_hits(self):
        from repro.access import Trace
        for key in ("a", "b", "c"):
            memoized_trace((key,), Trace)
        memoized_trace(("a",), Trace)  # hit: "a" becomes most recent
        assert list(memo._memo) == [("b",), ("c",), ("a",)]


class TestWorkloadMemos:
    def test_fleet_mix_repeat_is_same_object(self):
        assert memoized_fleet_mix(3, 0.02) is memoized_fleet_mix(3, 0.02)

    def test_fleet_mix_matches_fresh_generation(self):
        memoized = memoized_fleet_mix(3, 0.02)
        fresh = fleetbench_trace(random.Random(3), AddressSpace(),
                                 scale=0.02)
        assert list(memoized) == list(fresh)

    def test_function_trace_repeat_is_same_object(self):
        assert memoized_function_trace("memcpy", 5, 0.05) \
            is memoized_function_trace("memcpy", 5, 0.05)

    def test_function_trace_matches_fresh_generation(self):
        from repro.workloads.functions import FUNCTION_ROSTER
        memoized = memoized_function_trace("memcpy", 5, 0.05)
        fresh = FUNCTION_ROSTER["memcpy"].trace(random.Random(5),
                                                AddressSpace(), scale=0.05)
        assert list(memoized) == list(fresh)

    def test_shared_object_shares_compiled_lowering(self):
        trace = memoized_fleet_mix(3, 0.02)
        compiled = trace.compile()
        assert memoized_fleet_mix(3, 0.02).compile() is compiled


class TestEngineKey:
    def test_reference_engine_regenerates_on_the_record_path(
            self, monkeypatch):
        """The sweep's ``--compare-serial`` oracle runs right after the
        run it checks, in the same process: under the engine switch it
        must build its own record-path traces, not reuse the columnar
        ones, and still reach the same digest."""
        from repro.access import builder
        from repro.engine import reference_engine
        from repro.fleet import MicroFleetSweep, sweep_digest

        built = []

        class CountingRecordBuilder(builder.RecordTraceBuilder):
            __slots__ = ()

            def __init__(self):
                built.append(1)
                super().__init__()

        monkeypatch.setattr(builder, "RecordTraceBuilder",
                            CountingRecordBuilder)

        def study():
            return MicroFleetSweep(mode="control", machines=8, seed=3,
                                   scale=0.05)

        digest = sweep_digest(study().run(workers=1))
        assert not built
        with reference_engine():
            oracle = sweep_digest(study().run(workers=1))
        assert built
        assert oracle == digest
