"""Golden-equivalence tests: the compiled engine vs the interpreter.

The compiled fast engine must produce **bit-identical** results to the
reference interpreter (``REPRO_SLOW_ENGINE=1``): every ``RunResult``
field including floats, every per-function stat, and every cache/DRAM
counter. These tests drive both engines over deterministic and
hypothesis-generated traces and compare everything.
"""

import os
from contextlib import nullcontext

import pytest
from tests.hypothesis_profiles import scaled
from hypothesis import given, settings, strategies as st

from repro.access import AccessKind, MemoryAccess, Trace
from repro.memsys import ConstantExternalLoad, MemoryHierarchy, PrefetcherBank
from repro.memsys.hierarchy import SLOW_ENGINE_ENV, reference_engine
from repro.memsys.prefetchers.bank import default_prefetcher_bank



@pytest.fixture(autouse=True, scope="module")
def compiled_by_default():
    """The fast legs run whatever engine the environment selects, so an
    exported ``REPRO_SLOW_ENGINE`` is cleared for this module."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(SLOW_ENGINE_ENV, raising=False)
        yield


STAT_FIELDS = (
    "instructions", "compute_cycles", "stall_cycles", "loads", "stores",
    "software_prefetches", "l1_misses", "l2_misses", "llc_misses",
    "prefetch_covered", "late_prefetch_hits", "dram_wait_ns",
    "late_prefetch_wait_ns",
)

RESULT_FIELDS = (
    "elapsed_ns", "dram_demand_fills", "dram_prefetch_fills",
    "dram_demand_bytes", "dram_prefetch_bytes", "hw_prefetches_issued",
    "useful_prefetches", "wasted_prefetches",
)

CACHE_COUNTERS = ("hits", "misses", "prefetch_hits", "wasted_prefetches",
                  "occupancy")


def stat_tuple(stats):
    return tuple(getattr(stats, field) for field in STAT_FIELDS)


def snapshot(hierarchy, result):
    """Everything observable after a run, as one comparable structure."""
    return {
        "result": tuple(getattr(result, field) for field in RESULT_FIELDS),
        "total": stat_tuple(result.total),
        "functions": {name: stat_tuple(stats)
                      for name, stats in result.functions.items()},
        "caches": {
            level: tuple(getattr(getattr(hierarchy, level), counter)
                         for counter in CACHE_COUNTERS)
            for level in ("l1", "l2", "llc")
        },
        "dram": (hierarchy.dram.demand_fills, hierarchy.dram.prefetch_fills,
                 hierarchy.dram.demand_bytes, hierarchy.dram.prefetch_bytes,
                 hierarchy.dram._window._sum),
        "now_ns": hierarchy.now_ns,
        "sw_issued": hierarchy.software_prefetches_issued,
        "in_flight": dict(hierarchy._in_flight),
        "recent": list(hierarchy._recent_miss_lines),
        "hw_issued": [p.issued for p in hierarchy.prefetchers],
    }


def run_one(traces, slow, bank_factory, prefetchers_enabled=True):
    """Run ``traces`` in sequence on one hierarchy with a chosen engine."""
    hierarchy = MemoryHierarchy(prefetchers=bank_factory())
    hierarchy.set_hardware_prefetchers(prefetchers_enabled)
    with reference_engine() if slow else nullcontext():
        results = [hierarchy.run(trace) for trace in traces]
    return hierarchy, results


def assert_engines_agree(records, bank_factory=default_prefetcher_bank,
                         prefetchers_enabled=True, split=None):
    """Both engines over the same records must agree on everything.

    ``split`` optionally cuts the records into two back-to-back runs to
    exercise warm-state continuation.
    """
    if split is None:
        traces = [Trace(records)]
    else:
        traces = [Trace(records[:split]), Trace(records[split:])]
    slow_h, slow_r = run_one(traces, True, bank_factory, prefetchers_enabled)
    fast_h, fast_r = run_one(traces, False, bank_factory, prefetchers_enabled)
    for got_slow, got_fast in zip(slow_r, fast_r):
        assert snapshot(slow_h, got_slow) == snapshot(fast_h, got_fast)


def make_records():
    """A deterministic trace exercising every record kind and edge."""
    records = []
    # Streaming loads with an 8-byte stride: mostly L1 hits.
    for i in range(600):
        records.append(MemoryAccess(address=i * 8, size=8, pc=1,
                                    function="stream"))
    # Multi-line stores (crosses 4 lines) with gaps.
    for i in range(200):
        records.append(MemoryAccess(
            address=1 << 20 | i * 256, size=256, kind=AccessKind.STORE,
            pc=2, function="writer", gap_cycles=3))
    # Software prefetches ahead of a strided reader.
    for i in range(200):
        records.append(MemoryAccess(
            address=(2 << 20) + (i + 8) * 64, size=64,
            kind=AccessKind.SOFTWARE_PREFETCH, pc=3, function="reader"))
        records.append(MemoryAccess(
            address=(2 << 20) + i * 64, size=64, pc=4, function="reader"))
    # A stream hint followed by the hinted region's accesses.
    records.append(MemoryAccess(
        address=3 << 20, size=64 * 64, kind=AccessKind.STREAM_HINT,
        pc=5, function="hinted"))
    for i in range(64):
        records.append(MemoryAccess(address=(3 << 20) + i * 64, size=64,
                                    pc=6, function="hinted"))
    # Pointer-chase style scattered misses (sequential-MLP edge cases:
    # adjacent-line pairs in both directions).
    base = 5 << 20
    for i in range(150):
        records.append(MemoryAccess(
            address=base + (i * 7919 % 4096) * 64, size=8, pc=7,
            function="chase", gap_cycles=i % 5))
    records.append(MemoryAccess(address=base, size=8, pc=7, function="chase"))
    records.append(MemoryAccess(address=base + 64, size=8, pc=7,
                                function="chase"))
    records.append(MemoryAccess(address=base + 128, size=8, pc=7,
                                function="chase"))
    return records


class TestDeterministicEquivalence:
    def test_mixed_kinds_prefetchers_on(self):
        assert_engines_agree(make_records())

    def test_mixed_kinds_prefetchers_off(self):
        assert_engines_agree(make_records(), prefetchers_enabled=False)

    def test_empty_bank(self):
        assert_engines_agree(make_records(),
                             bank_factory=lambda: PrefetcherBank([]))

    def test_warm_state_continuation(self):
        """Back-to-back runs on one hierarchy agree across engines."""
        assert_engines_agree(make_records(), split=700)

    def test_empty_trace(self):
        assert_engines_agree([])

    def test_mid_sequence_prefetcher_flip(self):
        """Snapshot invalidation: flip the bank between runs."""
        records = make_records()
        traces = [Trace(records[:500]), Trace(records[500:])]

        def run(slow):
            hierarchy = MemoryHierarchy()
            with reference_engine() if slow else nullcontext():
                first = hierarchy.run(traces[0])
                hierarchy.set_hardware_prefetchers(False)
                second = hierarchy.run(traces[1])
            return hierarchy, first, second

        slow_h, slow_a, slow_b = run(True)
        fast_h, fast_a, fast_b = run(False)
        assert snapshot(slow_h, slow_a) == snapshot(fast_h, fast_a)
        assert snapshot(slow_h, slow_b) == snapshot(fast_h, fast_b)


def varying_load(now_ns):
    """A co-tenant draw that changes with time: a callable load, which
    the compiled engine must call on every fill."""
    return 0.2 + (now_ns % 7919.0) / 7919.0


def prune_traces():
    """Three traces for one arm, run back to back: hardware-prefetch
    heavy demand traffic, a 64-line software-prefetch spray with loads
    consuming part of it, and a revisit with gaps. With a tiny prune
    threshold the in-flight table crosses it again and again, holding
    both arrived and still-pending entries."""
    stream = [MemoryAccess(address=i * 64, size=8, pc=1, function="walk",
                           gap_cycles=i % 3)
              for i in range(300)]
    spray = [MemoryAccess(address=4 << 20, size=64 * 64,
                          kind=AccessKind.SOFTWARE_PREFETCH, pc=2,
                          function="spray")]
    spray += [MemoryAccess(address=(4 << 20) + i * 128, size=8, pc=3,
                           function="spray", gap_cycles=5)
              for i in range(32)]
    revisit = [MemoryAccess(address=(i * 7919 % 512) * 64, size=16,
                            kind=AccessKind.STORE if i % 4 else
                            AccessKind.LOAD, pc=4, function="revisit",
                            gap_cycles=i % 7)
               for i in range(200)]
    return [Trace(stream), Trace(spray), Trace(revisit)]


class TestPrunePath:
    """The one-arm in-flight prune: when the table outgrows the
    threshold, the cache pass replays its tape so far to learn the
    arm's clock and drops the prefetches that have arrived — exactly
    the interpreter's prune, with every load shape."""

    @pytest.mark.parametrize("threshold", (4, 16))
    @pytest.mark.parametrize(
        "load", (None, ConstantExternalLoad(0.7), varying_load),
        ids=("no-load", "constant-load", "callable-load"))
    def test_compiled_prune_matches_interpreter(self, monkeypatch,
                                                threshold, load):
        monkeypatch.setattr(MemoryHierarchy, "_IN_FLIGHT_PRUNE_THRESHOLD",
                            threshold)
        traces = prune_traces()

        def run(slow):
            if slow:
                monkeypatch.setenv(SLOW_ENGINE_ENV, "1")
            else:
                monkeypatch.delenv(SLOW_ENGINE_ENV, raising=False)
            hierarchy = MemoryHierarchy(external_load=load)
            snapshots = []
            for trace in traces:
                result = hierarchy.run(trace)
                snapshots.append(snapshot(hierarchy, result))
            return snapshots

        slow = run(True)
        assert run(False) == slow
        assert len(slow[-1]["in_flight"]) > 0


class TestReferenceEngine:
    """``reference_engine()`` sets ``REPRO_SLOW_ENGINE=1`` for its scope
    and puts back exactly what was there before."""

    def test_restores_unset_variable(self, monkeypatch):
        monkeypatch.delenv(SLOW_ENGINE_ENV, raising=False)
        with reference_engine():
            assert os.environ[SLOW_ENGINE_ENV] == "1"
        assert SLOW_ENGINE_ENV not in os.environ

    def test_restores_set_variable(self, monkeypatch):
        monkeypatch.setenv(SLOW_ENGINE_ENV, "off")
        with reference_engine():
            assert os.environ[SLOW_ENGINE_ENV] == "1"
        assert os.environ[SLOW_ENGINE_ENV] == "off"

    def test_restores_after_an_exception(self, monkeypatch):
        monkeypatch.setenv(SLOW_ENGINE_ENV, "0")
        with pytest.raises(RuntimeError):
            with reference_engine():
                raise RuntimeError("boom")
        assert os.environ[SLOW_ENGINE_ENV] == "0"

    def test_scope_runs_the_interpreter(self, monkeypatch):
        def boom(self, compiled, result):
            raise AssertionError("compiled engine used inside the scope")

        monkeypatch.setattr(MemoryHierarchy, "_run_compiled", boom)
        hierarchy = MemoryHierarchy(prefetchers=PrefetcherBank([]))
        with reference_engine():
            result = hierarchy.run(Trace([MemoryAccess(address=0)]))
        assert result.total.loads == 1


class TestEngineDispatch:
    def test_env_forces_interpreter(self, monkeypatch):
        """REPRO_SLOW_ENGINE=1 must never reach the compiled engine."""
        monkeypatch.setenv(SLOW_ENGINE_ENV, "1")

        def boom(self, compiled, result):
            raise AssertionError("compiled engine used despite slow-engine env")

        monkeypatch.setattr(MemoryHierarchy, "_run_compiled", boom)
        hierarchy = MemoryHierarchy(prefetchers=PrefetcherBank([]))
        result = hierarchy.run(Trace([MemoryAccess(address=0)]))
        assert result.total.loads == 1

    def test_trace_uses_compiled_engine(self, monkeypatch):
        monkeypatch.delenv(SLOW_ENGINE_ENV, raising=False)
        used = []
        original = MemoryHierarchy._run_compiled

        def spy(self, compiled, result):
            used.append(True)
            return original(self, compiled, result)

        monkeypatch.setattr(MemoryHierarchy, "_run_compiled", spy)
        hierarchy = MemoryHierarchy(prefetchers=PrefetcherBank([]))
        hierarchy.run(Trace([MemoryAccess(address=0)]))
        assert used

    def test_plain_iterable_uses_interpreter(self, monkeypatch):
        """Non-Trace record sequences take the interpreter path."""
        monkeypatch.delenv(SLOW_ENGINE_ENV, raising=False)

        def boom(self, compiled, result):
            raise AssertionError("compiled engine used for a non-Trace input")

        monkeypatch.setattr(MemoryHierarchy, "_run_compiled", boom)
        hierarchy = MemoryHierarchy(prefetchers=PrefetcherBank([]))
        result = hierarchy.run([MemoryAccess(address=0)])
        assert result.total.loads == 1

    def test_compile_is_cached_on_trace(self):
        trace = Trace([MemoryAccess(address=0)])
        assert trace.compile() is trace.compile()


record_strategy = st.builds(
    MemoryAccess,
    address=st.integers(min_value=0, max_value=1 << 22),
    size=st.integers(min_value=1, max_value=512),
    kind=st.sampled_from((AccessKind.LOAD, AccessKind.STORE,
                          AccessKind.SOFTWARE_PREFETCH,
                          AccessKind.STREAM_HINT)),
    pc=st.integers(min_value=0, max_value=9),
    function=st.sampled_from(("alpha", "beta", "gamma")),
    gap_cycles=st.integers(min_value=0, max_value=30),
)

records_strategy = st.lists(record_strategy, max_size=120)


class TestPropertyEquivalence:
    @given(records=records_strategy)
    @settings(max_examples=scaled(60), deadline=None)
    def test_random_traces_prefetchers_on(self, records):
        assert_engines_agree(records)

    @given(records=records_strategy)
    @settings(max_examples=scaled(60), deadline=None)
    def test_random_traces_prefetchers_off(self, records):
        assert_engines_agree(records, prefetchers_enabled=False)

    @given(records=records_strategy,
           split=st.integers(min_value=0, max_value=120))
    @settings(max_examples=scaled(30), deadline=None)
    def test_random_traces_split_runs(self, records, split):
        assert_engines_agree(records, split=min(split, len(records)))
