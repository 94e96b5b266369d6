"""Golden-equivalence tests: the batched lockstep engine vs scalar runs.

:func:`repro.memsys.run_many` batches eligible arms through the
lockstep engine (``repro.memsys.batched``) and must stay **bit-identical**
to running every arm through ``MemoryHierarchy.run`` — every
``RunResult`` float, every per-function stat, every cache and DRAM
counter, and the full post-run hierarchy state. These tests drive both
paths over heterogeneous arm fleets and compare everything, including
the dispatch decisions (which arms batched, which fell back to scalar).

The scalar reference leg runs the record-at-a-time interpreter
(:func:`~repro.memsys.hierarchy.reference_engine`, see
:func:`run_reference`): the compiled scalar engine is the same cache
pass and replay a batch runs, so comparing against it would compare the
code with itself. ``run_many`` sends each group of eligible arms — cold
arms, or warm arms holding one cache lineage — to one lockstep call,
whole.
"""

import gc
import os
import subprocess
import sys
import weakref

import pytest

import repro
from repro.access import AccessKind, MemoryAccess, Trace
from repro.fleet import MicroFleetSweep
from repro.memsys import (
    ConstantExternalLoad,
    MemoryHierarchy,
    PrefetcherBank,
    run_many,
)
from repro.memsys import batched
from repro.memsys.hierarchy import SLOW_ENGINE_ENV, reference_engine
from repro.memsys.prefetchers.bank import default_prefetcher_bank
from repro.memsys.prefetchers.base import HardwarePrefetcher
from repro.memsys.prefetchers.feedback import FeedbackThrottledPrefetcher
from repro.memsys.prefetchers.hinted import HintedRegionPrefetcher
from repro.memsys.prefetchers.nextline import NextLinePrefetcher
from repro.memsys.prefetchers.stream import StreamPrefetcher
from repro.scenarios import NoisyNeighborScenario

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

ARM_LOADS = (None, 0.0, 0.25, 0.5, 1.0, 1.75, 0.125,
             0.25, None, 3.0, 0.5, 0.75, 1.5)


def stat_tuple(stats):
    return tuple(getattr(stats, field) for field in STAT_FIELDS)


def cache_contents(cache):
    """Every line in every set, LRU order, with its untouched-prefetch
    flag — state equality, not just counters."""
    return {
        index: list(lines.items())
        for index, lines in cache._sets.items()
    }


def bank_state(hierarchy):
    """Counters plus (when the protocol allows) the full training state."""
    bank = hierarchy.prefetchers
    counters = tuple(p.counter_signature() for p in bank)
    if bank.lockstep_safe():
        return (counters, bank.state_fingerprint())
    return (counters, None)


def snapshot(hierarchy, result):
    """Everything observable after a run, as one comparable structure."""
    return {
        "result": tuple(getattr(result, field) for field in RESULT_FIELDS),
        "total": stat_tuple(result.total),
        "functions": {name: stat_tuple(stats)
                      for name, stats in result.functions.items()},
        "function_order": list(result.functions),
        "caches": {
            level: (tuple(getattr(getattr(hierarchy, level), counter)
                          for counter in CACHE_COUNTERS),
                    cache_contents(getattr(hierarchy, level)))
            for level in ("l1", "l2", "llc")
        },
        "dram": (hierarchy.dram.demand_fills, hierarchy.dram.prefetch_fills,
                 hierarchy.dram.demand_bytes, hierarchy.dram.prefetch_bytes,
                 hierarchy.dram._window._sum),
        "now_ns": hierarchy.now_ns,
        "sw_issued": hierarchy.software_prefetches_issued,
        "in_flight": dict(hierarchy._in_flight),
        "recent": list(hierarchy._recent_miss_lines),
        "bank": bank_state(hierarchy),
    }


def build_arms(loads=ARM_LOADS):
    """A heterogeneous lockstep-eligible fleet: empty banks, varied
    external loads (None and ConstantExternalLoad must co-batch)."""
    return [
        MemoryHierarchy(
            prefetchers=PrefetcherBank([]),
            external_load=None if load is None
            else ConstantExternalLoad(load))
        for load in loads
    ]


def make_records():
    """A deterministic trace exercising every record kind and edge."""
    records = []
    for i in range(400):
        records.append(MemoryAccess(address=i * 8, size=8, pc=1,
                                    function="stream"))
    for i in range(120):
        records.append(MemoryAccess(
            address=1 << 20 | i * 256, size=256, kind=AccessKind.STORE,
            pc=2, function="writer", gap_cycles=3))
    for i in range(120):
        records.append(MemoryAccess(
            address=(2 << 20) + (i + 8) * 64, size=64,
            kind=AccessKind.SOFTWARE_PREFETCH, pc=3, function="reader"))
        records.append(MemoryAccess(
            address=(2 << 20) + i * 64, size=64, pc=4, function="reader"))
    records.append(MemoryAccess(
        address=3 << 20, size=64 * 64, kind=AccessKind.STREAM_HINT,
        pc=5, function="hinted"))
    for i in range(64):
        records.append(MemoryAccess(address=(3 << 20) + i * 64, size=64,
                                    pc=6, function="hinted"))
    base = 5 << 20
    for i in range(150):
        records.append(MemoryAccess(
            address=base + (i * 7919 % 4096) * 64, size=8, pc=7,
            function="chase", gap_cycles=i % 5))
    # Adjacent-line pairs in both directions (sequential-MLP edges).
    for offset in (0, 64, 128):
        records.append(MemoryAccess(address=base + offset, size=8, pc=7,
                                    function="chase"))
    return records


def run_reference(arms, trace):
    """The scalar reference leg: every arm through the record-at-a-time
    interpreter, the oracle independent of the cache pass and replay."""
    with reference_engine():
        return run_many(arms, trace)


def assert_batched_matches_scalar(records, loads=ARM_LOADS, split=None):
    """Both paths over the same arms must agree on everything.

    ``split`` optionally cuts the records into two back-to-back
    ``run_many`` calls to exercise warm-state continuation.
    """
    if split is None:
        traces = [Trace(records)]
    else:
        traces = [Trace(records[:split]), Trace(records[split:])]
    scalar_arms = build_arms(loads)
    batched_arms = build_arms(loads)
    for trace in traces:
        scalar_results = run_reference(scalar_arms, trace)
        batched_results = run_many(batched_arms, trace)
        assert_arms_agree(batched_arms, batched_results, scalar_arms,
                          scalar_results)


def assert_arms_agree(arms, results, scalar_arms, scalar_results):
    """Every arm's result and post-run state equals the oracle's."""
    assert len(results) == len(scalar_results)
    for arm in range(len(scalar_arms)):
        assert (snapshot(arms[arm], results[arm])
                == snapshot(scalar_arms[arm], scalar_results[arm])), (
            f"arm {arm} diverged")


def spy_lockstep(monkeypatch):
    """Record every run_lockstep call's arm count, without changing it."""
    calls = []
    original = batched.run_lockstep

    def spy(hierarchies, compiled, export_state=True):
        calls.append(len(hierarchies))
        return original(hierarchies, compiled, export_state=export_state)

    monkeypatch.setattr(batched, "run_lockstep", spy)
    return calls


class TestGoldenEquivalence:
    def test_mixed_arms_match_scalar(self):
        assert_batched_matches_scalar(make_records())

    def test_batch_size_one_equals_scalar(self, monkeypatch):
        """The lockstep engine's degenerate case: one-arm batches, each
        arm in its own ``run_many`` call."""
        calls = spy_lockstep(monkeypatch)
        trace = Trace(make_records())
        arms = build_arms()
        results = [run_many([arm], trace)[0] for arm in arms]
        assert calls == [1] * len(ARM_LOADS)
        scalar_arms = build_arms()
        assert_arms_agree(arms, results, scalar_arms,
                          run_reference(scalar_arms, trace))

    def test_one_arm_run_lockstep_matches_interpreter(self):
        """``run_lockstep`` called directly on one enabled-bank arm: one
        cache pass, one replay, and the arm donated the pass's state."""
        trace = Trace(make_records())
        arm = MemoryHierarchy(prefetchers=exotic_bank(),
                              external_load=ConstantExternalLoad(0.5))
        result = batched.run_lockstep([arm], trace.compile())[0]
        scalar_arm = MemoryHierarchy(prefetchers=exotic_bank(),
                                     external_load=ConstantExternalLoad(0.5))
        assert_arms_agree([arm], [result], [scalar_arm],
                          run_reference([scalar_arm], trace))

    def test_batch_larger_than_fleet(self, monkeypatch):
        """However large the group, it runs as one lockstep call."""
        calls = spy_lockstep(monkeypatch)
        assert_batched_matches_scalar(make_records())
        assert calls == [len(ARM_LOADS)]

    def test_warm_state_continuation(self):
        """Back-to-back run_many calls on the same arms agree."""
        assert_batched_matches_scalar(make_records(), split=500)

    def test_empty_trace(self):
        assert_batched_matches_scalar([])

    def test_single_arm(self):
        assert_batched_matches_scalar(make_records(), loads=(0.5,))


class TestDispatch:
    def test_enabled_arm_batches_in_own_group(self, monkeypatch):
        """An arm with live (lockstep-safe) hardware prefetchers now
        batches — in its own one-arm group, since its bank signature
        differs from the empty-bank arms' — and results still come back
        bit-identical, in input order."""
        calls = spy_lockstep(monkeypatch)
        loads = (None, 0.5, 1.0, 0.25)

        def fleet():
            arms = build_arms(loads)
            hot = MemoryHierarchy(prefetchers=default_prefetcher_bank(),
                                  external_load=ConstantExternalLoad(0.5))
            arms.insert(2, hot)
            return arms

        trace = Trace(make_records())
        batched_arms = fleet()
        batched_results = run_many(batched_arms, trace)
        assert sorted(calls) == [1, len(loads)]  # own group, not scalar

        scalar_arms = fleet()
        scalar_results = run_reference(scalar_arms, trace)
        for arm in range(len(scalar_arms)):
            assert (snapshot(batched_arms[arm], batched_results[arm])
                    == snapshot(scalar_arms[arm], scalar_results[arm]))

    def test_unsafe_prefetcher_falls_back_to_scalar(self, monkeypatch):
        """A custom prefetcher without the lockstep protocol keeps its
        arm on the scalar engine (``lockstep_safe`` defaults to False),
        and the occupancy summary names the reason."""

        class OpaquePrefetcher(HardwarePrefetcher):
            def _observe(self, line, pc, was_hit):
                return [] if was_hit else [line + 64]

        calls = spy_lockstep(monkeypatch)
        loads = (None, 0.5, 1.0)

        def fleet():
            arms = build_arms(loads)
            arms.insert(1, MemoryHierarchy(
                prefetchers=PrefetcherBank([OpaquePrefetcher("opaque")])))
            return arms

        trace = Trace(make_records())
        occupancy = batched.BatchOccupancy()
        batched_arms = fleet()
        batched_results = run_many(batched_arms, trace, occupancy=occupancy)
        assert sum(calls) == len(loads)  # the opaque arm stayed scalar
        summary = occupancy.to_dict()
        assert summary["batched_arms"] == len(loads)
        assert summary["fallback_reasons"] == {"unsafe-prefetcher": 1}

        scalar_arms = fleet()
        scalar_results = run_reference(scalar_arms, trace)
        for arm in range(len(scalar_arms)):
            assert (snapshot(batched_arms[arm], batched_results[arm])
                    == snapshot(scalar_arms[arm], scalar_results[arm]))

    def test_msr_flip_regroups_one_arm(self, monkeypatch):
        """An MSR-style prefetcher flip between runs moves one arm out of
        its lineage's group: the first call leaves all six arms holding
        one lineage, and the second splits it by enabled mask into a
        five-arm and a one-arm group — every arm still agreeing with the
        scalar oracle."""
        records = make_records()
        traces = [Trace(records[:500]), Trace(records[500:])]

        def fleet():
            arms = []
            for load in (None, 0.5, 1.0, 0.25, 1.5, 0.5):
                arm = MemoryHierarchy(
                    prefetchers=default_prefetcher_bank(),
                    external_load=None if load is None
                    else ConstantExternalLoad(load))
                arm.set_hardware_prefetchers(False)  # co-batched for now
                arms.append(arm)
            return arms, arms[2]

        calls = spy_lockstep(monkeypatch)
        batched_arms, flipper = fleet()
        batched_a = run_many(batched_arms, traces[0])
        assert sum(calls) == 6  # everyone batched while the bank was off
        calls.clear()
        flipper.set_hardware_prefetchers(True)
        occupancy = batched.BatchOccupancy()
        batched_b = run_many(batched_arms, traces[1], occupancy=occupancy)
        assert calls == [5, 1]
        assert occupancy.to_dict() == {
            "batched_arms": 6, "scalar_arms": 0, "groups": 2,
            "fallback_reasons": {}}

        scalar_arms, scalar_flipper = fleet()
        scalar_a = run_reference(scalar_arms, traces[0])
        scalar_flipper.set_hardware_prefetchers(True)
        scalar_b = run_reference(scalar_arms, traces[1])
        for arm in range(len(scalar_arms)):
            assert (snapshot(batched_arms[arm], batched_a[arm])
                    == snapshot(scalar_arms[arm], scalar_a[arm]))
            assert (snapshot(batched_arms[arm], batched_b[arm])
                    == snapshot(scalar_arms[arm], scalar_b[arm]))

    def test_tracer_arm_ineligible_null_tracer_is_not(self, monkeypatch):
        from repro.obs import NULL_TRACER, Tracer

        calls = spy_lockstep(monkeypatch)
        arms = build_arms((None, 0.5, 1.0))
        arms[0].obs = NULL_TRACER  # falsy: the no-observability state
        arms[1].obs = Tracer()
        trace = Trace(make_records()[:400])
        batched_results = run_many(arms, trace)
        assert sum(calls) == 2  # the recording tracer forced one arm scalar

        scalar_arms = build_arms((None, 0.5, 1.0))
        scalar_results = run_reference(scalar_arms, trace)
        for arm in range(3):
            assert (snapshot(arms[arm], batched_results[arm])
                    == snapshot(scalar_arms[arm], scalar_results[arm]))

    def test_sweep_group_is_one_lockstep_call(self, monkeypatch):
        """A 40-arm one-shard sweep is one group, so it makes exactly one
        ``run_lockstep`` call of 40 arms — no chunking."""
        calls = spy_lockstep(monkeypatch)
        result = MicroFleetSweep(machines=40, shard_size=40,
                                 scale=0.05).run(workers=1, cache_dir="",
                                                 checkpoint_dir="")
        assert calls == [40]
        assert result.occupancy.to_dict() == {
            "batched_arms": 40, "scalar_arms": 0, "groups": 1,
            "fallback_reasons": {}}

    def test_run_many_ignores_batch_env(self, monkeypatch):
        """memsys has no batch size: a stale ``$REPRO_BATCH`` export,
        even one that used to turn batching off, changes nothing."""
        monkeypatch.setenv("REPRO_BATCH", "0")
        calls = spy_lockstep(monkeypatch)
        run_many(build_arms((None, 0.5)), Trace(make_records()[:100]))
        assert calls == [2]

    def test_slow_engine_env_disables_lockstep(self, monkeypatch):
        monkeypatch.setenv(SLOW_ENGINE_ENV, "1")
        calls = spy_lockstep(monkeypatch)
        run_many(build_arms((None, 0.5)), Trace(make_records()[:100]))
        assert calls == []

    def test_prune_bound_forces_scalar(self, monkeypatch):
        """A trace whose software prefetches alone cross the scalar
        engine's in-flight prune threshold (a comparison with each arm's
        clock, which lockstep cannot share) enters lockstep once, bails
        out of the cache pass before any arm is touched, and runs every
        arm scalar under ``prune-bailout`` — still agreeing."""
        monkeypatch.setattr(MemoryHierarchy, "_IN_FLIGHT_PRUNE_THRESHOLD", 4)
        calls = spy_lockstep(monkeypatch)
        records = [MemoryAccess(
            address=(6 << 20) + i * 64, size=64,
            kind=AccessKind.SOFTWARE_PREFETCH, pc=1, function="spray")
            for i in range(64)]
        loads = (None, 0.5, 1.0)
        occupancy = batched.BatchOccupancy()
        arms = build_arms(loads)
        results = run_many(arms, Trace(records), occupancy=occupancy)
        assert calls == [3]
        assert occupancy.to_dict() == {
            "batched_arms": 0, "scalar_arms": 3, "groups": 0,
            "fallback_reasons": {"prune-bailout": 3}}
        scalar_arms = build_arms(loads)
        scalar_results = run_reference(scalar_arms, Trace(records))
        for arm in range(len(loads)):
            assert (snapshot(arms[arm], results[arm])
                    == snapshot(scalar_arms[arm], scalar_results[arm]))


def build_enabled_arms(loads=(None, 0.5, 1.0, 0.25)):
    """A lockstep-eligible fleet with live default banks."""
    return [
        MemoryHierarchy(
            prefetchers=default_prefetcher_bank(),
            external_load=None if load is None
            else ConstantExternalLoad(load))
        for load in loads
    ]


def exotic_bank():
    """Hinted + feedback-wrapped engines: every lockstep hook in play."""
    return PrefetcherBank([
        HintedRegionPrefetcher(name="hinted_stream", degree=2,
                               lead_lines=8, max_regions=4),
        FeedbackThrottledPrefetcher(
            NextLinePrefetcher(name="l1_next_line", degree=2),
            window=32, gate_below=0.4, ungate_above=0.7,
            tracker_entries=256),
        StreamPrefetcher(distance=8, degree=2),
    ])


class TestEnabledGolden:
    """Bit-identity with hardware prefetchers live — the tentpole."""

    def assert_enabled_fleet_agrees(self, bank_factory, split=None):
        records = make_records()
        if split is None:
            traces = [Trace(records)]
        else:
            traces = [Trace(records[:split]), Trace(records[split:])]

        def fleet():
            arms = build_enabled_arms()
            arms.append(MemoryHierarchy(prefetchers=bank_factory()))
            return arms

        scalar_arms, batched_arms = fleet(), fleet()
        for trace in traces:
            scalar_results = run_reference(scalar_arms, trace)
            batched_results = run_many(batched_arms, trace)
            assert_arms_agree(batched_arms, batched_results, scalar_arms,
                              scalar_results)

    def test_default_banks_match_scalar(self):
        self.assert_enabled_fleet_agrees(default_prefetcher_bank)

    def test_hinted_and_feedback_banks_match_scalar(self):
        self.assert_enabled_fleet_agrees(exotic_bank)

    def test_warm_enabled_continuation(self):
        """After a batched first call, the trained (warm) arms continue
        in lockstep from their shared lineage and still agree."""
        self.assert_enabled_fleet_agrees(default_prefetcher_bank, split=500)

    def test_enabled_small_batches(self, monkeypatch):
        """Two-arm groups: a pair of exotic banks and a pair of default
        banks each run as one small lockstep call."""
        def fleet():
            return [MemoryHierarchy(prefetchers=factory(),
                                    external_load=ConstantExternalLoad(load))
                    for factory, load in ((exotic_bank, 0.5),
                                          (default_prefetcher_bank, 0.25),
                                          (exotic_bank, 1.0),
                                          (default_prefetcher_bank, 1.5))]

        calls = spy_lockstep(monkeypatch)
        trace = Trace(make_records())
        arms = fleet()
        results = run_many(arms, trace)
        assert calls == [2, 2]
        scalar_arms = fleet()
        assert_arms_agree(arms, results, scalar_arms,
                          run_reference(scalar_arms, trace))

    def test_hw_prefetches_issued_reported(self):
        arms = build_enabled_arms((None, 0.5))
        results = run_many(arms, Trace(make_records()))
        assert results[0].hw_prefetches_issued > 0
        assert (results[0].hw_prefetches_issued
                == sum(p.issued for p in arms[0].prefetchers))


class TestEligibilityEdges:
    def test_epoch_regrouping_sub_batches(self, monkeypatch):
        """Control-mode shape: daemons re-enable some arms' banks
        between trace slices. The first call batches the cold fleet into
        one lineage; the next call regroups it by enabled mask into two
        lockstep groups."""
        records = make_records()
        traces = [Trace(records[:400]), Trace(records[400:])]

        def fleet():
            arms = build_enabled_arms((None, 0.5, 1.0, 0.25))
            for arm in arms:
                arm.set_hardware_prefetchers(False)
            return arms

        calls = spy_lockstep(monkeypatch)
        batched_arms = fleet()
        run_many(batched_arms, traces[0])
        assert calls == [4]
        calls.clear()
        for arm in batched_arms[2:]:
            arm.set_hardware_prefetchers(True)  # the MSR daemon acted
        occupancy = batched.BatchOccupancy()
        batched_b = run_many(batched_arms, traces[1], occupancy=occupancy)
        assert calls == [2, 2]
        assert occupancy.to_dict() == {
            "batched_arms": 4, "scalar_arms": 0, "groups": 2,
            "fallback_reasons": {}}

        scalar_arms = fleet()
        run_reference(scalar_arms, traces[0])
        for arm in scalar_arms[2:]:
            arm.set_hardware_prefetchers(True)
        scalar_b = run_reference(scalar_arms, traces[1])
        for arm in range(4):
            assert (snapshot(batched_arms[arm], batched_b[arm])
                    == snapshot(scalar_arms[arm], scalar_b[arm]))

    def test_tracer_attached_mid_study(self, monkeypatch):
        """An arm that gains a recording tracer between calls leaves its
        lineage's group and runs scalar under ``tracer``; its two mates
        batch on as one group — and all three still agree."""
        from repro.obs import Tracer

        records = make_records()
        traces = [Trace(records[:400]), Trace(records[400:])]
        calls = spy_lockstep(monkeypatch)
        arms = build_enabled_arms((None, 0.5, 1.0))
        run_many(arms, traces[0])
        assert calls == [3]
        calls.clear()
        arms[1].obs = Tracer()
        occupancy = batched.BatchOccupancy()
        batched_b = run_many(arms, traces[1], occupancy=occupancy)
        assert calls == [2]
        assert occupancy.to_dict()["fallback_reasons"] == {"tracer": 1}

        scalar_arms = build_enabled_arms((None, 0.5, 1.0))
        run_reference(scalar_arms, traces[0])
        scalar_b = run_reference(scalar_arms, traces[1])
        for arm in range(3):
            assert (snapshot(arms[arm], batched_b[arm])
                    == snapshot(scalar_arms[arm], scalar_b[arm]))

    def test_callable_external_load_is_scalar(self, monkeypatch):
        """A non-constant external DRAM load (per-arm utilization feeds
        per-arm latency) keeps its arm on the scalar engine."""
        calls = spy_lockstep(monkeypatch)
        arms = build_enabled_arms((None, 0.5))
        arms.append(MemoryHierarchy(
            prefetchers=default_prefetcher_bank(),
            external_load=lambda now_ns: 0.25))
        occupancy = batched.BatchOccupancy()
        run_many(arms, Trace(make_records()[:300]), occupancy=occupancy)
        assert sum(calls) == 2
        assert occupancy.to_dict()["fallback_reasons"] == {
            "external-load": 1}

    def test_prune_bailout_reruns_scalar(self, monkeypatch):
        """Hardware-issue volume crossing the prune threshold mid-batch
        aborts lockstep (the prune keys on per-arm clocks); the chunk
        reruns scalar, with no state leaked from the aborted batch."""
        monkeypatch.setattr(MemoryHierarchy, "_IN_FLIGHT_PRUNE_THRESHOLD", 4)
        # Pure demand loads: only hardware prefetch issues fill the
        # in-flight table.
        trace = Trace(make_records()[:400])
        occupancy = batched.BatchOccupancy()
        arms = build_enabled_arms((None, 0.5, 1.0))
        results = run_many(arms, trace, occupancy=occupancy)
        summary = occupancy.to_dict()
        assert summary["fallback_reasons"] == {"prune-bailout": 3}
        assert summary["batched_arms"] == 0

        scalar_arms = build_enabled_arms((None, 0.5, 1.0))
        scalar_results = run_reference(scalar_arms, trace)
        for arm in range(3):
            assert (snapshot(arms[arm], results[arm])
                    == snapshot(scalar_arms[arm], scalar_results[arm]))

    def test_cold_lifecycle(self, monkeypatch):
        """Arms are cold from construction until their first run, by
        either engine and under either ``export_state``; an MSR-style
        flip keeps a cold arm cold but moves it to another group. An
        exporting lockstep run leaves its arm holding a lineage, which
        keeps it eligible; a discarding or scalar run leaves it warm
        with state no one shares (``warm-state``). ``reset()`` makes a
        warm arm cold again, so it batches from empty state and still
        agrees with the scalar oracle."""
        trace = Trace(make_records()[:300])
        arms = build_enabled_arms((None, 0.5, 1.0))
        assert all(arm._cold for arm in arms)
        assert all(batched.lockstep_fallback_reason(arm) is None
                   for arm in arms)
        sig = batched.cached_config_signature(arms[0])
        key = batched.cached_state_fingerprint(arms[0])
        arms[0].set_hardware_prefetchers(False)  # MSR-style flip
        assert arms[0]._cold
        assert batched.cached_state_fingerprint(arms[0]) != key
        assert (batched.cached_state_fingerprint(arms[0])
                != batched.cached_state_fingerprint(arms[1]))

        calls = spy_lockstep(monkeypatch)
        run_many(arms[:1], trace)
        run_many(arms[1:2], trace, export_state=False)
        assert calls == [1, 1]  # both left warm by a lockstep run
        arms[2].run(trace)  # scalar
        assert not any(arm._cold for arm in arms)
        assert batched.cache_lineage(arms[0]) is not None
        assert batched.lockstep_fallback_reason(arms[0]) is None
        for arm in arms[1:]:
            assert batched.cache_lineage(arm) is None
            assert batched.lockstep_fallback_reason(arm) == "warm-state"

        calls.clear()
        arms[0].reset()
        assert arms[0]._cold
        assert batched.cache_lineage(arms[0]) is None
        occupancy = batched.BatchOccupancy()
        rerun = run_many(arms[:1], trace, occupancy=occupancy)
        assert calls == [1]
        assert occupancy.to_dict()["batched_arms"] == 1
        assert not arms[0]._cold

        scalar_arm = build_enabled_arms((None,))[0]
        scalar_arm.set_hardware_prefetchers(False)
        run_reference([scalar_arm], trace)
        scalar_arm.reset()
        scalar_rerun = run_reference([scalar_arm], trace)[0]
        assert (snapshot(arms[0], rerun[0])
                == snapshot(scalar_arm, scalar_rerun))
        # Config is lifetime-immutable: the cache survives everything.
        assert arms[0]._config_sig_cache is sig

    def test_noisy_batches_every_epoch(self, monkeypatch):
        """The noisy-neighbor epoch loop hands its arms back to
        ``run_many`` every epoch, and every epoch batches: one group
        while the three arms share a mask, two once machine 0's
        controller disables its prefetchers (epochs 2 and 3) — with the
        interpreter's digest."""
        from repro.scenarios import noisy_digest

        stores = dict(workers=1, cache_dir="", checkpoint_dir="",
                      obs_dir="")
        result = NoisyNeighborScenario(machines=3, epochs=4).run(**stores)
        assert result.occupancy.to_dict() == {
            "batched_arms": 12, "scalar_arms": 0, "groups": 6,
            "fallback_reasons": {}}
        with reference_engine():
            reference = NoisyNeighborScenario(machines=3,
                                              epochs=4).run(**stores)
        assert reference.occupancy.to_dict()["fallback_reasons"] == {
            "slow-engine": 12}
        assert noisy_digest(result) == noisy_digest(reference)


def lineage_fleet(loads=(None, 0.5, 1.0)):
    """Default-bank arms that one exporting ``run_many`` call left
    holding one lineage, with that call's results."""
    arms = build_enabled_arms(loads)
    results = run_many(arms, Trace(make_records()[:400]))
    return arms, results


def line_in(cache):
    """Some resident line of ``cache``."""
    return next(iter(next(iter(cache._sets.values()))))


#: Every way to change one arm's caches outside a lockstep group, with
#: how many of the arm's three caches it takes out of the lineage (a
#: single-cache mutator copies only that cache; the arm then runs
#: scalar, which copies the rest).
MUTATIONS = {
    "compiled-run": (lambda arm: arm.run(Trace(make_records()[400:600])),
                     3),
    "interpreted-run": (lambda arm: run_reference(
        [arm], Trace(make_records()[400:600])), 3),
    "reset": (lambda arm: arm.reset(), 3),
    "drop-state": (lambda arm: arm._drop_state(), 3),
    "llc-flush": (lambda arm: arm.llc.flush(), 1),
    "llc-install": (lambda arm: arm.llc.install(9 << 20), 1),
    "l2-lookup": (lambda arm: arm.l2.lookup(line_in(arm.l2)), 1),
    "l1-invalidate": (lambda arm: arm.l1.invalidate(line_in(arm.l1)), 1),
}


#: Ways to change one arm's prefetcher training without touching its
#: caches, so the arm stays in its lineage.
TRAINING_CHANGES = {
    "bank-reset": lambda arm: arm.prefetchers.reset(),
    "direct-observe": lambda arm: [
        arm.prefetchers["l2_stream"].observe((5 << 20) + i * 64, 1, False)
        for i in range(40)],
}


class TestLineage:
    """Arms of one exporting lockstep group hold its caches by reference
    as one lineage, batch again from it, and copy it before any change
    of their own."""

    def test_group_shares_one_lineage_by_reference(self):
        arms, _ = lineage_fleet()
        lineage = batched.cache_lineage(arms[0])
        assert lineage is not None
        assert len(lineage.holders) == 9
        for arm in arms[1:]:
            assert batched.cache_lineage(arm) is lineage
            for level in ("l1", "l2", "llc"):
                assert getattr(arm, level)._sets is getattr(arms[0],
                                                            level)._sets

    def test_whole_lineage_passes_in_place(self, monkeypatch):
        """A group holding every holder, far from the prune, changes the
        shared dicts in place and keeps its lineage."""
        arms, _ = lineage_fleet()
        lineage = batched.cache_lineage(arms[0])
        llc_sets = arms[0].llc._sets
        calls = spy_lockstep(monkeypatch)
        trace = Trace(make_records()[400:])
        results = run_many(arms, trace)
        assert calls == [3]
        assert all(batched.cache_lineage(arm) is lineage for arm in arms)
        assert arms[0].llc._sets is llc_sets

        scalar_arms = build_enabled_arms((None, 0.5, 1.0))
        run_reference(scalar_arms, Trace(make_records()[:400]))
        assert_arms_agree(arms, results, scalar_arms,
                          run_reference(scalar_arms, trace))

    def test_partial_group_passes_over_a_copy(self, monkeypatch):
        """A group that leaves a holder out (here, a tracer arm) passes
        over a copy: the left-out arm's caches do not move."""
        from repro.obs import Tracer

        arms, results = lineage_fleet()
        lineage = batched.cache_lineage(arms[0])
        arms[2].obs = Tracer()
        before = snapshot(arms[2], results[2])
        original = batched.run_lockstep

        def check_then_run(hierarchies, compiled, export_state=True):
            out = original(hierarchies, compiled, export_state=export_state)
            assert snapshot(arms[2], results[2]) == before
            assert batched.cache_lineage(arms[2]) is lineage
            return out

        monkeypatch.setattr(batched, "run_lockstep", check_then_run)
        trace = Trace(make_records()[400:])
        batched_b = run_many(arms, trace)
        fresh = batched.cache_lineage(arms[0])
        assert fresh is not None and fresh is not lineage
        assert batched.cache_lineage(arms[2]) is None

        scalar_arms = build_enabled_arms((None, 0.5, 1.0))
        run_reference(scalar_arms, Trace(make_records()[:400]))
        assert_arms_agree(arms, batched_b, scalar_arms,
                          run_reference(scalar_arms, trace))

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutating_one_arm_leaves_its_mates_alone(self, mutation):
        arms, results = lineage_fleet()
        lineage = batched.cache_lineage(arms[0])
        before = [snapshot(arm, result)
                  for arm, result in zip(arms[1:], results[1:])]
        mutate, caches_left = MUTATIONS[mutation]
        mutate(arms[0])
        assert batched.cache_lineage(arms[0]) is None
        if not arms[0]._cold:  # reset() makes it cold instead
            assert (batched.lockstep_fallback_reason(arms[0])
                    == "warm-state")
        assert [snapshot(arm, result)
                for arm, result in zip(arms[1:], results[1:])] == before
        assert all(batched.cache_lineage(arm) is lineage
                   for arm in arms[1:])
        assert len(lineage.holders) == 9 - caches_left

    @pytest.mark.parametrize("change", sorted(TRAINING_CHANGES))
    def test_training_change_parts_a_mate_from_its_group(
            self, change, monkeypatch):
        """A mate whose training changed alone batches apart from the
        others, and every arm still agrees with the interpreter."""
        arms, _ = lineage_fleet()
        scalar_arms = build_enabled_arms((None, 0.5, 1.0))
        run_reference(scalar_arms, Trace(make_records()[:400]))
        TRAINING_CHANGES[change](arms[1])
        TRAINING_CHANGES[change](scalar_arms[1])
        assert batched.cache_lineage(arms[1]) is batched.cache_lineage(
            arms[0])
        calls = spy_lockstep(monkeypatch)
        trace = Trace(make_records()[400:])
        results = run_many(arms, trace)
        expected = run_reference(scalar_arms, trace)
        assert [snapshot(arm, result) == snapshot(twin, want)
                for arm, result, twin, want
                in zip(arms, results, scalar_arms, expected)] == [True] * 3
        assert calls == [2, 1]

    def test_sole_holder_owns_without_copying(self):
        """Once its mates are gone, an arm's copy on write takes the
        lineage's dicts as they are."""
        arms, _ = lineage_fleet()
        survivor = arms[0]
        llc_sets = survivor.llc._sets
        del arms[1:]
        survivor.llc.install(9 << 20)
        assert survivor.llc._sets is llc_sets
        assert survivor.llc._lineage is None

    def test_copy_path_when_prune_is_not_provably_out_of_reach(
            self, monkeypatch):
        """With the prune threshold below the pass's bound, a whole
        lineage passes over a copy: its old dicts stay as they were, the
        arms leave with a fresh lineage, and results still agree."""
        loads = (None, 0.5, 1.0)
        first = Trace(make_records()[:400])
        second = Trace([MemoryAccess(address=(7 << 20) + i * 64, size=8,
                                     pc=1, function="scan")
                        for i in range(64)])
        arms = build_arms(loads)  # empty banks: nothing enters in flight
        run_many(arms, first)
        lineage = batched.cache_lineage(arms[0])
        old = {level: cache_contents(getattr(arms[0], level))
               for level in ("l1", "l2", "llc")}
        old_sets = [getattr(arms[0], level)._sets
                    for level in ("l1", "l2", "llc")]
        monkeypatch.setattr(MemoryHierarchy, "_IN_FLIGHT_PRUNE_THRESHOLD",
                            16)
        calls = spy_lockstep(monkeypatch)
        results = run_many(arms, second)
        assert calls == [3]
        fresh = batched.cache_lineage(arms[0])
        assert fresh is not None and fresh is not lineage
        assert [{index: list(lines.items())
                 for index, lines in sets.items()}
                for sets in old_sets] == [old[level]
                                          for level in ("l1", "l2", "llc")]

        scalar_arms = build_arms(loads)
        run_reference(scalar_arms, first)
        assert_arms_agree(arms, results, scalar_arms,
                          run_reference(scalar_arms, second))

    def test_copy_path_bailout_leaves_the_lineage_untouched(
            self, monkeypatch):
        """A copy-path pass that does cross the prune bails out; the
        group reruns scalar from the lineage's unchanged state."""
        loads = (None, 0.5, 1.0)
        first = Trace(make_records()[:400])
        spray = Trace([MemoryAccess(
            address=(6 << 20) + i * 64, size=64,
            kind=AccessKind.SOFTWARE_PREFETCH, pc=1, function="spray")
            for i in range(64)])
        arms = build_arms(loads)
        run_many(arms, first)
        monkeypatch.setattr(MemoryHierarchy, "_IN_FLIGHT_PRUNE_THRESHOLD", 4)
        occupancy = batched.BatchOccupancy()
        results = run_many(arms, spray, occupancy=occupancy)
        assert occupancy.to_dict() == {
            "batched_arms": 0, "scalar_arms": 3, "groups": 0,
            "fallback_reasons": {"prune-bailout": 3}}
        assert all(batched.cache_lineage(arm) is None for arm in arms)

        scalar_arms = build_arms(loads)
        run_reference(scalar_arms, first)
        assert_arms_agree(arms, results, scalar_arms,
                          run_reference(scalar_arms, spray))

    def test_trained_disabled_prefetcher_splits_cold_arms(
            self, monkeypatch):
        """Two cold arms with the same enabled mask and untrained enabled
        prefetchers, but a disabled streamer trained on one of them,
        must not become lineage-mates: the training steers proposals
        once an MSR write enables the streamer."""
        records = make_records()
        first, second = Trace(records[:400]), Trace(records[400:])

        def trained_bank():
            bank = default_prefetcher_bank()
            bank.set_all(False)
            bank["l2_stream"].enabled = True
            MemoryHierarchy(prefetchers=bank).run(Trace(records))
            return bank

        def fleet():
            arms = [MemoryHierarchy(prefetchers=trained_bank()),
                    MemoryHierarchy(prefetchers=default_prefetcher_bank())]
            for arm in arms:
                arm.set_hardware_prefetchers(True)
                arm.prefetchers["l2_stream"].enabled = False
            return arms

        arms = fleet()
        assert ([p.training_fingerprint()
                 for p in arms[0].prefetchers.enabled_prefetchers()]
                == [p.training_fingerprint()
                    for p in arms[1].prefetchers.enabled_prefetchers()])
        calls = spy_lockstep(monkeypatch)
        run_many(arms, first)
        assert calls == [1, 1]
        assert (batched.cache_lineage(arms[0])
                is not batched.cache_lineage(arms[1]))
        for arm in arms:
            arm.prefetchers["l2_stream"].enabled = True
        results = run_many(arms, second)

        scalar_arms = fleet()
        run_reference(scalar_arms, first)
        for arm in scalar_arms:
            arm.prefetchers["l2_stream"].enabled = True
        assert_arms_agree(arms, results, scalar_arms,
                          run_reference(scalar_arms, second))

    def test_cold_arm_with_installed_lines_runs_scalar(self):
        """A never-run arm whose caches had lines installed directly is
        not in empty state, so it cannot batch from fresh dicts."""
        trace = Trace(make_records()[:400])

        def fleet():
            arms = build_enabled_arms((None, 0.5))
            arms[0].llc.install(0)
            return arms

        arms = fleet()
        assert batched.lockstep_fallback_reason(arms[0]) == "warm-state"
        occupancy = batched.BatchOccupancy()
        results = run_many(arms, trace, occupancy=occupancy)
        assert occupancy.to_dict()["fallback_reasons"] == {"warm-state": 1}
        scalar_arms = fleet()
        assert_arms_agree(arms, results, scalar_arms,
                          run_reference(scalar_arms, trace))


class TestNoReferenceCycle:
    """A hierarchy is freed by reference counting alone: nothing it owns
    (bank, prefetchers, watchers, MSR subscriptions) points back at it
    or at its bank, so a discarded arm does not wait for the cyclic
    garbage collector."""

    @staticmethod
    def assert_freed_without_gc(run):
        gc.disable()
        try:
            hierarchy = MemoryHierarchy()  # the default bank
            run(hierarchy)
            refs = [weakref.ref(hierarchy),
                    weakref.ref(hierarchy.prefetchers)]
            refs.extend(weakref.ref(p) for p in hierarchy.prefetchers)
            del hierarchy
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_fresh_hierarchy(self):
        self.assert_freed_without_gc(lambda hierarchy: None)

    def test_after_run_many(self):
        trace = Trace(make_records()[:300])
        self.assert_freed_without_gc(
            lambda hierarchy: run_many([hierarchy], trace))

    def test_after_discarding_run_many(self):
        trace = Trace(make_records()[:300])
        self.assert_freed_without_gc(
            lambda hierarchy: run_many([hierarchy], trace,
                                       export_state=False))

    def test_msr_bound_bank(self):
        """The MSR file outlives the arm and still takes writes."""
        from repro.msr import INTEL_LIKE_MAP, MSRFile

        msrs = MSRFile()
        trace = Trace(make_records()[:300])

        def run(hierarchy):
            hierarchy.prefetchers.bind_msr(msrs, INTEL_LIKE_MAP)
            INTEL_LIKE_MAP.disable_all(msrs)
            assert not hierarchy.prefetchers.enabled_prefetchers()
            hierarchy.run(trace)

        self.assert_freed_without_gc(run)
        INTEL_LIKE_MAP.enable_all(msrs)

    def test_noisy_style_toggling(self):
        """Epochs of ``run_many`` with the bank flipped between them, as
        the noisy-neighbor controller does."""
        trace = Trace(make_records()[:300])

        def run(hierarchy):
            for epoch in range(4):
                run_many([hierarchy], trace)
                hierarchy.set_hardware_prefetchers(epoch % 2 == 1)

        self.assert_freed_without_gc(run)

    def test_lockstep_group_leaves_no_garbage(self):
        """A lockstep group's clone bank and every arm are freed by
        reference counting: nothing is left for the collector."""
        trace = Trace(make_records()[:300])
        gc.collect()
        gc.disable()
        try:
            arms = build_enabled_arms()
            run_many(arms, trace, export_state=False)
            del arms
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestExportState:
    def test_export_state_false_matches_results_flushes_caches(self):
        """The sweep path: identical results and counters, no cache
        rebuild."""
        trace = Trace(make_records())
        scalar_arms = build_arms()
        scalar_results = run_reference(scalar_arms, trace)
        arms = build_arms()
        results = run_many(arms, trace, export_state=False)
        for arm in range(len(arms)):
            got, want = results[arm], scalar_results[arm]
            assert (tuple(getattr(got, f) for f in RESULT_FIELDS)
                    == tuple(getattr(want, f) for f in RESULT_FIELDS))
            assert stat_tuple(got.total) == stat_tuple(want.total)
            assert ({n: stat_tuple(s) for n, s in got.functions.items()}
                    == {n: stat_tuple(s) for n, s in want.functions.items()})
            # Counters and clock survive; cache contents do not.
            assert arms[arm].now_ns == scalar_arms[arm].now_ns
            assert (arms[arm].dram.demand_fills
                    == scalar_arms[arm].dram.demand_fills)
            for level in ("l1", "l2", "llc"):
                cache = getattr(arms[arm], level)
                assert cache.occupancy == 0
                assert not cache._sets
                assert (cache.misses
                        == getattr(scalar_arms[arm], level).misses)

    def test_discarded_arms_keep_nothing(self):
        """``export_state=False``, lockstep and scalar arms alike: every
        arm comes back with empty caches, training, in-flight table,
        recent misses and DRAM window, and with the counters, clock and
        results of an exporting run."""
        trace = Trace(make_records())

        def fleet():
            arms = build_enabled_arms()
            arms.append(MemoryHierarchy(external_load=lambda now: 0.5))
            return arms

        kept = fleet()
        kept_results = run_many(kept, trace)
        arms = fleet()
        occupancy = batched.BatchOccupancy()
        results = run_many(arms, trace, export_state=False,
                           occupancy=occupancy)
        assert occupancy.to_dict()["fallback_reasons"] == {
            "external-load": 1}
        fresh_training = default_prefetcher_bank().state_fingerprint()[1]
        for arm, keeper, got, want in zip(arms, kept, results, kept_results):
            assert snapshot(arm, got)["result"] == \
                snapshot(keeper, want)["result"]
            assert ({n: stat_tuple(s) for n, s in got.functions.items()}
                    == {n: stat_tuple(s) for n, s in want.functions.items()})
            assert arm.now_ns == keeper.now_ns
            assert bank_state(arm)[0] == bank_state(keeper)[0]
            assert (arm.dram.demand_fills, arm.dram.prefetch_fills) == (
                keeper.dram.demand_fills, keeper.dram.prefetch_fills)
            for level in ("l1", "l2", "llc"):
                cache, kept_cache = getattr(arm, level), getattr(keeper,
                                                                 level)
                assert (cache.hits, cache.misses, cache.prefetch_hits,
                        cache.wasted_prefetches) == (
                    kept_cache.hits, kept_cache.misses,
                    kept_cache.prefetch_hits, kept_cache.wasted_prefetches)
                assert cache._sets == {} and cache.occupancy == 0
                assert kept_cache.occupancy > 0
            assert arm._in_flight == {}
            assert not arm._recent_miss_lines
            assert not arm.dram._window._points
            assert arm.dram._window._sum == 0.0
            assert arm.prefetchers.state_fingerprint()[1] == fresh_training
            assert not arm._cold

    def test_flushed_arms_can_still_run_again(self):
        """export_state=False leaves arms with empty state but usable.

        The arms are warm and share nothing, so the rerun is scalar. Only the
        cache-behaviour integers can match a fresh arm: caches, training
        and DRAM window are emptied, but the clock survives, and timing
        floats added at a later clock legitimately round differently.
        """
        count_stats = ("instructions", "loads", "stores",
                       "software_prefetches", "l1_misses", "l2_misses",
                       "llc_misses")
        trace = Trace(make_records()[:300])
        arms = build_arms((None, 0.5))
        run_many(arms, trace, export_state=False)
        rerun = run_many(arms, trace)  # cold caches again: same misses
        cold = build_arms((None, 0.5))
        cold_results = run_reference(cold, trace)
        for arm in range(2):
            assert (tuple(getattr(rerun[arm].total, f) for f in count_stats)
                    == tuple(getattr(cold_results[arm].total, f)
                             for f in count_stats))


#: Imports ``repro``, runs a 2-machine rollout, and prints whether NumPy
#: was loaded after each step.
ROLLOUT_PROBE = (
    "import sys\n"
    "import repro\n"
    "print('numpy' in sys.modules)\n"
    "from repro.fleet import RolloutStudy\n"
    "RolloutStudy(machines=2, epochs=4, warmup_epochs=1, seed=5).run(\n"
    "    workers=1, cache_dir='', checkpoint_dir='', obs_dir='')\n"
    "print('numpy' in sys.modules)\n"
)


class TestNumpyStaysLazy:
    """No part of the package imports NumPy, so a rollout process stays
    free of NumPy's memory footprint."""

    def test_import_and_rollout_leave_numpy_unloaded(self):
        env = {name: value for name, value in os.environ.items()
               if not name.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", ROLLOUT_PROBE], env=env,
            capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "False"]


#: Blocks NumPy (any ``import numpy`` raises ImportError), then runs a
#: lockstep-batched control sweep and a noisy-neighbor study.
NO_NUMPY_PROBE = (
    "import sys\n"
    "sys.modules['numpy'] = None\n"
    "from repro.fleet import MicroFleetSweep\n"
    "from repro.scenarios import NoisyNeighborScenario\n"
    "sweep = MicroFleetSweep(mode='control', machines=8, scale=0.25,\n"
    "                        shard_size=4).run(workers=1, cache_dir='',\n"
    "                                          checkpoint_dir='')\n"
    "NoisyNeighborScenario(machines=2, epochs=4).run(\n"
    "    workers=1, cache_dir='', checkpoint_dir='', obs_dir='')\n"
    "print(sweep.occupancy.batched_arms > 0)\n"
    "print(sys.modules['numpy'] is None)\n"
)


class TestRuntimeWithoutNumpy:
    """The package's runtime needs nothing beyond the standard library:
    the lockstep engine batches in plain floats."""

    def test_sweep_and_noisy_run_with_numpy_blocked(self):
        env = {name: value for name, value in os.environ.items()
               if not name.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", NO_NUMPY_PROBE], env=env,
            capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["True", "True"]
