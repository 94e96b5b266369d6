"""Property-based equivalence: the lockstep engine on arbitrary traces.

Hypothesis drives :func:`repro.memsys.run_many` with random record
mixes and arm fleets, and asserts the batched path is
bit-identical to per-arm runs of the record-at-a-time interpreter — the
same everything-observable comparison the golden suite makes, minimized
automatically when a counterexample exists.
"""

from tests.hypothesis_profiles import scaled
from hypothesis import given, settings, strategies as st

from repro.access import AccessKind, MemoryAccess, Trace
from repro.memsys import (
    ConstantExternalLoad,
    MemoryHierarchy,
    PrefetcherBank,
    run_many,
)

from repro.memsys import batched
from repro.memsys.hierarchy import reference_engine
from tests.test_batched_engine import exotic_bank, run_reference, snapshot

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

records_strategy = st.lists(record_strategy, max_size=100)

# None mixed with constant loads: both are lockstep-eligible and must
# co-batch (an absent load is bit-equal to a zero-rate one only in the
# formula's limit, so the engine carries the distinction per arm).
loads_strategy = st.lists(
    st.one_of(st.none(),
              st.floats(min_value=0.0, max_value=4.0,
                        allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=7)


#: Per-arm hardware-bank shapes the property fleets mix: ablated,
#: the stock default bank, and a hinted/feedback/stream composite —
#: all lockstep-safe, so mixed fleets exercise the grouping logic.
BANK_SHAPES = ("empty", "default", "exotic")


def _build_bank(shape):
    if shape == "empty":
        return PrefetcherBank([])
    if shape == "exotic":
        return exotic_bank()
    return None  # the hierarchy's default bank


def build_arms(loads, banks=None):
    return [
        MemoryHierarchy(
            prefetchers=_build_bank(banks[index] if banks else "empty"),
            external_load=None if load is None
            else ConstantExternalLoad(load))
        for index, load in enumerate(loads)
    ]


def assert_fleet_agrees(records, loads, split=None, banks=None):
    if split is None:
        traces = [Trace(records)]
    else:
        traces = [Trace(records[:split]), Trace(records[split:])]
    scalar_arms = build_arms(loads, banks)
    batched_arms = build_arms(loads, banks)
    for trace in traces:
        scalar_results = run_reference(scalar_arms, trace)
        batched_results = run_many(batched_arms, trace)
        for arm in range(len(loads)):
            assert (snapshot(batched_arms[arm], batched_results[arm])
                    == snapshot(scalar_arms[arm], scalar_results[arm]))


class TestPropertyEquivalence:
    @given(records=records_strategy, loads=loads_strategy)
    @settings(max_examples=scaled(40), deadline=None)
    def test_random_fleets(self, records, loads):
        assert_fleet_agrees(records, loads)

    @given(records=records_strategy, loads=loads_strategy,
           split=st.integers(min_value=0, max_value=100))
    @settings(max_examples=scaled(25), deadline=None)
    def test_warm_continuation(self, records, loads, split):
        assert_fleet_agrees(records, loads, split=min(split, len(records)))

    @given(records=records_strategy,
           loads=st.lists(st.floats(min_value=0.0, max_value=2.0,
                                    allow_nan=False, allow_infinity=False),
                          min_size=2, max_size=5))
    @settings(max_examples=scaled(20), deadline=None)
    def test_env_default_batch(self, records, loads):
        """The default dispatch batches a constant-load fleet whole: one
        group, one lockstep call of every arm, still agreeing."""
        calls = []
        original = batched.run_lockstep

        def spy(hierarchies, compiled, export_state=True):
            calls.append(len(hierarchies))
            return original(hierarchies, compiled, export_state=export_state)

        batched.run_lockstep = spy
        try:
            assert_fleet_agrees(records, loads)
        finally:
            batched.run_lockstep = original
        assert calls == [len(loads)]


#: One (load, bank-shape) pair per arm, so fleets mix ablated and
#: enabled arms and the engine must group them correctly.
arm_strategy = st.tuples(
    st.one_of(st.none(),
              st.floats(min_value=0.0, max_value=4.0,
                        allow_nan=False, allow_infinity=False)),
    st.sampled_from(BANK_SHAPES))

enabled_arms_strategy = st.lists(arm_strategy, min_size=1, max_size=5)


class TestEnabledBankProperties:
    """The tentpole property: enabled-prefetcher arms batch bit-exactly.

    Fleets mix empty, default, and hinted/feedback banks, so lockstep
    groups form per (config signature, training fingerprint) and every
    group's clone-trained prefetcher state must match the scalar oracle.
    """

    @given(records=records_strategy, arms=enabled_arms_strategy)
    @settings(max_examples=scaled(30), deadline=None)
    def test_random_enabled_fleets(self, records, arms):
        loads = [load for load, _ in arms]
        banks = [bank for _, bank in arms]
        assert_fleet_agrees(records, loads, banks=banks)

    @given(records=records_strategy, arms=enabled_arms_strategy,
           split=st.integers(min_value=0, max_value=100))
    @settings(max_examples=scaled(20), deadline=None)
    def test_warm_enabled_continuation(self, records, arms, split):
        """Epoch two regroups on *trained* fingerprints; warm prefetcher
        state exported from epoch one must still match scalar."""
        loads = [load for load, _ in arms]
        banks = [bank for _, bank in arms]
        assert_fleet_agrees(records, loads, split=min(split, len(records)),
                            banks=banks)


#: What may happen to one arm between two epochs: an MSR-style write of
#: its enabled mask, ``reset()``, a reset of its prefetchers alone,
#: direct ``observe`` calls on its bank, a direct LLC flush or install,
#: a scalar ``run()``, or a crash that drops it from the fleet.
ACTIONS = ("none", "none", "flip", "reset", "bank-reset", "observe",
           "flush", "install", "scalar-run", "drop")

epoch_strategy = st.tuples(
    st.lists(record_strategy, max_size=40),
    st.booleans(),  # export_state
    st.lists(st.tuples(st.sampled_from(ACTIONS),
                       st.integers(min_value=0, max_value=15)),
             min_size=5, max_size=5))


def act(arm, action, arg, trace, reference):
    """Apply one between-epochs action; a scalar run returns its result."""
    if action == "flip":
        for bit, prefetcher in enumerate(arm.prefetchers):
            prefetcher.enabled = bool(arg >> bit & 1)
    elif action == "reset":
        arm.reset()
    elif action == "bank-reset":
        arm.prefetchers.reset()
    elif action == "observe":
        for step in range(arg + 1):
            arm.prefetchers.observe((arg << 16) + step * 64, arg, False)
    elif action == "flush":
        arm.llc.flush()
    elif action == "install":
        arm.llc.install((arg + 1) << 14, prefetched=bool(arg & 1))
    elif action == "scalar-run":
        if reference:
            with reference_engine():
                return arm.run(trace)
        return arm.run(trace)
    return None


class TestEpochLoopProperty:
    """An epoch loop's arms batch from shared lineages every epoch, and
    whatever happens to single arms between epochs, every result and
    post-run state equals the interpreter's."""

    @given(arms=st.lists(arm_strategy, min_size=2, max_size=5),
           epochs=st.lists(epoch_strategy, min_size=2, max_size=4),
           threshold=st.sampled_from((None, 4, 64)))
    @settings(max_examples=scaled(100), deadline=None)
    def test_epoch_loop_matches_interpreter(self, arms, epochs, threshold):
        loads = [load for load, _ in arms]
        banks = [bank for _, bank in arms]
        original = MemoryHierarchy._IN_FLIGHT_PRUNE_THRESHOLD
        if threshold is not None:
            MemoryHierarchy._IN_FLIGHT_PRUNE_THRESHOLD = threshold
        try:
            fleet = build_arms(loads, banks)
            oracle = build_arms(loads, banks)
            for records, export_state, actions in epochs:
                trace = Trace(records)
                for index in reversed(range(len(fleet))):
                    action, arg = actions[index]
                    if action == "drop":
                        del fleet[index], oracle[index]
                        continue
                    got = act(fleet[index], action, arg, trace, False)
                    want = act(oracle[index], action, arg, trace, True)
                    if got is not None:
                        assert (snapshot(fleet[index], got)
                                == snapshot(oracle[index], want))
                results = run_many(fleet, trace, export_state=export_state)
                with reference_engine():
                    expected = run_many(oracle, trace,
                                        export_state=export_state)
                for arm, result, twin, want in zip(fleet, results, oracle,
                                                   expected):
                    assert snapshot(arm, result) == snapshot(twin, want)
        finally:
            MemoryHierarchy._IN_FLIGHT_PRUNE_THRESHOLD = original
