"""Property-based equivalence: the lockstep engine on arbitrary traces.

Hypothesis drives :func:`repro.memsys.run_many` with random record
mixes, arm fleets, and batch sizes, and asserts the batched path is
bit-identical to per-arm scalar runs — the same everything-observable
comparison the golden suite makes, minimized automatically when a
counterexample exists.
"""

import pytest
from tests.hypothesis_profiles import scaled
from hypothesis import given, settings, strategies as st

from repro.access import AccessKind, MemoryAccess, Trace
from repro.fleet import resolve_batch_size
from repro.memsys import (
    ConstantExternalLoad,
    MemoryHierarchy,
    PrefetcherBank,
    run_many,
)
from repro.memsys import batched

from tests.test_batched_engine import exotic_bank, snapshot

pytestmark = pytest.mark.skipif(not batched.HAVE_NUMPY,
                                reason="lockstep engine needs numpy")

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


def assert_fleet_agrees(records, loads, batch_size, split=None,
                        banks=None):
    if split is None:
        traces = [Trace(records)]
    else:
        traces = [Trace(records[:split]), Trace(records[split:])]
    scalar_arms = build_arms(loads, banks)
    batched_arms = build_arms(loads, banks)
    for trace in traces:
        scalar_results = run_many(scalar_arms, trace, batch_size=0)
        batched_results = run_many(batched_arms, trace,
                                   batch_size=batch_size)
        for arm in range(len(loads)):
            assert (snapshot(batched_arms[arm], batched_results[arm])
                    == snapshot(scalar_arms[arm], scalar_results[arm]))


class TestPropertyEquivalence:
    @given(records=records_strategy, loads=loads_strategy,
           batch_size=st.integers(min_value=1, max_value=8))
    @settings(max_examples=scaled(40), deadline=None)
    def test_random_fleets(self, records, loads, batch_size):
        assert_fleet_agrees(records, loads, batch_size)

    @given(records=records_strategy, loads=loads_strategy,
           batch_size=st.integers(min_value=1, max_value=8),
           split=st.integers(min_value=0, max_value=100))
    @settings(max_examples=scaled(25), deadline=None)
    def test_warm_continuation(self, records, loads, batch_size, split):
        assert_fleet_agrees(records, loads, batch_size,
                            split=min(split, len(records)))

    @given(records=records_strategy,
           loads=st.lists(st.floats(min_value=0.0, max_value=2.0,
                                    allow_nan=False, allow_infinity=False),
                          min_size=2, max_size=5))
    @settings(max_examples=scaled(20), deadline=None)
    def test_env_default_batch(self, records, loads):
        """The study-layer default also agrees — under whatever
        REPRO_BATCH the environment pins."""
        assert_fleet_agrees(records, loads, resolve_batch_size())


#: One (load, bank-shape) pair per arm, so fleets mix ablated and
#: enabled arms and the engine must group them correctly.
enabled_arms_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(),
                  st.floats(min_value=0.0, max_value=4.0,
                            allow_nan=False, allow_infinity=False)),
        st.sampled_from(BANK_SHAPES)),
    min_size=1, max_size=5)


class TestEnabledBankProperties:
    """The tentpole property: enabled-prefetcher arms batch bit-exactly.

    Fleets mix empty, default, and hinted/feedback banks, so lockstep
    groups form per (config signature, training fingerprint) and every
    group's clone-trained prefetcher state must match the scalar oracle.
    """

    @given(records=records_strategy, arms=enabled_arms_strategy,
           batch_size=st.integers(min_value=1, max_value=8))
    @settings(max_examples=scaled(30), deadline=None)
    def test_random_enabled_fleets(self, records, arms, batch_size):
        loads = [load for load, _ in arms]
        banks = [bank for _, bank in arms]
        assert_fleet_agrees(records, loads, batch_size, banks=banks)

    @given(records=records_strategy, arms=enabled_arms_strategy,
           batch_size=st.integers(min_value=1, max_value=8),
           split=st.integers(min_value=0, max_value=100))
    @settings(max_examples=scaled(20), deadline=None)
    def test_warm_enabled_continuation(self, records, arms, batch_size,
                                       split):
        """Epoch two regroups on *trained* fingerprints; warm prefetcher
        state exported from epoch one must still match scalar."""
        loads = [load for load, _ in arms]
        banks = [bank for _, bank in arms]
        assert_fleet_agrees(records, loads, batch_size,
                            split=min(split, len(records)), banks=banks)
