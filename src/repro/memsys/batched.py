"""The batched lockstep engine: many machine-arms, one trace, one cache pass.

Fleet sweeps run the *same* compiled trace through hundreds of
independent :class:`~repro.memsys.hierarchy.MemoryHierarchy` arms — the
ablation's prefetchers-off fleet, a rollout stage's disabled cohort, a
policy sweep's candidate population. The scalar compiled engine pays the
full per-record cost once per arm. This engine pays the expensive part
once per *batch*, by exploiting the structural fact that makes fleet
arms cheap to batch:

**cache behavior is arm-invariant inside a batch.** Arms share the
trace, the cache geometry, the prefetcher configuration and training
state, and the enabled mask, so every probe's hit level, every LRU
update, every eviction, every prefetcher proposal, and every
in-flight-table membership change is identical across arms — timing
never feeds back into cache state. Only the *float* state diverges:
each arm has its own clock, its own bandwidth window (points land at
per-arm times), its own external DRAM load, and therefore its own fill
latencies and stalls.

The scalar engine is already built on that split
(:mod:`repro.memsys.hierarchy`): a cache pass does the dict and
prefetcher work and records a timing tape, and a replay performs the
tape's float operations on one arm. A batch runs the cache pass once,
from its arms' common cache state and with the bank's lockstep clones,
then replays the tape once per arm, in input order. Scalar and batched arms therefore run the same
float operations in the same order — bit-identity (DESIGN.md §11) holds
by construction: for every arm the :class:`~repro.memsys.stats.RunResult`
and the post-run state (cache contents in LRU order, counters, clock,
bandwidth window, in-flight table, recent-miss history) equal what
``hierarchy.run(trace)`` computes.

**Enabled prefetchers batch too.** ``observe(line, pc, was_hit)`` and
``accept_hint(start, length)`` are pure deterministic functions of
arm-uniform inputs, so a bank whose (enabled, lockstep-safe)
prefetchers start from identical training state evolves identically on
every arm. The batch clones the reference arm's enabled prefetchers
(:meth:`~repro.memsys.prefetchers.bank.PrefetcherBank.clone_enabled_for_lockstep`),
trains the clones once in the cache pass, and every arm adopts the
clones' training plus a shared counter delta. The only uniformity
breaker is the scalar engine's in-flight prune (it compares the table's
arrival times with the arm's clock): crossing its threshold in a batch's
cache pass raises :class:`LockstepBailout`, and :func:`~repro.memsys.hierarchy.run_many` reruns that group on the
scalar engine.

Batching eligibility has two layers. :func:`lockstep_fallback_reason`
is per-arm: every *enabled* hardware prefetcher must be lockstep-safe
(:attr:`~repro.memsys.prefetchers.base.HardwarePrefetcher.lockstep_safe`),
the external DRAM load absent or a
:class:`~repro.memsys.dram.ConstantExternalLoad`, no tracer attached,
and the arm's cache state must be known to equal its group-mates'
without looking at it. Two kinds of arm pass that test. A *cold* arm
(not run since construction or ``reset()``) has empty caches, in-flight
table, recent-miss history and DRAM window. A warm arm passes while its
caches hold a *lineage*
(:class:`~repro.memsys.cache.CacheLineage`): an exporting group hands
every member the pass's set dicts by reference, not a copy each, and
the members then stay identical — same caches, in-flight order, recent
misses and prefetcher training — until one of them changes alone (a
cache change copies first, a training change shows in the arm's
:func:`cached_state_fingerprint`). So :func:`config_signature`,
:func:`cache_lineage` and :func:`cached_state_fingerprint` are the
whole grouping key, nothing walks a cache to find it, and each group
runs as one :func:`run_lockstep` call: an epoch loop batches every
epoch, its groups splitting as arms' enabled masks or training part.

A group holding every live holder of its lineage passes over the shared
dicts in place, when it can prove the pass stays short of the in-flight
prune; any other group passes over a copy, as a cold group passes over
fresh dicts. Sharing is copy on write: a scalar run, ``reset()`` and
every :class:`~repro.memsys.cache.SetAssociativeCache` mutator first
give the arm its own dicts. An arm whose warm state nobody shares runs
scalar (reason ``warm-state``), as do arms that fail the other tests —
a custom prefetcher without the lockstep protocol, a callable load
profile, a tracer — inside the same call, and :class:`BatchOccupancy`
reports who ran where and why.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.memsys.cache import CacheLineage, copy_sets
from repro.memsys.dram import ConstantExternalLoad
from repro.memsys.hierarchy import _Clock
from repro.memsys.prefetchers.bank import PrefetcherBank
from repro.memsys.stats import RunResult


class LockstepBailout(Exception):
    """A batch's cache pass reached the one step lockstep cannot share.

    The scalar engine's in-flight prune compares arrival times with the
    arm's clock, so it would let cache behavior diverge inside a batch.
    The cache pass works on its own dicts and clones and raises before
    any arm is touched, so the caller
    (:func:`~repro.memsys.hierarchy.run_many`) simply reruns the group
    through the scalar engine — bit-identity preserved, only throughput
    lost.
    """


class BatchOccupancy:
    """Where a :func:`~repro.memsys.hierarchy.run_many` call ran its arms.

    Silent scalar fallback used to be invisible; this summary counts
    arms that lockstep-batched, arms that ran scalar, how many lockstep
    groups formed, and — per fallback reason — why scalar arms fell
    back. Merging is additive, so shard summaries fold into a study
    total in any order.
    """

    __slots__ = ("batched_arms", "scalar_arms", "groups", "reasons")

    def __init__(self) -> None:
        self.batched_arms = 0
        self.scalar_arms = 0
        self.groups = 0
        self.reasons: Dict[str, int] = {}

    def record_batched(self, arms: int) -> None:
        self.batched_arms += arms
        self.groups += 1

    def record_scalar(self, arms: int, reason: str) -> None:
        self.scalar_arms += arms
        self.reasons[reason] = self.reasons.get(reason, 0) + arms

    def merge(self, other: "BatchOccupancy") -> "BatchOccupancy":
        self.batched_arms += other.batched_arms
        self.scalar_arms += other.scalar_arms
        self.groups += other.groups
        for reason, arms in other.reasons.items():
            self.reasons[reason] = self.reasons.get(reason, 0) + arms
        return self

    def to_dict(self) -> Dict:
        return {
            "batched_arms": self.batched_arms,
            "scalar_arms": self.scalar_arms,
            "groups": self.groups,
            "fallback_reasons": {reason: self.reasons[reason]
                                 for reason in sorted(self.reasons)},
        }

    @staticmethod
    def summary(stats: Optional[Dict]) -> Optional[str]:
        """The ``engine: N/M arm-runs batched …`` line for a
        :meth:`to_dict` payload, as the CLI footer and ``repro report``
        print it; ``None`` when no arm ran."""
        total = stats and stats["batched_arms"] + stats["scalar_arms"]
        if not total:
            return None
        line = (f"engine: {stats['batched_arms']}/{total} arm-runs batched "
                f"({stats['groups']} lockstep groups)")
        if stats["scalar_arms"]:
            reasons = ", ".join(f"{reason}={count}" for reason, count
                                in stats["fallback_reasons"].items())
            line += f"; {stats['scalar_arms']} scalar: {reasons}"
        return line


def lockstep_fallback_reason(hierarchy) -> Optional[str]:
    """Why ``hierarchy`` cannot join a lockstep batch (``None`` = it can).

    Checks: the arm is cold (not run since construction or ``reset()``,
    and no line installed since) or its caches hold a lineage, no tracer
    attached, every *enabled* hardware prefetcher lockstep-safe (the
    enabled snapshot is kept fresh through MSR-write watchers), and
    external DRAM load absent or constant.
    """
    if hierarchy._cold:
        if hierarchy.l1._size or hierarchy.l2._size or hierarchy.llc._size:
            return "warm-state"
    elif cache_lineage(hierarchy) is None:
        return "warm-state"
    if hierarchy.obs is not None and hierarchy.obs:
        return "tracer"
    if not hierarchy.prefetchers.lockstep_safe():
        return "unsafe-prefetcher"
    external = hierarchy.dram._external_load
    if external is not None and not isinstance(external, ConstantExternalLoad):
        return "external-load"
    return None


def cache_lineage(hierarchy) -> Optional[CacheLineage]:
    """The lineage all three of the arm's caches hold, or None (a cold
    arm, or one that owns some of its caches alone)."""
    lineage = hierarchy.l1._lineage
    if (lineage is not None and hierarchy.l2._lineage is lineage
            and hierarchy.llc._lineage is lineage):
        return lineage
    return None


def config_signature(hierarchy) -> Tuple:
    """Grouping key: arms batch together only when every timing- and
    geometry-relevant config value — including the prefetcher bank's
    composition and parameters — matches."""
    config = hierarchy.config
    dram = config.dram

    def cache_sig(c):
        return (c.line_bytes, c.num_sets, c.associativity,
                c.hit_latency_cycles)

    return (
        config.cycle_ns, config.software_prefetch_cost_cycles,
        config.store_stall_fraction, config.sequential_mlp,
        cache_sig(config.l1), cache_sig(config.l2), cache_sig(config.llc),
        (dram.saturation_bandwidth, dram.unloaded_latency_ns,
         dram.queue_gain, dram.queue_exponent, dram.max_utilization,
         dram.overload_gain, dram.window_ns),
        hierarchy.prefetchers.config_signature(),
    )


def cached_config_signature(hierarchy) -> Tuple:
    """The arm's :func:`config_signature`, cached for its lifetime.

    Geometry, DRAM curve, and bank composition are immutable after
    construction, so the cache never invalidates.
    """
    signature = hierarchy._config_sig_cache
    if signature is None:
        signature = hierarchy._config_sig_cache = config_signature(hierarchy)
    return signature


def cached_state_fingerprint(hierarchy) -> Tuple:
    """The grouping key's state half:
    :meth:`~repro.memsys.prefetchers.bank.PrefetcherBank.state_fingerprint`,
    the enabled mask plus every prefetcher's training, disabled ones
    included.

    Lineage-mates leave a group with equal training, but a call such as
    ``arm.prefetchers.reset()`` or a direct ``observe`` changes one
    mate's training without touching its caches, so every arm is keyed
    on its full training, and a changed mate parts from its lineage's
    group. Nothing is cached: training changes on every run.
    """
    return hierarchy.prefetchers.state_fingerprint()


def _prune_out_of_reach(hierarchy, compiled, clones) -> bool:
    """Whether a cache pass of ``compiled`` from ``hierarchy``'s state
    provably keeps the in-flight table at or below the prune threshold.

    Each trace line (a record touches ``1 + extra``) adds at most one
    entry per line a prefetcher proposes for it, or one software
    prefetch, so the table can grow by at most ``lines x max(1,
    proposals per line)``; an enabled prefetcher without
    :attr:`~repro.memsys.prefetchers.base.HardwarePrefetcher.max_proposals`
    gives no bound.
    """
    proposals = 1
    for clone in clones:
        if clone.max_proposals is None:
            return False
        proposals += clone.max_proposals
    lines = len(compiled.kinds) + sum(compiled.extras)
    return (len(hierarchy._in_flight) + lines * proposals
            <= hierarchy._IN_FLIGHT_PRUNE_THRESHOLD)


def run_lockstep(hierarchies, compiled,
                 export_state: bool = True) -> List[RunResult]:
    """Run ``compiled`` through every hierarchy in lockstep.

    All hierarchies must pass :func:`lockstep_fallback_reason` and share
    one :func:`config_signature`, one :func:`cache_lineage` (None: all
    cold) and one :func:`cached_state_fingerprint`
    (:func:`~repro.memsys.hierarchy.run_many` groups arms so these hold).
    One cache pass runs with the bank's lockstep clones, from the
    lineage's caches, in-flight order and recent misses (from empty
    state for cold arms); then each arm, in input order, replays the
    tape from its own clock, DRAM window and in-flight arrival times,
    and takes in the pass's counts. Returns per-arm results in input
    order; every result and every arm's post-run state is bit-identical
    to the scalar compiled engine's.

    The pass works on the lineage's own dicts only when the group holds
    every live holder of the lineage and :func:`_prune_out_of_reach`
    holds; otherwise it works on a copy (or on fresh dicts, for cold
    arms). With ``export_state``, every arm then holds the pass's dicts
    by reference as one lineage (the same one, after an in-place pass)
    and adopts the clones' training. Without it the arms are about to
    be discarded, so they keep nothing: the pass's dicts are emptied
    before the first replay, and right after its replay each arm drops
    its caches, training, in-flight table, recent misses and DRAM
    window, keeping its result, counters and clock. Either way every
    arm leaves warm.

    Raises :class:`LockstepBailout` — with every arm untouched — if the
    in-flight table crosses the scalar prune threshold; rerun the group
    scalar.
    """
    hierarchies = list(hierarchies)
    first = hierarchies[0]
    clones = first.prefetchers.clone_enabled_for_lockstep()
    lineage = cache_lineage(first)
    caches = (first.l1, first.l2, first.llc)
    in_place = (lineage is not None
                and len(lineage.holders) == 3 * len(hierarchies)
                and _prune_out_of_reach(first, compiled, clones))
    if in_place:
        sets = tuple(cache._sets for cache in caches)
    elif lineage is None:
        sets = ({}, {}, {})
    else:
        sets = tuple(copy_sets(cache._sets) for cache in caches)
    pending = first._in_flight
    tape = first._cache_pass(compiled, sets, PrefetcherBank(clones),
                             dict(zip(pending, range(len(pending)))),
                             list(first._recent_miss_lines), None)
    if not export_state:
        for cache_sets in sets:
            cache_sets.clear()
    elif not in_place:
        lineage = CacheLineage()

    def replay(hierarchy, result: RunResult) -> None:
        hierarchy._replay_tape(
            tape, _Clock(hierarchy, list(hierarchy._in_flight.values())),
            result)
        for target, clone in zip(hierarchy.prefetchers.enabled_prefetchers(),
                                 clones):
            target.apply_counter_delta(clone.counter_signature())
            if export_state:
                target.adopt_training(clone)
        if not export_state:
            hierarchy._drop_state()
        elif not in_place:
            for cache, shared in zip(
                    (hierarchy.l1, hierarchy.l2, hierarchy.llc), sets):
                cache._share(shared, lineage)

    return [hierarchy._measured(replay, hierarchy)
            for hierarchy in hierarchies]
