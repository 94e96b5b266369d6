"""The batched lockstep engine: many machine-arms, one trace, NumPy timing.

Fleet sweeps run the *same* compiled trace through hundreds of
independent :class:`~repro.memsys.hierarchy.MemoryHierarchy` arms — the
ablation's prefetchers-off fleet, a rollout stage's disabled cohort, a
policy sweep's candidate population. The scalar compiled engine pays the
full per-record cost once per arm. This engine pays it once per *batch*,
by exploiting the structural fact that makes fleet arms cheap to batch:

**cache behavior is arm-invariant inside a batch.** Arms share the
trace, the cache geometry, the prefetcher configuration and training
state, and the enabled mask, so every probe's hit level, every LRU
update, every eviction, every prefetcher proposal, and every
in-flight-table membership change is identical across arms — timing
never feeds back into cache state. Only the *float* state diverges:
each arm has its own clock, its own bandwidth window (points land at
per-arm times), its own external DRAM load, and therefore its own fill
latencies and stalls. So the lockstep engine evolves one shared cache
state with plain dicts (the scalar compiled engine's own structures and
op order), and vectorizes just the float timing across arms — a couple
of NumPy ops per hit record, a few dozen per miss record, at any arm
count. Per-arm integer statistics collapse to shared Python ints;
per-arm floats (stall cycles, DRAM waits, late-prefetch residuals) live
in small per-function arrays.

Bit-identity contract (DESIGN.md §11): for every arm the produced
:class:`~repro.memsys.stats.RunResult` — and the arm's post-run state:
cache contents in LRU order, counters, clock, bandwidth window,
in-flight table, recent-miss history — is identical, down to the last
float, to what ``hierarchy.run(trace)`` computes. The discipline that
makes this hold:

* dict-side work *is* the scalar compiled engine's, verbatim;
* every float accumulation happens per-arm in the same order as the
  scalar loop (NumPy elementwise add/sub/mul/div on float64 match
  CPython float arithmetic bit-for-bit; the equivalence suites verify
  this continuously);
* the one operation where NumPy does *not* match CPython —
  ``clamped ** queue_exponent`` (``np.power`` and even ``x * x`` differ
  from ``float.__pow__`` in the last ulp) — is computed with Python's
  ``**`` in a short per-arm loop;
* arms that stall identically receive identical scalar broadcasts
  (e.g. an L2 hit adds the same ``l2_hit_ns`` everywhere), and
  conditional additions use ``x + 0.0 == x`` masks, exactly the
  identities the scalar engine already relies on.

**Enabled prefetchers batch too.** ``observe(line, pc, was_hit)`` and
``accept_hint(start, length)`` are pure deterministic functions of
arm-uniform inputs, so a bank whose (enabled, lockstep-safe)
prefetchers start from identical training state evolves identically on
every arm. The batch clones the reference arm's enabled prefetchers
(:meth:`~repro.memsys.prefetchers.bank.PrefetcherBank.clone_enabled_for_lockstep`),
trains the clones once, issues their proposals through the same
vectorized DRAM path as software prefetches, and at export every arm
adopts the clones' training plus a shared counter delta. The only
uniformity breaker on this path is the scalar engine's in-flight prune
(it compares per-arm clocks): crossing the threshold mid-batch raises
:class:`LockstepBailout`, and — because a batch touches no arm state
before export — :func:`~repro.memsys.hierarchy.run_many` just reruns
that chunk on the scalar engine.

Batching eligibility has two layers. :func:`lockstep_eligible` is
per-arm: the arm must be *cold* (not run since construction or
``reset()``), every *enabled* hardware prefetcher must be lockstep-safe
(:attr:`~repro.memsys.prefetchers.base.HardwarePrefetcher.lockstep_safe`),
the external DRAM load absent or a
:class:`~repro.memsys.dram.ConstantExternalLoad`, and no tracer
attached. Cold arms start with empty caches, in-flight tables,
recent-miss histories and DRAM windows, so a batch starts from empty
state, and :func:`config_signature` plus :func:`cached_state_fingerprint`
(the enabled mask, with any training the bank arrived with) is the
whole grouping key. Warm arms (an epoch loop's second call onward) run
scalar under the ``warm-state`` reason: regrouping them by a walk of
their caches, and copying that state into and back out of every batch,
cost more than the scalar engine on every workload measured (DESIGN.md
§11). Arms that fail either test — a custom prefetcher without the
lockstep protocol, a callable load profile, a warm state — simply run
the scalar engine inside the same call, and :class:`BatchOccupancy`
reports who ran where and why.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Dict, List, Optional, Tuple

import numpy as _np

from repro.memsys.cache import _LineState
from repro.memsys.dram import ConstantExternalLoad
from repro.memsys.stats import FunctionStats, RunResult
from repro.units import CACHE_LINE_BYTES

#: Initial per-arm bandwidth-window ring capacity (grows on demand).
_WINDOW_CAP = 1024


class LockstepBailout(Exception):
    """A batch hit the one operation lockstep cannot vectorize.

    The scalar engine's in-flight prune compares per-arm clocks, so it
    would let cache behavior diverge inside a batch. A
    :class:`_LockstepBatch` mutates no arm state before export, so the
    caller (:func:`~repro.memsys.hierarchy.run_many`) simply reruns the
    chunk through the scalar engine — bit-identity preserved, only
    throughput lost.
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

    def record_batched(self, arms: int, groups: int = 0) -> None:
        self.batched_arms += arms
        self.groups += groups

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


def lockstep_fallback_reason(hierarchy) -> Optional[str]:
    """Why ``hierarchy`` cannot join a lockstep batch (``None`` = it can).

    Checks: the arm is cold (not run since construction or ``reset()``),
    no tracer attached, every *enabled* hardware prefetcher
    lockstep-safe (the enabled snapshot is kept fresh through MSR-write
    watchers), and external DRAM load absent or constant.
    """
    if not hierarchy._cold:
        return "warm-state"
    if hierarchy.obs is not None and hierarchy.obs:
        return "tracer"
    if not hierarchy.prefetchers.lockstep_safe():
        return "unsafe-prefetcher"
    external = hierarchy.dram._external_load
    if external is not None and not isinstance(external, ConstantExternalLoad):
        return "external-load"
    return None


def lockstep_eligible(hierarchy) -> bool:
    """Whether ``hierarchy`` can run in a lockstep batch."""
    return lockstep_fallback_reason(hierarchy) is None


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
    """The grouping key's state half: the arm's enabled mask.

    Only cold arms batch, and a cold arm's caches, in-flight table,
    recent-miss history and DRAM window are empty, so the prefetcher
    bank is the only state that can differ between two of them. The key
    is :meth:`~repro.memsys.prefetchers.bank.PrefetcherBank.state_fingerprint`:
    the enabled mask, plus the enabled prefetchers' training, which is
    empty unless the bank arrived trained. It walks no cache and is
    cheap enough to recompute on every call, so nothing is cached.
    """
    return hierarchy.prefetchers.state_fingerprint()


def software_prefetch_lines(compiled) -> int:
    """Line-iterations the trace's software prefetches can add to the
    in-flight table — the bound that decides whether the scalar engine's
    prune (which compares per-arm clocks, breaking uniformity) could
    ever fire."""
    columns = compiled.arrays()
    swpf = columns["kinds"] == 2
    if not swpf.any():
        return 0
    return int(swpf.sum() + columns["extras"][swpf].sum())


class _FunctionSlot:
    """Per-function statistics: cache-behavior counts shared across the
    batch as Python ints, timing-divergent accumulators as per-arm
    arrays."""

    __slots__ = ("name", "instr", "comp", "loads", "stores", "swpf",
                 "l1m", "l2m", "llcm", "cov", "stall", "late", "dram_w",
                 "late_w")

    def __init__(self, name: str, arms: int) -> None:
        self.name = name
        self.instr = 0
        self.comp = 0
        self.loads = 0
        self.stores = 0
        self.swpf = 0
        self.l1m = 0
        self.l2m = 0
        self.llcm = 0
        self.cov = 0
        self.stall = _np.zeros(arms)
        self.late = _np.zeros(arms, _np.int64)
        self.dram_w = _np.zeros(arms)
        self.late_w = _np.zeros(arms)

    def stats_for(self, arm: int) -> FunctionStats:
        return FunctionStats(
            instructions=self.instr, compute_cycles=self.comp,
            stall_cycles=float(self.stall[arm]), loads=self.loads,
            stores=self.stores, software_prefetches=self.swpf,
            l1_misses=self.l1m, l2_misses=self.l2m, llc_misses=self.llcm,
            prefetch_covered=self.cov,
            late_prefetch_hits=int(self.late[arm]),
            dram_wait_ns=float(self.dram_w[arm]),
            late_prefetch_wait_ns=float(self.late_w[arm]))


def _copy_sets(cache_sets) -> Dict[int, OrderedDict]:
    """Deep-copy a cache's sets (shared working state must not alias any
    arm's own ``_LineState`` objects, and vice versa).

    Hot at high arm counts — export copies every resident line once per
    arm — so line states are cloned with ``__new__`` plus two slot
    stores rather than the constructor.
    """
    new = _LineState.__new__
    cls = _LineState
    copied: Dict[int, OrderedDict] = {}
    for index, cache_set in cache_sets.items():
        if not cache_set:
            continue
        fresh_set = copied[index] = OrderedDict()
        for line, state in cache_set.items():
            fresh = new(cls)
            fresh.prefetched = state.prefetched
            fresh.referenced = state.referenced
            fresh_set[line] = fresh
    return copied


class _LockstepBatch:
    """One lockstep execution: shared dict cache state + per-arm timing."""

    def __init__(self, hierarchies) -> None:
        self.hierarchies = hierarchies
        arms = self.arms = len(hierarchies)
        self.ar = _np.arange(arms)
        reference = hierarchies[0]
        config = reference.config

        self.cycle_ns = config.cycle_ns
        self.sw_cost_cycles = config.software_prefetch_cost_cycles
        self.sw_cost_ns = self.sw_cost_cycles * self.cycle_ns
        self.store_scale = config.store_stall_fraction
        self.seq_mlp = config.sequential_mlp
        self.l2_hit_ns = config.l2.hit_latency_cycles * self.cycle_ns
        self.llc_hit_ns = config.llc.hit_latency_cycles * self.cycle_ns

        dram = config.dram
        self.sat_bw = dram.saturation_bandwidth
        self.max_util = dram.max_utilization
        self.queue_gain = dram.queue_gain
        self.queue_exp = dram.queue_exponent
        self.unloaded_ns = dram.unloaded_latency_ns
        self.overload_gain = dram.overload_gain
        self.win_span = dram.window_ns

        self.now = _np.array([h.now_ns for h in hierarchies], float)
        self.begin = self.now.copy()

        # External load: the scalar engine computes
        # (rate + external(now)) / sat for loaded arms and rate / sat for
        # unloaded ones; x + 0.0 == x bitwise for the non-negative rates
        # involved, so a zero entry makes the two formulas coincide.
        self.ext = _np.zeros(arms)
        for arm, h in enumerate(hierarchies):
            external = h.dram._external_load
            if external is not None:
                self.ext[arm] = external.bytes_per_ns

        # Shared cache state: cold arms start empty, so the batch evolves
        # fresh sets with the scalar engine's own structures.
        self.l1_sets: Dict[int, OrderedDict] = {}
        self.l2_sets: Dict[int, OrderedDict] = {}
        self.llc_sets: Dict[int, OrderedDict] = {}
        # Shared counter deltas (cache behavior is uniform).
        self.l1_hits = self.l1_misses = self.l1_pref_hits = 0
        self.l1_wasted = self.l1_sized = 0
        self.l2_hits = self.l2_misses = self.l2_pref_hits = 0
        self.l2_wasted = self.l2_sized = 0
        self.llc_hits = self.llc_misses = self.llc_pref_hits = 0
        self.llc_wasted = self.llc_sized = 0
        self.d_fills = 0
        self.p_fills = 0
        self.sw_issued = 0
        self.useful = 0

        # Bandwidth window as a per-arm ring: (time, bytes) columns plus
        # the running sum, updated with the scalar engine's exact op
        # sequence (sequential pops subtract, each append adds).
        self.wtimes = _np.zeros((arms, _WINDOW_CAP))
        self.wbytes = _np.zeros((arms, _WINDOW_CAP))
        self.whead = _np.zeros(arms, _np.int64)
        self.wtail = _np.zeros(arms, _np.int64)
        self.win_sum = _np.zeros(arms)

        # In-flight prefetches (membership shared, arrival times per
        # arm) and the recent demand-miss lines (a maxlen-8 deque as a
        # list, exactly the scalar engine's in-loop shadow); both start
        # empty.
        self.in_flight: Dict[int, _np.ndarray] = {}
        self.recent: List[int] = []

        # Enabled-prefetcher clones: bank training is arm-uniform (the
        # grouping key covers it), so the batch trains one clone set
        # and every arm adopts the result at export. Clones start with
        # zeroed counters — their post-run counter signatures *are* the
        # batch deltas.
        self.bank_clones = reference.prefetchers.clone_enabled_for_lockstep()
        # The scalar engine's in-flight prune keys on per-arm clocks, so
        # crossing its threshold mid-batch aborts lockstep (the caller
        # reruns the chunk scalar). Read through the class so tests that
        # monkeypatch the threshold reach both engines.
        self.prune_threshold = type(reference)._IN_FLIGHT_PRUNE_THRESHOLD

        self.slots: List[_FunctionSlot] = []

    # --- the DRAM window --------------------------------------------------

    def _win_compact(self) -> None:
        arms, cap = self.wtimes.shape
        counts = self.wtail - self.whead
        new_cap = cap if int(counts.max()) * 2 <= cap else cap * 2
        times = _np.zeros((arms, new_cap))
        values = _np.zeros((arms, new_cap))
        for arm in range(arms):
            head, tail = int(self.whead[arm]), int(self.wtail[arm])
            count = tail - head
            times[arm, :count] = self.wtimes[arm, head:tail]
            values[arm, :count] = self.wbytes[arm, head:tail]
            self.whead[arm] = 0
            self.wtail[arm] = count
        self.wtimes = times
        self.wbytes = values

    def _dram_fill(self):
        """One line fill on every arm at its own clock; returns per-arm
        latency.

        Mirrors the scalar engine's inlined ``DRAMModel.request``: prune
        the window (pops subtract oldest-first, in order, per arm),
        compute the queuing latency from the utilization *before* the
        fill's bytes join the window, then append.
        """
        ar = self.ar
        horizon = self.now - self.win_span
        head = self.whead
        tail = self.wtail
        while True:
            live = head < tail
            probe = _np.where(live, head, 0)
            pop = live & (self.wtimes[ar, probe] <= horizon)
            if not pop.any():
                break
            popped = ar[pop]
            self.win_sum[popped] = (self.win_sum[popped]
                                    - self.wbytes[popped, head[pop]])
            head = head + pop
        self.whead = head

        rate = self.win_sum / self.win_span
        raw = (rate + self.ext) / self.sat_bw
        u = _np.maximum(raw, 0.0)
        clamped = _np.minimum(u, self.max_util)
        # NumPy's pow does not bit-match float.__pow__; the scalar oracle
        # uses Python ** so this must too, arm by arm.
        queue_exp = self.queue_exp
        powed = _np.array([c ** queue_exp for c in clamped.tolist()])
        queue = self.queue_gain * powed / (1.0 - clamped)
        latency = self.unloaded_ns * (1.0 + queue)
        over = u > self.max_util
        if over.any():
            latency[over] *= 1.0 + self.overload_gain \
                * (u[over] - self.max_util)

        if int(tail.max()) == self.wtimes.shape[1]:
            self._win_compact()
            tail = self.wtail
        self.wtimes[ar, tail] = self.now
        self.wbytes[ar, tail] = 64.0
        self.wtail = tail + 1
        self.win_sum += 64.0
        return latency

    # --- the record loop --------------------------------------------------

    def execute(self, compiled) -> None:
        """The scalar compiled engine's loop, with the cache/dict work
        done once for the batch and the float work vectorized per arm."""
        cycle_ns = self.cycle_ns
        sw_cost_cycles = self.sw_cost_cycles
        sw_cost_ns = self.sw_cost_ns
        store_scale = self.store_scale
        seq_mlp = self.seq_mlp
        l2_hit_ns = self.l2_hit_ns
        llc_hit_ns = self.llc_hit_ns
        line_bytes = CACHE_LINE_BYTES

        reference = self.hierarchies[0]
        l1 = reference.l1
        l1_shift = l1._line_shift
        l1_mask = l1._set_mask
        l1_nsets = l1.config.num_sets
        l1_assoc = l1.config.associativity
        l1_sets = self.l1_sets
        l1_sets_get = l1_sets.get
        l2 = reference.l2
        l2_shift = l2._line_shift
        l2_mask = l2._set_mask
        l2_nsets = l2.config.num_sets
        l2_assoc = l2.config.associativity
        l2_sets = self.l2_sets
        l2_sets_get = l2_sets.get
        llc = reference.llc
        llc_shift = llc._line_shift
        llc_mask = llc._set_mask
        llc_nsets = llc.config.num_sets
        llc_assoc = llc.config.associativity
        llc_sets = self.llc_sets
        llc_sets_get = llc_sets.get
        line_state = _LineState

        in_flight = self.in_flight
        recent_list = self.recent
        recent_cap = 8
        recent_append = recent_list.append
        now = self.now
        arms = self.arms
        dram_fill = self._dram_fill
        bank_clones = self.bank_clones
        prune_threshold = self.prune_threshold
        # Scalar hint dispatch iterates enabled prefetchers that expose
        # accept_hint; the clones are exactly those (always enabled).
        hint_handlers = [
            handler for handler in
            (getattr(clone, "accept_hint", None) for clone in bank_clones)
            if handler is not None]

        fnames = compiled.functions
        slots = self.slots
        slot_by_fid: Dict[int, _FunctionSlot] = {}
        slot = None
        cur_fid = -1
        # Shared int stats in locals, flushed at function boundaries —
        # the scalar engine's own pattern.
        s_instr = s_comp = s_loads = s_stores = s_swpf = 0
        s_l1m = s_l2m = s_llcm = s_cov = 0
        s_stall = s_late = s_dram_w = s_late_w = None

        for kind, line, extra, pc, gap, fid, addr, size in compiled.packed:
            if fid != cur_fid:
                if slot is not None:
                    slot.instr = s_instr
                    slot.comp = s_comp
                    slot.loads = s_loads
                    slot.stores = s_stores
                    slot.swpf = s_swpf
                    slot.l1m = s_l1m
                    slot.l2m = s_l2m
                    slot.llcm = s_llcm
                    slot.cov = s_cov
                slot = slot_by_fid.get(fid)
                if slot is None:
                    slot = slot_by_fid[fid] = _FunctionSlot(fnames[fid], arms)
                    slots.append(slot)
                s_instr = slot.instr
                s_comp = slot.comp
                s_loads = slot.loads
                s_stores = slot.stores
                s_swpf = slot.swpf
                s_l1m = slot.l1m
                s_l2m = slot.l2m
                s_llcm = slot.llcm
                s_cov = slot.cov
                s_stall = slot.stall
                s_late = slot.late
                s_dram_w = slot.dram_w
                s_late_w = slot.late_w
                cur_fid = fid

            if gap:
                now += gap * cycle_ns
                s_instr += gap
                s_comp += gap

            if kind <= 1:  # LOAD (0) / STORE (1): the demand path
                s_instr += 1
                s_comp += 1
                now += cycle_ns
                if kind:
                    s_stores += 1
                    scale = store_scale
                else:
                    s_loads += 1
                    scale = 1.0
                while True:
                    tag = line >> l1_shift
                    if l1_mask is None:
                        cache_set = l1_sets_get(tag % l1_nsets)
                    else:
                        cache_set = l1_sets_get(tag & l1_mask)
                    if cache_set is not None and line in cache_set:
                        state = cache_set[line]
                        cache_set.move_to_end(line)
                        self.l1_hits += 1
                        if state.prefetched and not state.referenced:
                            self.l1_pref_hits += 1
                        state.referenced = True
                        hit = True
                        # Hit: zero stall on every arm — the scalar
                        # engine skips the accumulation (x + 0.0 == x).
                    else:
                        self.l1_misses += 1
                        hit = False
                    if bank_clones:
                        # Train the clones exactly where the scalar loop
                        # trains the bank: after the L1 probe, before the
                        # miss is serviced. Proposals issue after the
                        # stall lands (the scalar op order).
                        hw_lines = []
                        for prefetcher in bank_clones:
                            hw_lines.extend(prefetcher.observe(line, pc, hit))
                    else:
                        hw_lines = None
                    if not hit:
                        s_l1m += 1
                        tag = line >> l2_shift
                        cache_set = l2_sets_get(
                            tag & l2_mask if l2_mask is not None
                            else tag % l2_nsets)
                        if cache_set is not None and line in cache_set:
                            # L2 hit.
                            state = cache_set[line]
                            cache_set.move_to_end(line)
                            self.l2_hits += 1
                            if state.prefetched and not state.referenced:
                                self.l2_pref_hits += 1
                            state.referenced = True
                            stall = l2_hit_ns
                            arrivals = in_flight.pop(line, None)
                            if arrivals is not None:
                                s_cov += 1
                                self.useful += 1
                                residual = (arrivals - now) * scale
                                late = residual > 0.0
                                if late.any():
                                    s_late[late] += 1
                                    s_late_w[late] += residual[late]
                                    stall = stall \
                                        + _np.where(late, residual, 0.0)
                            # Install into L1 (line just missed there).
                            tag = line >> l1_shift
                            index = tag & l1_mask if l1_mask is not None \
                                else tag % l1_nsets
                            cache_set = l1_sets_get(index)
                            if cache_set is None:
                                cache_set = l1_sets[index] = OrderedDict()
                            if len(cache_set) >= l1_assoc:
                                _, victim = cache_set.popitem(False)
                                self.l1_sized -= 1
                                if victim.prefetched and not victim.referenced:
                                    self.l1_wasted += 1
                            cache_set[line] = line_state(False)
                            self.l1_sized += 1
                        else:
                            self.l2_misses += 1
                            s_l2m += 1
                            tag = line >> llc_shift
                            cache_set = llc_sets_get(
                                tag & llc_mask if llc_mask is not None
                                else tag % llc_nsets)
                            if cache_set is not None and line in cache_set:
                                # LLC hit.
                                state = cache_set[line]
                                cache_set.move_to_end(line)
                                self.llc_hits += 1
                                if state.prefetched and not state.referenced:
                                    self.llc_pref_hits += 1
                                state.referenced = True
                                stall = llc_hit_ns
                                arrivals = in_flight.pop(line, None)
                                if arrivals is not None:
                                    s_cov += 1
                                    self.useful += 1
                                    residual = (arrivals - now) * scale
                                    late = residual > 0.0
                                    if late.any():
                                        s_late[late] += 1
                                        s_late_w[late] += residual[late]
                                        stall = stall \
                                            + _np.where(late, residual, 0.0)
                            else:
                                # Full miss: demand DRAM fill.
                                self.llc_misses += 1
                                in_flight.pop(line, None)
                                latency = dram_fill()
                                self.d_fills += 1
                                completion = now + latency
                                wait = (completion - now) * scale
                                if line - line_bytes in recent_list \
                                        or line + line_bytes in recent_list:
                                    wait /= seq_mlp
                                if len(recent_list) >= recent_cap:
                                    del recent_list[0]
                                recent_append(line)
                                s_llcm += 1
                                s_dram_w += wait
                                stall = llc_hit_ns * scale + wait
                                # Install into LLC.
                                index = tag & llc_mask \
                                    if llc_mask is not None \
                                    else tag % llc_nsets
                                cache_set = llc_sets_get(index)
                                if cache_set is None:
                                    cache_set = llc_sets[index] = OrderedDict()
                                if len(cache_set) >= llc_assoc:
                                    _, victim = cache_set.popitem(False)
                                    self.llc_sized -= 1
                                    if victim.prefetched \
                                            and not victim.referenced:
                                        self.llc_wasted += 1
                                cache_set[line] = line_state(False)
                                self.llc_sized += 1
                            # Install into L2.
                            tag = line >> l2_shift
                            index = tag & l2_mask if l2_mask is not None \
                                else tag % l2_nsets
                            cache_set = l2_sets_get(index)
                            if cache_set is None:
                                cache_set = l2_sets[index] = OrderedDict()
                            if len(cache_set) >= l2_assoc:
                                _, victim = cache_set.popitem(False)
                                self.l2_sized -= 1
                                if victim.prefetched and not victim.referenced:
                                    self.l2_wasted += 1
                            cache_set[line] = line_state(False)
                            self.l2_sized += 1
                            # Install into L1.
                            tag = line >> l1_shift
                            index = tag & l1_mask if l1_mask is not None \
                                else tag % l1_nsets
                            cache_set = l1_sets_get(index)
                            if cache_set is None:
                                cache_set = l1_sets[index] = OrderedDict()
                            if len(cache_set) >= l1_assoc:
                                _, victim = cache_set.popitem(False)
                                self.l1_sized -= 1
                                if victim.prefetched and not victim.referenced:
                                    self.l1_wasted += 1
                            cache_set[line] = line_state(False)
                            self.l1_sized += 1
                        now += stall
                        s_stall += stall / cycle_ns
                    if hw_lines:
                        # Inlined _issue_prefetch_at, hardware path:
                        # in-flight dedup, prune (per-arm clocks — the
                        # one thing lockstep cannot do, so bail out),
                        # presence in any level, then a DRAM prefetch
                        # fill and prefetched installs into LLC and L2.
                        # Hardware issues move no time and no stats.
                        for hw_line in hw_lines:
                            if hw_line >= 0 and hw_line not in in_flight:
                                if len(in_flight) > prune_threshold:
                                    raise LockstepBailout
                                tag = hw_line >> l1_shift
                                cache_set = l1_sets_get(
                                    tag & l1_mask if l1_mask is not None
                                    else tag % l1_nsets)
                                present = cache_set is not None \
                                    and hw_line in cache_set
                                if not present:
                                    tag = hw_line >> l2_shift
                                    l2_index = tag & l2_mask \
                                        if l2_mask is not None \
                                        else tag % l2_nsets
                                    cache_set = l2_sets_get(l2_index)
                                    present = cache_set is not None \
                                        and hw_line in cache_set
                                if not present:
                                    tag = hw_line >> llc_shift
                                    llc_index = tag & llc_mask \
                                        if llc_mask is not None \
                                        else tag % llc_nsets
                                    cache_set = llc_sets_get(llc_index)
                                    present = cache_set is not None \
                                        and hw_line in cache_set
                                if not present:
                                    latency = dram_fill()
                                    self.p_fills += 1
                                    in_flight[hw_line] = now + latency
                                    # Install into LLC, tagged prefetched.
                                    cache_set = llc_sets_get(llc_index)
                                    if cache_set is None:
                                        cache_set = llc_sets[llc_index] \
                                            = OrderedDict()
                                    if len(cache_set) >= llc_assoc:
                                        _, victim = cache_set.popitem(False)
                                        self.llc_sized -= 1
                                        if victim.prefetched \
                                                and not victim.referenced:
                                            self.llc_wasted += 1
                                    cache_set[hw_line] = line_state(True)
                                    self.llc_sized += 1
                                    # Install into L2, tagged prefetched.
                                    cache_set = l2_sets_get(l2_index)
                                    if cache_set is None:
                                        cache_set = l2_sets[l2_index] \
                                            = OrderedDict()
                                    if len(cache_set) >= l2_assoc:
                                        _, victim = cache_set.popitem(False)
                                        self.l2_sized -= 1
                                        if victim.prefetched \
                                                and not victim.referenced:
                                            self.l2_wasted += 1
                                    cache_set[hw_line] = line_state(True)
                                    self.l2_sized += 1
                    if not extra:
                        break
                    extra -= 1
                    line += line_bytes

            elif kind == 2:  # SOFTWARE_PREFETCH
                s_instr += 1
                s_comp += sw_cost_cycles
                s_swpf += 1
                now += sw_cost_ns
                while True:
                    if line not in in_flight:
                        # run_many bounds the table's software-prefetch
                        # growth statically, but hardware issues can
                        # still push it past the scalar engine's prune
                        # threshold — and the prune keys on per-arm
                        # clocks, so lockstep aborts instead.
                        if len(in_flight) > prune_threshold:
                            raise LockstepBailout
                        tag = line >> l1_shift
                        cache_set = l1_sets_get(
                            tag & l1_mask if l1_mask is not None
                            else tag % l1_nsets)
                        present = cache_set is not None and line in cache_set
                        if not present:
                            tag = line >> l2_shift
                            l2_index = tag & l2_mask if l2_mask is not None \
                                else tag % l2_nsets
                            cache_set = l2_sets_get(l2_index)
                            present = cache_set is not None \
                                and line in cache_set
                        if not present:
                            tag = line >> llc_shift
                            llc_index = tag & llc_mask \
                                if llc_mask is not None else tag % llc_nsets
                            cache_set = llc_sets_get(llc_index)
                            present = cache_set is not None \
                                and line in cache_set
                        if not present:
                            latency = dram_fill()
                            self.p_fills += 1
                            in_flight[line] = now + latency
                            # Install into LLC, tagged prefetched.
                            cache_set = llc_sets_get(llc_index)
                            if cache_set is None:
                                cache_set = llc_sets[llc_index] = OrderedDict()
                            if len(cache_set) >= llc_assoc:
                                _, victim = cache_set.popitem(False)
                                self.llc_sized -= 1
                                if victim.prefetched \
                                        and not victim.referenced:
                                    self.llc_wasted += 1
                            cache_set[line] = line_state(True)
                            self.llc_sized += 1
                            # Install into L2, tagged prefetched.
                            cache_set = l2_sets_get(l2_index)
                            if cache_set is None:
                                cache_set = l2_sets[l2_index] = OrderedDict()
                            if len(cache_set) >= l2_assoc:
                                _, victim = cache_set.popitem(False)
                                self.l2_sized -= 1
                                if victim.prefetched \
                                        and not victim.referenced:
                                    self.l2_wasted += 1
                            cache_set[line] = line_state(True)
                            self.l2_sized += 1
                            self.sw_issued += 1
                    if not extra:
                        break
                    extra -= 1
                    line += line_bytes

            else:  # STREAM_HINT: one instruction handing the stream
                # extent to the enabled engines — here, to the clones.
                s_instr += 1
                s_comp += sw_cost_cycles
                s_swpf += 1
                now += sw_cost_ns
                for handler in hint_handlers:
                    handler(addr, size)

        if slot is not None:
            slot.instr = s_instr
            slot.comp = s_comp
            slot.loads = s_loads
            slot.stores = s_stores
            slot.swpf = s_swpf
            slot.l1m = s_l1m
            slot.l2m = s_l2m
            slot.llcm = s_llcm
            slot.cov = s_cov

    # --- result assembly / state export ------------------------------------

    def results(self) -> List[RunResult]:
        wasted = self.l1_wasted + self.l2_wasted + self.llc_wasted
        # Clones started with zeroed counters, so their issue totals are
        # the run's deltas — the same quantity the scalar engine reports
        # as total_issued-after minus total_issued-before.
        hw_issued = sum(clone.issued for clone in self.bank_clones)
        out = []
        for arm in range(self.arms):
            result = RunResult()
            for slot in self.slots:
                stats = slot.stats_for(arm)
                result.functions[slot.name] = stats
                result.total.merge(stats)
            result.elapsed_ns = float(self.now[arm]) - float(self.begin[arm])
            result.dram_demand_fills = self.d_fills
            result.dram_prefetch_fills = self.p_fills
            result.dram_demand_bytes = self.d_fills * CACHE_LINE_BYTES
            result.dram_prefetch_bytes = self.p_fills * CACHE_LINE_BYTES
            result.hw_prefetches_issued = hw_issued
            result.useful_prefetches = self.useful
            result.wasted_prefetches = wasted
            out.append(result)
        return out

    def export(self, export_state: bool = True) -> None:
        """Write batch state back onto the hierarchy objects.

        Counters, the clock, the DRAM window, the in-flight table, and
        the recent-miss history are always exported (cheap); so are the
        prefetcher counter deltas (each arm's enabled prefetchers absorb
        the clones' counter signatures). Cache *contents* and prefetcher
        *training* are copied back per arm only when ``export_state`` is
        true — a sweep that discards its arms after reading results can
        skip the copies, in which case the (cold, hence empty) caches
        stay empty and the training is reset (counters intact), the same
        post-run shape a scalar arm has after ``reset()``-style disposal.
        The last arm is donated the batch's working cache dicts outright
        (they alias nothing once every other arm holds a copy), which
        makes a batch of one — the CI equivalence matrix's
        ``batch_size=1`` leg — export for free. Either way every arm
        leaves warm: a later ``run_many`` runs it scalar.
        """
        counter_deltas = (
            ("l1", self.l1_hits, self.l1_misses, self.l1_pref_hits,
             self.l1_wasted, self.l1_sized, self.l1_sets),
            ("l2", self.l2_hits, self.l2_misses, self.l2_pref_hits,
             self.l2_wasted, self.l2_sized, self.l2_sets),
            ("llc", self.llc_hits, self.llc_misses, self.llc_pref_hits,
             self.llc_wasted, self.llc_sized, self.llc_sets),
        )
        last = self.arms - 1
        for arm, h in enumerate(self.hierarchies):
            h.now_ns = float(self.now[arm])
            for level, hits, misses, pref_hits, wasted, sized, sets \
                    in counter_deltas:
                cache = getattr(h, level)
                cache.hits += hits
                cache.misses += misses
                cache.prefetch_hits += pref_hits
                cache.wasted_prefetches += wasted
                if export_state:
                    cache._sets = sets if arm == last else _copy_sets(sets)
                    cache._size = sized
            dram = h.dram
            dram.demand_fills += self.d_fills
            dram.demand_bytes += self.d_fills * CACHE_LINE_BYTES
            dram.prefetch_fills += self.p_fills
            dram.prefetch_bytes += self.p_fills * CACHE_LINE_BYTES
            window = dram._window
            head, tail = int(self.whead[arm]), int(self.wtail[arm])
            window._points = deque(
                (float(self.wtimes[arm, slot]), float(self.wbytes[arm, slot]))
                for slot in range(head, tail))
            window._sum = float(self.win_sum[arm])
            h._sw_issued += self.sw_issued
            h._useful += self.useful
            h._in_flight = {line: float(arrivals[arm])
                            for line, arrivals in self.in_flight.items()}
            h._recent_miss_lines = deque(self.recent, maxlen=8)
            for target, clone in zip(h.prefetchers.enabled_prefetchers(),
                                     self.bank_clones):
                target.apply_counter_delta(clone.counter_signature())
                if export_state:
                    target.adopt_training(clone)
                else:
                    target.reset()
            h._cold = False


def run_lockstep(hierarchies, compiled,
                 export_state: bool = True) -> List[RunResult]:
    """Run ``compiled`` through every hierarchy in lockstep.

    All hierarchies must satisfy :func:`lockstep_eligible` (so they are
    cold) and share one :func:`config_signature` *and* one
    :func:`cached_state_fingerprint`
    (:func:`~repro.memsys.hierarchy.run_many` groups arms so these hold),
    and the trace's software-prefetch volume must stay under the scalar
    engine's in-flight prune threshold (see
    :func:`software_prefetch_lines`). Returns per-arm results in input
    order; every result and every arm's post-run state is bit-identical
    to the scalar compiled engine's.

    Raises :class:`LockstepBailout` — with every arm untouched — if the
    in-flight table crosses the scalar prune threshold mid-run (hardware
    issue volume has no static bound); rerun the chunk scalar.
    """
    batch = _LockstepBatch(list(hierarchies))
    batch.execute(compiled)
    batch.export(export_state)
    return batch.results()
