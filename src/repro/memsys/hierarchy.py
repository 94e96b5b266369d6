"""The trace-driven timing simulator tying caches, prefetchers, and DRAM.

Timing model (documented in DESIGN.md §5): an in-order core retires one
instruction per cycle; memory stalls add the hit latency of the level that
serves each demand access, with DRAM latency coming from the
utilization-dependent queuing model. Prefetches — hardware proposals from
the :class:`~repro.memsys.prefetchers.PrefetcherBank` and software-prefetch
trace records — are issued non-blocking: the line is installed immediately
(so it can pollute) and tagged with an arrival time (so a demand access that
arrives too early stalls for the residual; this is what makes prefetch
*distance* a real tradeoff, Figure 15a).

Two engines execute that model:

* the **compiled engine** (default): the trace is lowered once into flat
  int columns (:meth:`~repro.access.trace.Trace.compile`) and run in two
  steps. A **cache pass** (:meth:`MemoryHierarchy._cache_pass`) does the
  dict and prefetcher work — probes, LRU, installs, evictions, training,
  in-flight membership — and records every float operation on a timing
  tape (:class:`_Tape`) instead of doing it. A **replay**
  (:meth:`MemoryHierarchy._replay`) then performs the tape in plain
  floats on one arm's clock and DRAM window. Cache behaviour never reads
  the clock, so the same tape serves every arm that starts from the same
  cache state: a scalar run is one pass and one replay, and a lockstep
  batch (:mod:`repro.memsys.batched`) is one pass and one replay per arm;
* the **reference interpreter**: the original record-at-a-time loop, kept
  verbatim as the correctness oracle. Set ``REPRO_SLOW_ENGINE=1`` to force
  it, or run code under :func:`reference_engine`.

The two are **bit-identical** — same :class:`RunResult` down to the last
float, same cache/DRAM counters — because the replay performs the
interpreter's float operations in the interpreter's order; the
golden-equivalence suite (``tests/test_engine_equivalence.py``) enforces
this on random traces.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import Callable, Dict, List, Optional, Sequence

from repro.access.record import AccessKind
from repro.access.trace import Trace

# The engine switch lives in a leaf module (the fleet reads it too);
# re-exported here under its historical names.
from repro.engine import SLOW_ENGINE_ENV, reference_engine  # noqa: F401
from repro.engine import slow_engine_requested as _slow_engine_requested
from repro.memsys.cache import SetAssociativeCache
from repro.memsys.config import HierarchyConfig
from repro.memsys.dram import ConstantExternalLoad, DRAMModel
from repro.memsys.prefetchers.bank import PrefetcherBank, default_prefetcher_bank
from repro.memsys.stats import FunctionStats, RunResult
from repro.units import CACHE_LINE_BYTES

#: Timing-tape opcodes. A bare number ``ns`` advances the clock (the
#: commonest event, so it skips the dispatch); every other event is a
#: tuple led by one of these: ``(_STALL, gap_ns, first_ns,
#: hit_ns, hit_cycles)`` is a cache-hit stall; ``(_CONSUME, gap_ns,
#: first_ns, slot, scale, hit_ns)`` is a hit on an in-flight prefetch,
#: which may pay a late residual; ``(_FN, fid)`` switches the function
#: the float statistics accrue to; ``(_DFILL, gap_ns, first_ns, scale,
#: llc_hit_ns * scale, sequential)`` is a demand DRAM fill and
#: ``(_PFILL, gap_ns, first_ns)`` a prefetch fill, whose arrival takes
#: the next slot. ``gap_ns``/``first_ns`` are the record's own clock
#: advances on its first timing event and ``0.0`` otherwise.
_STALL, _CONSUME, _FN, _DFILL, _PFILL = range(5)

_ZERO_FLOATS = (0.0, 0.0, 0.0, 0)


class _Tape:
    """One cache pass's output: the timing events every arm replays, and
    everything that is the same on every arm — per-function integer
    statistics (``fid -> [instructions, compute_cycles, loads, stores,
    software_prefetches, l1_misses, l2_misses, llc_misses,
    prefetch_covered]``, first-seen order), per-level cache counter
    deltas ``(hits, misses, prefetch_hits, wasted, sized)``, DRAM fill
    counts ``(demand, prefetch)``, the in-flight table as ``line ->
    slot`` and the recent-miss lines."""

    __slots__ = ("events", "names", "functions", "caches", "fills",
                 "sw_issued", "useful", "in_flight", "recent")


class _Clock:
    """One arm's replay state: its clock, the arrival time of every
    in-flight slot, per-function float statistics (``fid ->
    (stall_cycles, dram_wait_ns, late_prefetch_wait_ns,
    late_prefetch_hits)``) and its external load: ``external_load`` is
    the callable to call on every fill, or None when the load is absent
    or a :class:`~repro.memsys.dram.ConstantExternalLoad` — then it is
    the constant ``external`` and a fill's latency depends on the window
    alone.
    """

    __slots__ = ("now", "arrivals", "stats", "fid", "external_load",
                 "external")

    def __init__(self, hierarchy: "MemoryHierarchy",
                 arrivals: List[float]) -> None:
        self.now = hierarchy.now_ns
        self.arrivals = arrivals
        self.stats: Dict[int, tuple] = {}
        self.fid = -1
        load = hierarchy.dram._external_load
        if load is None or isinstance(load, ConstantExternalLoad):
            self.external_load = None
            self.external = 0.0 if load is None else load.bytes_per_ns
        else:
            self.external_load = load
            self.external = 0.0


class MemoryHierarchy:
    """One simulated core: L1/L2/LLC + prefetcher bank + DRAM.

    Args:
        config: Geometry, latencies, and the DRAM curve.
        prefetchers: The hardware prefetcher complement; defaults to the
            aggressive four-prefetcher bank of the modelled platforms.
        external_load: Optional ``now_ns -> bytes_per_ns`` callable adding
            co-tenant bandwidth pressure to the DRAM model.
    """

    def __init__(self, config: Optional[HierarchyConfig] = None,
                 prefetchers: Optional[PrefetcherBank] = None,
                 external_load: Optional[Callable[[float], float]] = None) -> None:
        self.config = config or HierarchyConfig()
        self.prefetchers = prefetchers if prefetchers is not None \
            else default_prefetcher_bank()
        self.l1 = SetAssociativeCache(self.config.l1)
        self.l2 = SetAssociativeCache(self.config.l2)
        self.llc = SetAssociativeCache(self.config.llc)
        self.dram = DRAMModel(self.config.dram, external_load=external_load)
        #: line -> arrival time of an issued, not-yet-demanded prefetch.
        self._in_flight: Dict[int, float] = {}
        #: Recent demand-miss lines, for the sequential-MLP discount. A
        #: short history (rather than just the previous miss) lets the
        #: discount recognise multiple interleaved streams, e.g. memcpy's
        #: alternating source/destination misses.
        self._recent_miss_lines: deque = deque(maxlen=8)
        self.now_ns = 0.0
        self._sw_issued = 0
        self._useful = 0
        #: Optional :class:`repro.obs.Tracer`; checked once per
        #: :meth:`run` call (never inside the hot loops), so attaching
        #: one costs a single ``sim-run`` event per trace replay and
        #: leaving it ``None`` costs one attribute test.
        self.obs = None
        #: Lockstep grouping state (:mod:`repro.memsys.batched`). The
        #: config signature is immutable for the hierarchy's lifetime.
        #: ``_cold`` holds from construction or :meth:`reset` until the
        #: next run (scalar or batched). Cold arms batch, and so do warm
        #: arms whose caches hold a lineage
        #: (:class:`~repro.memsys.cache.CacheLineage`).
        self._config_sig_cache = None
        self._cold = True

    # --- public controls -------------------------------------------------------

    def set_hardware_prefetchers(self, enabled: bool) -> None:
        """Direct (non-MSR) enable/disable of every hardware prefetcher."""
        self.prefetchers.set_all(enabled)

    def reset(self) -> None:
        """Flush all state: caches, prefetcher training, bandwidth window."""
        self._drop_state()
        self._cold = True

    def _drop_state(self) -> None:
        """:meth:`reset`, except that the arm stays warm."""
        self.l1.flush()
        self.l2.flush()
        self.llc.flush()
        self.prefetchers.reset()
        self.dram.reset_window()
        self._in_flight.clear()
        self._recent_miss_lines.clear()

    # --- execution ---------------------------------------------------------------

    def run(self, trace: Trace, start_ns: Optional[float] = None) -> RunResult:
        """Execute ``trace``; returns timing and per-function statistics.

        State (cache contents, prefetcher training, clock) persists across
        calls so multi-phase experiments can share warmed state; call
        :meth:`reset` between independent runs.

        Dispatches to the compiled fast engine unless ``REPRO_SLOW_ENGINE``
        requests the reference interpreter (or ``trace`` is a plain record
        iterable rather than a :class:`Trace`). Both engines produce
        bit-identical results. Caches shared with other arms are copied
        first, so the run changes this arm alone.
        """
        if start_ns is not None:
            if start_ns < self.now_ns:
                raise ValueError(
                    f"cannot start at {start_ns}ns; clock is at {self.now_ns}ns")
            self.now_ns = start_ns
        for cache in (self.l1, self.l2, self.llc):
            if cache._lineage is not None:
                cache._own()

        if not isinstance(trace, Trace) or _slow_engine_requested():
            return self._measured(self._run_interpreted, trace)
        return self._measured(self._run_compiled, trace.compile())

    def _measured(self, body, *args) -> RunResult:
        """Call ``body(*args, result)`` on a fresh result and fill in its
        whole-run fields from this arm's counter and clock deltas."""
        self._cold = False
        result = RunResult()
        begin_ns = self.now_ns
        dram_demand0 = self.dram.demand_fills
        dram_prefetch0 = self.dram.prefetch_fills
        dram_demand_bytes0 = self.dram.demand_bytes
        dram_prefetch_bytes0 = self.dram.prefetch_bytes
        hw_issued0 = self.prefetchers.total_issued
        useful0 = self._useful
        wasted0 = (self.l1.wasted_prefetches + self.l2.wasted_prefetches
                   + self.llc.wasted_prefetches)

        body(*args, result)

        result.elapsed_ns = self.now_ns - begin_ns
        result.dram_demand_fills = self.dram.demand_fills - dram_demand0
        result.dram_prefetch_fills = self.dram.prefetch_fills - dram_prefetch0
        result.dram_demand_bytes = self.dram.demand_bytes - dram_demand_bytes0
        result.dram_prefetch_bytes = self.dram.prefetch_bytes - dram_prefetch_bytes0
        result.hw_prefetches_issued = self.prefetchers.total_issued - hw_issued0
        result.useful_prefetches = self._useful - useful0
        result.wasted_prefetches = (
            self.l1.wasted_prefetches + self.l2.wasted_prefetches
            + self.llc.wasted_prefetches - wasted0)
        for stats in result.functions.values():
            result.total.merge(stats)
        if self.obs is not None and self.obs:
            self.obs.event("sim-run", self.now_ns,
                           accesses=result.total.instructions)
        return result

    # --- the reference interpreter ---------------------------------------------

    def _run_interpreted(self, trace, result: RunResult) -> None:
        """The original record-at-a-time loop — the correctness oracle.

        Kept verbatim from the pre-compiled-engine simulator; the fast
        engine must match it bit for bit.
        """
        cycle_ns = self.config.cycle_ns
        sw_cost_cycles = self.config.software_prefetch_cost_cycles

        for record in trace:
            stats = self._function_stats(result, record.function)
            if record.gap_cycles:
                self.now_ns += record.gap_cycles * cycle_ns
                stats.instructions += record.gap_cycles
                stats.compute_cycles += record.gap_cycles

            if record.kind is AccessKind.SOFTWARE_PREFETCH:
                stats.instructions += 1
                stats.compute_cycles += sw_cost_cycles
                stats.software_prefetches += 1
                self.now_ns += sw_cost_cycles * cycle_ns
                for line in record.lines_touched():
                    self._issue_prefetch(line, software=True)
                continue

            if record.kind is AccessKind.STREAM_HINT:
                # One instruction handing the stream extent to hardware
                # (the Section 8.3 interface prototype).
                stats.instructions += 1
                stats.compute_cycles += sw_cost_cycles
                stats.software_prefetches += 1
                self.now_ns += sw_cost_cycles * cycle_ns
                self.prefetchers.accept_hint(record.address, record.size)
                continue

            stats.instructions += 1
            stats.compute_cycles += 1
            self.now_ns += cycle_ns
            is_store = record.kind is AccessKind.STORE
            if is_store:
                stats.stores += 1
            else:
                stats.loads += 1
            for line in record.lines_touched():
                self._demand_access(line, record.pc, stats, is_store)

    # --- the compiled engine: one cache pass, then a timing replay -------------

    def _run_compiled(self, compiled, result: RunResult) -> None:
        """The one-arm case: a cache pass over this arm's own state, then
        one replay of its tape on this arm's own clock and window.

        The in-flight table enters the pass as ``line -> slot``, pending
        entries numbered first, and leaves it as ``line -> arrival``.
        """
        in_flight = self._in_flight
        clock = _Clock(self, list(in_flight.values()))
        tape = self._cache_pass(
            compiled, (self.l1._sets, self.l2._sets, self.llc._sets),
            self.prefetchers, dict(zip(in_flight, range(len(in_flight)))),
            list(self._recent_miss_lines), clock)
        self._replay_tape(tape, clock, result)

    def _cache_pass(self, compiled, sets, bank, in_flight, recent_list,
                    clock) -> "_Tape":
        """Do a run's dict and prefetcher work once and record its timing.

        This is the scalar engine's work in its own order — cache probes,
        LRU updates, installs and evictions, prefetcher training and
        proposals, in-flight membership, the recent-miss history — on the
        dicts in ``sets`` (L1, L2, LLC) and the prefetchers of ``bank``.
        None of it reads the clock, so it is the same on every arm. Each
        float operation becomes a tape event instead (see :class:`_Tape`)
        and :meth:`_replay` performs it per arm.

        ``in_flight`` maps a pending line to its arrival slot; new slots
        are numbered in issue order after the existing ones. The scalar
        engine prunes the table by arrival time once it grows past
        :attr:`_IN_FLIGHT_PRUNE_THRESHOLD`. Given the arm's ``clock``,
        the pass replays the tape so far and prunes exactly; without one
        (a lockstep batch, whose clocks differ) it raises
        :class:`~repro.memsys.batched.LockstepBailout`. A batch only
        passes over its arms' own dicts when it has proven that the
        prune is out of reach; otherwise the dicts are fresh or copies.
        """
        config = self.config
        cycle_ns = config.cycle_ns
        sw_cost_cycles = config.software_prefetch_cost_cycles
        sw_cost_ns = sw_cost_cycles * cycle_ns
        store_scale = config.store_stall_fraction
        l2_hit_ns = config.l2.hit_latency_cycles * cycle_ns
        l2_cycles = l2_hit_ns / cycle_ns
        llc_hit_ns = config.llc.hit_latency_cycles * cycle_ns
        llc_cycles = llc_hit_ns / cycle_ns
        line_bytes = CACHE_LINE_BYTES
        prune_threshold = self._IN_FLIGHT_PRUNE_THRESHOLD

        l1_sets, l2_sets, llc_sets = sets
        l1_sets_get = l1_sets.get
        l2_sets_get = l2_sets.get
        llc_sets_get = llc_sets.get
        l1_shift = self.l1._line_shift
        l1_mask = self.l1._set_mask
        l1_nsets = self.l1.config.num_sets
        l1_assoc = self.l1.config.associativity
        l2_shift = self.l2._line_shift
        l2_mask = self.l2._set_mask
        l2_nsets = self.l2.config.num_sets
        l2_assoc = self.l2.config.associativity
        llc_shift = self.llc._line_shift
        llc_mask = self.llc._set_mask
        llc_nsets = self.llc.config.num_sets
        llc_assoc = self.llc.config.associativity
        l1_hits = l1_misses = l1_pref_hits = l1_wasted = l1_sized = 0
        l2_hits = l2_misses = l2_pref_hits = l2_wasted = l2_sized = 0
        llc_hits = llc_misses = llc_pref_hits = llc_wasted = llc_sized = 0
        d_fills = p_fills = sw_issued = useful = 0

        bank_snapshot = bank.enabled_prefetchers
        # The adjacency test ``any(abs(line - r) == CACHE_LINE_BYTES)``
        # over the recent misses is exactly ``line - 64 in recent or
        # line + 64 in recent``: two C-level scans.
        recent_cap = self._recent_miss_lines.maxlen
        recent_append = recent_list.append
        next_slot = len(in_flight)

        # Events recur (the same stall, the same fill after the same
        # gap), so each is interned: the tape holds one shared tuple per
        # distinct event, and a long trace's tape stays small. CONSUME
        # events name a unique slot and are not interned.
        events: List[tuple] = []
        emit = events.append
        intern = {}.setdefault
        stall_l2 = (_STALL, 0.0, 0.0, l2_hit_ns, l2_cycles)
        stall_llc = (_STALL, 0.0, 0.0, llc_hit_ns, llc_cycles)
        pfill = (_PFILL, 0.0, 0.0)

        functions: Dict[int, list] = {}
        ints = None
        cur_fid = -1
        s_instr = s_comp = s_loads = s_stores = s_swpf = 0
        s_l1m = s_l2m = s_llcm = s_cov = 0

        for kind, line, extra, pc, gap, fid, addr, size in zip(
                compiled.kinds, compiled.lines, compiled.extras, compiled.pcs,
                compiled.gaps, compiled.fids, compiled.addrs, compiled.sizes):
            if fid != cur_fid:
                if ints is not None:
                    ints[:] = (s_instr, s_comp, s_loads, s_stores, s_swpf,
                               s_l1m, s_l2m, s_llcm, s_cov)
                ints = functions.get(fid)
                if ints is None:
                    ints = functions[fid] = [0] * 9
                (s_instr, s_comp, s_loads, s_stores, s_swpf,
                 s_l1m, s_l2m, s_llcm, s_cov) = ints
                emit((_FN, fid))
                cur_fid = fid

            # The record's clock advances — ``gap * cycle_ns``, then its
            # own cycles — fold into its first timing event while
            # ``pending``, or become plain advances after the record if it
            # has none (``0 * cycle_ns`` is 0.0: no gap adds nothing).
            pending = True
            if gap:
                s_instr += gap
                s_comp += gap
            s_instr += 1
            if kind <= 1:  # LOAD (0) / STORE (1): the demand path
                s_comp += 1
                advance = cycle_ns
                if kind:
                    s_stores += 1
                    scale = store_scale
                else:
                    s_loads += 1
                    scale = 1.0
            else:
                s_comp += sw_cost_cycles
                s_swpf += 1
                advance = sw_cost_ns
                if kind == 3:  # STREAM_HINT: hand the extent to hardware
                    bank.accept_hint(addr, size)
                    if gap:
                        emit(gap * cycle_ns)
                    emit(advance)
                    continue

            while True:
                if kind == 2:  # SOFTWARE_PREFETCH: issue each line
                    issue = (line,)
                else:
                    tag = line >> l1_shift
                    if l1_mask is None:
                        cache_set = l1_sets_get(tag % l1_nsets)
                    else:
                        cache_set = l1_sets_get(tag & l1_mask)
                    if cache_set is not None and line in cache_set:
                        l1_hits += 1
                        if cache_set.pop(line):
                            l1_pref_hits += 1
                        cache_set[line] = False
                        hit = True
                    else:
                        l1_misses += 1
                        hit = False
                    snapshot = bank._snapshot
                    if snapshot is None:
                        snapshot = bank_snapshot()
                    if snapshot:
                        issue = []
                        for prefetcher in snapshot:
                            issue.extend(prefetcher.observe(line, pc, hit))
                    else:
                        issue = None
                    if not hit:
                        s_l1m += 1
                        tag = line >> l2_shift
                        cache_set = l2_sets_get(
                            tag & l2_mask if l2_mask is not None
                            else tag % l2_nsets)
                        if cache_set is not None and line in cache_set:
                            l2_hits += 1
                            if cache_set.pop(line):
                                l2_pref_hits += 1
                            cache_set[line] = False
                            slot = in_flight.pop(line, None)
                            if slot is not None:
                                s_cov += 1
                                useful += 1
                                if pending:
                                    emit((_CONSUME, gap * cycle_ns, cycle_ns,
                                          slot, scale, l2_hit_ns))
                                else:
                                    emit((_CONSUME, 0.0, 0.0, slot, scale,
                                          l2_hit_ns))
                            elif pending:
                                event = (_STALL, gap * cycle_ns, cycle_ns,
                                         l2_hit_ns, l2_cycles)
                                emit(intern(event, event))
                            else:
                                emit(stall_l2)
                            pending = False
                            # Install into L1 (the line just missed there).
                            tag = line >> l1_shift
                            index = tag & l1_mask if l1_mask is not None \
                                else tag % l1_nsets
                            cache_set = l1_sets_get(index)
                            if cache_set is None:
                                cache_set = l1_sets[index] = {}
                            if len(cache_set) >= l1_assoc:
                                l1_sized -= 1
                                if cache_set.pop(next(iter(cache_set))):
                                    l1_wasted += 1
                            cache_set[line] = False
                            l1_sized += 1
                        else:
                            l2_misses += 1
                            s_l2m += 1
                            tag = line >> llc_shift
                            cache_set = llc_sets_get(
                                tag & llc_mask if llc_mask is not None
                                else tag % llc_nsets)
                            if cache_set is not None and line in cache_set:
                                llc_hits += 1
                                if cache_set.pop(line):
                                    llc_pref_hits += 1
                                cache_set[line] = False
                                slot = in_flight.pop(line, None)
                                if slot is not None:
                                    s_cov += 1
                                    useful += 1
                                    if pending:
                                        emit((_CONSUME, gap * cycle_ns,
                                              cycle_ns, slot, scale,
                                              llc_hit_ns))
                                    else:
                                        emit((_CONSUME, 0.0, 0.0, slot,
                                              scale, llc_hit_ns))
                                elif pending:
                                    event = (_STALL, gap * cycle_ns,
                                             cycle_ns, llc_hit_ns, llc_cycles)
                                    emit(intern(event, event))
                                else:
                                    emit(stall_llc)
                            else:
                                # Full miss: a demand DRAM fill. A stale
                                # in-flight entry (its line since evicted
                                # everywhere) is dropped.
                                llc_misses += 1
                                in_flight.pop(line, None)
                                d_fills += 1
                                s_llcm += 1
                                seq = (line - line_bytes in recent_list
                                       or line + line_bytes in recent_list)
                                if len(recent_list) >= recent_cap:
                                    del recent_list[0]
                                recent_append(line)
                                if pending:
                                    event = (_DFILL, gap * cycle_ns, cycle_ns,
                                             scale, llc_hit_ns * scale, seq)
                                else:
                                    event = (_DFILL, 0.0, 0.0, scale,
                                             llc_hit_ns * scale, seq)
                                emit(intern(event, event))
                                # Install into LLC.
                                index = tag & llc_mask if llc_mask is not None \
                                    else tag % llc_nsets
                                cache_set = llc_sets_get(index)
                                if cache_set is None:
                                    cache_set = llc_sets[index] = {}
                                if len(cache_set) >= llc_assoc:
                                    llc_sized -= 1
                                    if cache_set.pop(next(iter(cache_set))):
                                        llc_wasted += 1
                                cache_set[line] = False
                                llc_sized += 1
                            pending = False
                            # Install into L2 (the line just missed there).
                            tag = line >> l2_shift
                            index = tag & l2_mask if l2_mask is not None \
                                else tag % l2_nsets
                            cache_set = l2_sets_get(index)
                            if cache_set is None:
                                cache_set = l2_sets[index] = {}
                            if len(cache_set) >= l2_assoc:
                                l2_sized -= 1
                                if cache_set.pop(next(iter(cache_set))):
                                    l2_wasted += 1
                            cache_set[line] = False
                            l2_sized += 1
                            # Install into L1.
                            tag = line >> l1_shift
                            index = tag & l1_mask if l1_mask is not None \
                                else tag % l1_nsets
                            cache_set = l1_sets_get(index)
                            if cache_set is None:
                                cache_set = l1_sets[index] = {}
                            if len(cache_set) >= l1_assoc:
                                l1_sized -= 1
                                if cache_set.pop(next(iter(cache_set))):
                                    l1_wasted += 1
                            cache_set[line] = False
                            l1_sized += 1

                # Prefetch issue (software lines, or the hardware
                # proposals after the demand's stall): in-flight dedup,
                # prune, presence in any level, then a DRAM prefetch fill
                # and prefetched installs into LLC and L2.
                if issue:
                    for pf_line in issue:
                        if pf_line < 0 or pf_line in in_flight:
                            continue
                        if len(in_flight) > prune_threshold:
                            if pending:
                                if gap:
                                    emit(gap * cycle_ns)
                                emit(advance)
                                pending = False
                            in_flight = self._prune(events, clock, in_flight)
                        tag = pf_line >> l1_shift
                        cache_set = l1_sets_get(
                            tag & l1_mask if l1_mask is not None
                            else tag % l1_nsets)
                        if cache_set is not None and pf_line in cache_set:
                            continue
                        tag = pf_line >> l2_shift
                        l2_index = tag & l2_mask if l2_mask is not None \
                            else tag % l2_nsets
                        cache_set = l2_sets_get(l2_index)
                        if cache_set is not None and pf_line in cache_set:
                            continue
                        tag = pf_line >> llc_shift
                        llc_index = tag & llc_mask if llc_mask is not None \
                            else tag % llc_nsets
                        cache_set = llc_sets_get(llc_index)
                        if cache_set is not None and pf_line in cache_set:
                            continue
                        p_fills += 1
                        in_flight[pf_line] = next_slot
                        next_slot += 1
                        if pending:
                            event = (_PFILL, gap * cycle_ns, advance)
                            emit(intern(event, event))
                            pending = False
                        else:
                            emit(pfill)
                        # Install into LLC, tagged prefetched.
                        if cache_set is None:
                            cache_set = llc_sets[llc_index] = {}
                        if len(cache_set) >= llc_assoc:
                            llc_sized -= 1
                            if cache_set.pop(next(iter(cache_set))):
                                llc_wasted += 1
                        cache_set[pf_line] = True
                        llc_sized += 1
                        # Install into L2, tagged prefetched.
                        cache_set = l2_sets_get(l2_index)
                        if cache_set is None:
                            cache_set = l2_sets[l2_index] = {}
                        if len(cache_set) >= l2_assoc:
                            l2_sized -= 1
                            if cache_set.pop(next(iter(cache_set))):
                                l2_wasted += 1
                        cache_set[pf_line] = True
                        l2_sized += 1
                        if kind == 2:
                            sw_issued += 1
                if not extra:
                    break
                extra -= 1
                line += line_bytes

            if pending:
                if gap:
                    emit(gap * cycle_ns)
                emit(advance)

        if ints is not None:
            ints[:] = (s_instr, s_comp, s_loads, s_stores, s_swpf,
                       s_l1m, s_l2m, s_llcm, s_cov)
        tape = _Tape()
        tape.events = events
        tape.names = compiled.functions
        tape.functions = functions
        tape.caches = ((l1_hits, l1_misses, l1_pref_hits, l1_wasted, l1_sized),
                       (l2_hits, l2_misses, l2_pref_hits, l2_wasted, l2_sized),
                       (llc_hits, llc_misses, llc_pref_hits, llc_wasted,
                        llc_sized))
        tape.fills = (d_fills, p_fills)
        tape.sw_issued = sw_issued
        tape.useful = useful
        tape.in_flight = in_flight
        tape.recent = recent_list
        return tape

    def _prune(self, events: List[tuple], clock, in_flight: Dict[int, int]
               ) -> Dict[int, int]:
        """The scalar engine's in-flight prune, inside a cache pass: keep
        only the prefetches that have not yet arrived at the arm's clock.
        Replays (and consumes) the tape so far to learn that clock."""
        if clock is None:
            from repro.memsys.batched import LockstepBailout
            raise LockstepBailout
        self._replay(events, clock)
        del events[:]
        now = clock.now
        arrivals = clock.arrivals
        return {line: slot for line, slot in in_flight.items()
                if arrivals[slot] > now}

    def _replay(self, events: List[tuple], clock: "_Clock") -> None:
        """Perform a tape's float operations on one arm, in the scalar
        engine's order: the clock, the DRAM window, the prefetch
        arrivals and the per-function float statistics.

        Three facts keep every bit (DESIGN.md §11). A folded event first
        adds its record's gap and cycle advances, which are ``0.0`` when
        there are none, and ``now + 0.0 == now`` for the non-negative
        clock. Every window point holds one line's 64.0 bytes, so the
        window sum — an exact integer far below 2**53, however it was
        accumulated — is 64.0 times the live point count. And with no
        external load or a
        :class:`~repro.memsys.dram.ConstantExternalLoad`, a fill's
        latency is a pure function of that sum, so it is memoized per
        call; a callable load is called on every fill.
        """
        config = self.config
        cycle_ns = config.cycle_ns
        seq_mlp = config.sequential_mlp
        dram_cfg = config.dram
        sat_bw = dram_cfg.saturation_bandwidth
        max_util = dram_cfg.max_utilization
        queue_gain = dram_cfg.queue_gain
        queue_exp = dram_cfg.queue_exponent
        unloaded_ns = dram_cfg.unloaded_latency_ns
        overload_gain = dram_cfg.overload_gain
        line_bytes_f = float(CACHE_LINE_BYTES)
        window = self.dram._window
        win_span = window.span_ns
        # The window as a list of point times, with room for every fill
        # the events can hold: ``head`` is the oldest live point and
        # ``tail`` one past the newest. Arrival slots get the same room.
        times = [time for time, _ in window._points]
        head = 0
        tail = len(times)
        times.extend(repeat(0.0, len(events)))
        external_load = clock.external_load
        external = clock.external
        # Fill latency by live point count, memoized unless the load is
        # a callable (then it stays empty).
        latency_of = [None] * (tail + len(events) + 1)
        arrivals = clock.arrivals
        next_slot = len(arrivals)
        arrivals.extend(repeat(0.0, len(events)))
        stats = clock.stats
        cur_fid = clock.fid
        s_stall, s_dram_w, s_late_w, s_late = stats.get(cur_fid, _ZERO_FLOATS)
        now = clock.now
        fill_op = _DFILL
        pfill_op = _PFILL
        event_type = tuple
        stall_op = _STALL
        consume_op = _CONSUME

        for ev in events:
            if ev.__class__ is not event_type:  # a clock advance
                now += ev
                continue
            op = ev[0]
            if op >= fill_op:
                now = now + ev[1] + ev[2]
                # Evict points at or before the horizon. The new point
                # (never evicted: it is ``span`` younger than the
                # horizon) is stored first and bounds the scan.
                times[tail] = now
                horizon = now - win_span
                while times[head] <= horizon:
                    head += 1
                live = tail - head
                tail += 1
                # The fill's latency uses the utilization *before* its
                # own bytes join the window.
                latency = latency_of[live]
                if latency is None:
                    if external_load is not None:
                        external = external_load(now)
                    raw = (live * line_bytes_f / win_span + external) / sat_bw
                    u = raw if raw > 0.0 else 0.0
                    clamped = u if u < max_util else max_util
                    queue = (queue_gain * (clamped ** queue_exp)
                             / (1.0 - clamped))
                    latency = unloaded_ns * (1.0 + queue)
                    if u > max_util:
                        latency *= 1.0 + overload_gain * (u - max_util)
                    if external_load is None:
                        latency_of[live] = latency
                if op == pfill_op:
                    arrivals[next_slot] = now + latency
                    next_slot += 1
                else:
                    wait = ((now + latency) - now) * ev[3]
                    if ev[5]:
                        wait /= seq_mlp
                    s_dram_w += wait
                    stall = ev[4] + wait
                    now += stall
                    s_stall += stall / cycle_ns
            elif op == consume_op:
                now = now + ev[1] + ev[2]
                stall = ev[5]
                residual = (arrivals[ev[3]] - now) * ev[4]
                if residual > 0.0:
                    s_late += 1
                    s_late_w += residual
                    stall += residual
                now += stall
                s_stall += stall / cycle_ns
            elif op == stall_op:
                now = now + ev[1] + ev[2] + ev[3]
                s_stall += ev[4]
            else:  # _FN
                if cur_fid >= 0:
                    stats[cur_fid] = (s_stall, s_dram_w, s_late_w, s_late)
                cur_fid = ev[1]
                s_stall, s_dram_w, s_late_w, s_late = \
                    stats.get(cur_fid, _ZERO_FLOATS)

        if cur_fid >= 0:
            stats[cur_fid] = (s_stall, s_dram_w, s_late_w, s_late)
        clock.fid = cur_fid
        clock.now = now
        del arrivals[next_slot:]
        window._points = deque(zip(times[head:tail], repeat(line_bytes_f)))
        window._sum = (tail - head) * line_bytes_f

    def _replay_tape(self, tape: "_Tape", clock: "_Clock",
                     result: RunResult) -> None:
        """Replay the rest of ``tape`` on this arm and take in its counts:
        the per-function statistics (ints from the pass, floats from the
        replay), the cache, DRAM and prefetch counters, the in-flight
        table at its arrival times, the recent misses and the clock."""
        self._replay(tape.events, clock)
        names = tape.names
        floats = clock.stats
        functions = result.functions
        for fid, (instr, comp, loads, stores, swpf, l1m, l2m, llcm,
                  cov) in tape.functions.items():
            stall, dram_w, late_w, late = floats[fid]
            functions[names[fid]] = FunctionStats(
                instr, comp, stall, loads, stores, swpf, l1m, l2m, llcm,
                cov, late, dram_w, late_w)
        for cache, (hits, misses, pref_hits, wasted, sized) in zip(
                (self.l1, self.l2, self.llc), tape.caches):
            cache.hits += hits
            cache.misses += misses
            cache.prefetch_hits += pref_hits
            cache.wasted_prefetches += wasted
            cache._size += sized
        dram = self.dram
        d_fills, p_fills = tape.fills
        dram.demand_fills += d_fills
        dram.demand_bytes += d_fills * CACHE_LINE_BYTES
        dram.prefetch_fills += p_fills
        dram.prefetch_bytes += p_fills * CACHE_LINE_BYTES
        self._sw_issued += tape.sw_issued
        self._useful += tape.useful
        slots = tape.in_flight
        self._in_flight = dict(zip(
            slots, map(clock.arrivals.__getitem__, slots.values())))
        recent = self._recent_miss_lines
        recent.clear()
        recent.extend(tape.recent)
        self.now_ns = clock.now

    # --- internals -------------------------------------------------------------------

    @staticmethod
    def _function_stats(result: RunResult, function: str) -> FunctionStats:
        stats = result.functions.get(function)
        if stats is None:
            stats = result.functions[function] = FunctionStats()
        return stats

    def _demand_access(self, line: int, pc: int, stats: FunctionStats,
                       is_store: bool = False) -> None:
        cycle_ns = self.config.cycle_ns
        # Stores drain through the write buffer; the core feels only a
        # fraction of their miss latency as back-pressure.
        scale = self.config.store_stall_fraction if is_store else 1.0
        l1_hit = self.l1.lookup(line)
        hw_lines = self.prefetchers.observe(line, pc, l1_hit)

        if l1_hit:
            stall_ns = 0.0
        elif self.l2.lookup(line):
            stats.l1_misses += 1
            stall_ns = self.config.l2.hit_latency_cycles * cycle_ns
            stall_ns += self._residual_wait(line, stats, scale)
            self.l1.install(line)
        elif self.llc.lookup(line):
            stats.l1_misses += 1
            stats.l2_misses += 1
            stall_ns = self.config.llc.hit_latency_cycles * cycle_ns
            stall_ns += self._residual_wait(line, stats, scale)
            self.l2.install(line)
            self.l1.install(line)
        else:
            stats.l1_misses += 1
            stats.l2_misses += 1
            # If a prefetch was issued for this line but it has already been
            # evicted from every cache, the prefetch was wasted: drop the
            # stale in-flight entry and pay for a fresh demand fill.
            self._in_flight.pop(line, None)
            completion = self.dram.request(self.now_ns, is_prefetch=False)
            wait_ns = (completion - self.now_ns) * scale
            # Sequential misses overlap in an OoO core: a miss adjacent to
            # any recent miss exposes only a fraction of the latency.
            if any(abs(line - recent) == CACHE_LINE_BYTES
                   for recent in self._recent_miss_lines):
                wait_ns /= self.config.sequential_mlp
            self._recent_miss_lines.append(line)
            stats.llc_misses += 1
            stats.dram_wait_ns += wait_ns
            stall_ns = self.config.llc.hit_latency_cycles * cycle_ns * scale \
                + wait_ns
            self.llc.install(line)
            self.l2.install(line)
            self.l1.install(line)

        self.now_ns += stall_ns
        stats.stall_cycles += stall_ns / cycle_ns

        for hw_line in hw_lines:
            self._issue_prefetch(hw_line, software=False)

    def _residual_wait(self, line: int, stats: FunctionStats,
                       scale: float = 1.0) -> float:
        """Extra wait if ``line`` was prefetched but hasn't arrived yet.

        ``scale`` discounts the wait for stores (write-buffer drain).
        """
        arrival = self._in_flight.pop(line, None)
        if arrival is None:
            return 0.0
        stats.prefetch_covered += 1
        self._useful += 1
        residual = (arrival - self.now_ns) * scale
        if residual <= 0.0:
            return 0.0
        stats.late_prefetch_hits += 1
        stats.late_prefetch_wait_ns += residual
        return residual

    #: In-flight entries are pruned once the table grows past this size;
    #: only already-arrived entries are dropped, which can at worst
    #: under-count ``prefetch_covered`` slightly on very long runs.
    _IN_FLIGHT_PRUNE_THRESHOLD = 1 << 18

    def _issue_prefetch(self, line: int, software: bool) -> None:
        """Issue one prefetch line at the current clock (the interpreter's
        path; the cache pass inlines the same checks in the same order)."""
        if line < 0:
            return
        if line in self._in_flight:
            return
        if len(self._in_flight) > self._IN_FLIGHT_PRUNE_THRESHOLD:
            self._in_flight = {
                pending: arrival
                for pending, arrival in self._in_flight.items()
                if arrival > self.now_ns
            }
        if self.l1.contains(line) or self.l2.contains(line) \
                or self.llc.contains(line):
            return
        completion = self.dram.request(self.now_ns, is_prefetch=True)
        self._in_flight[line] = completion
        # Install immediately (tagged prefetched) so pollution is modelled;
        # the in-flight entry makes early demand hits pay the residual.
        self.llc.install(line, prefetched=True)
        self.l2.install(line, prefetched=True)
        if software:
            self._sw_issued += 1

    # --- introspection ------------------------------------------------------------

    @property
    def software_prefetches_issued(self) -> int:
        """Software-prefetch lines actually fetched (post-dedup)."""
        return self._sw_issued


def run_many(hierarchies: Sequence[MemoryHierarchy], trace: Trace,
             export_state: bool = True,
             occupancy=None) -> List[RunResult]:
    """Run ``trace`` through many independent hierarchies, batching where
    it is provably safe.

    The fleet's dominant shape — many machine-arms replaying one shared
    trace — goes through the lockstep engine
    (:mod:`repro.memsys.batched`), which does the cache pass once per
    group and only the timing replay per arm. Arms qualify when every
    *enabled* hardware prefetcher is lockstep-safe, the external load is
    constant or absent, no tracer is attached, and their cache state is
    known to be shared: a *cold* arm (from construction or
    :meth:`MemoryHierarchy.reset` until its first run) starts empty, and
    the arms of an earlier exporting lockstep group hold that group's
    caches as one lineage. Arms group by config signature, lineage (None
    for cold arms) and the bank state of
    :func:`~repro.memsys.batched.cached_state_fingerprint`, and each
    group runs as one lockstep call, so an epoch loop batches every
    epoch. A warm arm whose state no other arm shares — it ran scalar,
    or discarded its state — runs scalar under the ``warm-state``
    reason. Arms that do not qualify — or everything, under
    ``REPRO_SLOW_ENGINE`` or for an uncompiled trace — run through
    :meth:`MemoryHierarchy.run` unchanged. Either way, every arm's
    result and post-run state is bit-identical to a scalar
    ``run(trace)``; results come back in input order.

    Args:
        hierarchies: The arms; mutated in place exactly as ``run`` would.
        trace: One trace shared by every arm.
        export_state: When False, the arms are about to be discarded,
            so each keeps nothing after its run: its caches, prefetcher
            training, in-flight table, recent misses and DRAM window
            come back empty, its counters and clock intact, and no
            lineage forms. Results are the same either way, and every
            arm leaves warm either way.
        occupancy: Optional :class:`~repro.memsys.batched.BatchOccupancy`
            accumulating where each arm ran (lockstep vs scalar) and the
            per-reason scalar-fallback counts for this call.
    """
    from repro.memsys import batched

    hierarchies = list(hierarchies)
    if occupancy is None:
        occupancy = batched.BatchOccupancy()
    if _slow_engine_requested():
        everyone = "slow-engine"
    elif not isinstance(trace, Trace):
        everyone = "uncompiled-trace"
    else:
        everyone, compiled = None, trace.compile()
    results: List[Optional[RunResult]] = [None] * len(hierarchies)
    scalar_arms: List[int] = []
    groups: Dict[tuple, List[int]] = {}
    for arm, hierarchy in enumerate(hierarchies):
        reason = everyone or batched.lockstep_fallback_reason(hierarchy)
        if reason is None:
            # Arms of one lineage (or cold arms) hold the same caches,
            # in-flight order and recent misses, so the config and the
            # prefetcher bank state are all that can split them — state
            # uniformity is what makes lockstep evolution exact.
            key = (batched.cached_config_signature(hierarchy),
                   batched.cache_lineage(hierarchy),
                   batched.cached_state_fingerprint(hierarchy))
            groups.setdefault(key, []).append(arm)
        else:
            scalar_arms.append(arm)
            occupancy.record_scalar(1, reason)
    for arms in groups.values():
        try:
            group_results = batched.run_lockstep(
                [hierarchies[arm] for arm in arms], compiled,
                export_state=export_state)
        except batched.LockstepBailout:
            # The group's pass worked on fresh or copied dicts and
            # touched no arm, so it reruns scalar, bit-identically.
            scalar_arms.extend(arms)
            occupancy.record_scalar(len(arms), "prune-bailout")
            continue
        occupancy.record_batched(len(arms))
        for arm, result in zip(arms, group_results):
            results[arm] = result

    for arm in scalar_arms:
        results[arm] = hierarchies[arm].run(trace)
        if not export_state:
            hierarchies[arm]._drop_state()
    return results  # type: ignore[return-value]
