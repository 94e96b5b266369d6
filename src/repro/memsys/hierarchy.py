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
  int columns (:meth:`~repro.access.trace.Trace.compile`) and replayed by
  a hot loop that binds every hot attribute to a local, probes the L1
  inline, skips the prefetcher bank entirely when every prefetcher is
  disabled (the most common ablation arm), and accumulates per-function
  statistics in locals that flush at function boundaries;
* the **reference interpreter**: the original record-at-a-time loop, kept
  verbatim as the correctness oracle. Set ``REPRO_SLOW_ENGINE=1`` to force
  it.

The two are **bit-identical** — same :class:`RunResult` down to the last
float, same cache/DRAM counters — because the compiled loop performs the
exact same arithmetic in the exact same order; the golden-equivalence
suite (``tests/test_engine_equivalence.py``) enforces this on random
traces.
"""

from __future__ import annotations

import os
from collections import OrderedDict, deque
from typing import Callable, Dict, List, Optional, Sequence

from repro.access.record import AccessKind
from repro.access.trace import Trace
from repro.memsys.cache import SetAssociativeCache, _LineState
from repro.memsys.config import HierarchyConfig
from repro.memsys.dram import DRAMModel
from repro.memsys.prefetchers.bank import PrefetcherBank, default_prefetcher_bank
from repro.memsys.stats import FunctionStats, RunResult
from repro.units import CACHE_LINE_BYTES

#: Set to "1" (or "true"/"yes"/"on") to force the reference interpreter.
SLOW_ENGINE_ENV = "REPRO_SLOW_ENGINE"

#: Machines per shard when the caller does not choose. Sized so the
#: repository's historical study sizes (<= 32 machines) stay single-shard
#: — and therefore numerically identical to the pre-sharding engine —
#: while paper-scale populations split into enough shards to keep every
#: worker busy. It lives here, not in :mod:`repro.fleet.shard` (which
#: re-exports it), so the CLI parser can read it without loading the
#: fleet package.
DEFAULT_SHARD_SIZE = 32

#: Arms per lockstep batch when nobody chooses: one default shard
#: becomes exactly one default batch.
DEFAULT_BATCH_SIZE = DEFAULT_SHARD_SIZE


def _slow_engine_requested() -> bool:
    return os.environ.get(SLOW_ENGINE_ENV, "").strip().lower() in (
        "1", "true", "yes", "on")


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
        #: next run (scalar or batched); only cold arms batch.
        self._config_sig_cache = None
        self._cold = True

    # --- public controls -------------------------------------------------------

    def set_hardware_prefetchers(self, enabled: bool) -> None:
        """Direct (non-MSR) enable/disable of every hardware prefetcher."""
        self.prefetchers.set_all(enabled)

    def reset(self) -> None:
        """Flush all state: caches, prefetcher training, bandwidth window."""
        self.l1.flush()
        self.l2.flush()
        self.llc.flush()
        self.prefetchers.reset()
        self.dram.reset_window()
        self._in_flight.clear()
        self._recent_miss_lines.clear()
        self._cold = True

    # --- execution ---------------------------------------------------------------

    def run(self, trace: Trace, start_ns: Optional[float] = None) -> RunResult:
        """Execute ``trace``; returns timing and per-function statistics.

        State (cache contents, prefetcher training, clock) persists across
        calls so multi-phase experiments can share warmed state; call
        :meth:`reset` between independent runs.

        Dispatches to the compiled fast engine unless ``REPRO_SLOW_ENGINE``
        requests the reference interpreter (or ``trace`` is a plain record
        iterable rather than a :class:`Trace`). Both engines produce
        bit-identical results.
        """
        if start_ns is not None:
            if start_ns < self.now_ns:
                raise ValueError(
                    f"cannot start at {start_ns}ns; clock is at {self.now_ns}ns")
            self.now_ns = start_ns

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

        if not isinstance(trace, Trace) or _slow_engine_requested():
            self._run_interpreted(trace, result)
        else:
            self._run_compiled(trace.compile(), result)

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

    # --- the compiled fast engine -----------------------------------------------

    def _run_compiled(self, compiled, result: RunResult) -> None:
        """One pass over pre-lowered int columns; see the module docstring.

        Bit-identity with :meth:`_run_interpreted` rests on performing the
        same float operations in the same order: per-function float stats
        are loaded into locals at a function boundary and flushed at the
        next, so each accumulation sequence is unchanged; adding a zero
        stall (the L1-hit case) is skipped because ``x + 0.0 == x`` for
        the non-negative values these accumulators hold.
        """
        config = self.config
        cycle_ns = config.cycle_ns
        sw_cost_cycles = config.software_prefetch_cost_cycles
        sw_cost_ns = sw_cost_cycles * cycle_ns
        store_scale = config.store_stall_fraction
        seq_mlp = config.sequential_mlp
        l2_hit_ns = config.l2.hit_latency_cycles * cycle_ns
        llc_hit_ns = config.llc.hit_latency_cycles * cycle_ns
        line_bytes = CACHE_LINE_BYTES

        # Per-cache hot state: sets dict, geometry, and local delta counters
        # flushed to the cache objects at the end of the loop. ``_sets`` is
        # never rebound (only cleared), so binding it here is safe.
        l1 = self.l1
        l1_shift = l1._line_shift
        l1_mask = l1._set_mask
        l1_nsets = l1.config.num_sets
        l1_assoc = l1.config.associativity
        l1_sets = l1._sets
        l1_sets_get = l1_sets.get
        l1_hits = l1_misses = l1_pref_hits = 0
        l1_wasted = l1_sized = 0
        l2 = self.l2
        l2_shift = l2._line_shift
        l2_mask = l2._set_mask
        l2_nsets = l2.config.num_sets
        l2_assoc = l2.config.associativity
        l2_sets = l2._sets
        l2_sets_get = l2_sets.get
        l2_hits = l2_misses = l2_pref_hits = 0
        l2_wasted = l2_sized = 0
        llc = self.llc
        llc_shift = llc._line_shift
        llc_mask = llc._set_mask
        llc_nsets = llc.config.num_sets
        llc_assoc = llc.config.associativity
        llc_sets = llc._sets
        llc_sets_get = llc_sets.get
        llc_hits = llc_misses = llc_pref_hits = 0
        llc_wasted = llc_sized = 0
        line_state = _LineState
        # DRAM demand-fill state, inlined from DRAMModel.request: the
        # latency curve and sliding-window parameters are immutable for
        # the life of the model, so they can live in locals; the window's
        # running sum is read-modify-written per fill (never cached across
        # records) because prefetch issues mutate it through the normal
        # method path in between.
        dram = self.dram
        dram_cfg = dram.config
        sat_bw = dram_cfg.saturation_bandwidth
        max_util = dram_cfg.max_utilization
        queue_gain = dram_cfg.queue_gain
        queue_exp = dram_cfg.queue_exponent
        unloaded_ns = dram_cfg.unloaded_latency_ns
        overload_gain = dram_cfg.overload_gain
        external_load = dram._external_load
        window = dram._window
        win_span = window.span_ns
        win_points = window._points
        win_append = win_points.append
        win_popleft = win_points.popleft
        line_bytes_f = float(line_bytes)
        d_fills = 0
        p_fills = 0
        sw_issued = 0
        prune_threshold = self._IN_FLIGHT_PRUNE_THRESHOLD
        bank = self.prefetchers
        bank_snapshot = bank.enabled_prefetchers
        accept_hint = bank.accept_hint
        issue_prefetch = self._issue_prefetch_at
        in_flight = self._in_flight
        # Shadow the recent-miss deque in a plain list for the duration of
        # the loop (nothing else reads it mid-run); two C-level ``in``
        # scans replace the per-miss Python loop over the deque. The
        # adjacency test ``any(abs(line - r) == CACHE_LINE_BYTES)`` is
        # exactly ``line - 64 in recent or line + 64 in recent``.
        recent = self._recent_miss_lines
        recent_cap = recent.maxlen
        recent_list = list(recent)
        recent_append = recent_list.append
        useful = 0

        functions = result.functions
        fnames = compiled.functions
        now = self.now_ns

        stats: Optional[FunctionStats] = None
        cur_fid = -1
        s_instr = s_comp = s_loads = s_stores = s_swpf = 0
        s_l1m = s_l2m = s_llcm = s_cov = s_late = 0
        s_stall = s_dram_w = s_late_w = 0.0

        for kind, line, extra, pc, gap, fid, addr, size in compiled.packed:
            if fid != cur_fid:
                if stats is not None:
                    stats.instructions = s_instr
                    stats.compute_cycles = s_comp
                    stats.stall_cycles = s_stall
                    stats.loads = s_loads
                    stats.stores = s_stores
                    stats.software_prefetches = s_swpf
                    stats.l1_misses = s_l1m
                    stats.l2_misses = s_l2m
                    stats.llc_misses = s_llcm
                    stats.prefetch_covered = s_cov
                    stats.late_prefetch_hits = s_late
                    stats.dram_wait_ns = s_dram_w
                    stats.late_prefetch_wait_ns = s_late_w
                fname = fnames[fid]
                stats = functions.get(fname)
                if stats is None:
                    stats = functions[fname] = FunctionStats()
                s_instr = stats.instructions
                s_comp = stats.compute_cycles
                s_stall = stats.stall_cycles
                s_loads = stats.loads
                s_stores = stats.stores
                s_swpf = stats.software_prefetches
                s_l1m = stats.l1_misses
                s_l2m = stats.l2_misses
                s_llcm = stats.llc_misses
                s_cov = stats.prefetch_covered
                s_late = stats.late_prefetch_hits
                s_dram_w = stats.dram_wait_ns
                s_late_w = stats.late_prefetch_wait_ns
                cur_fid = fid

            if gap:
                now += gap * cycle_ns
                s_instr += gap
                s_comp += gap

            if kind <= 1:  # LOAD (0) / STORE (1): the demand fast path
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
                        l1_hits += 1
                        if state.prefetched and not state.referenced:
                            l1_pref_hits += 1
                        state.referenced = True
                        hit = True
                    else:
                        l1_misses += 1
                        hit = False
                    snapshot = bank._snapshot
                    if snapshot is None:
                        snapshot = bank_snapshot()
                    if snapshot:
                        hw_lines = []
                        for prefetcher in snapshot:
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
                            # L2 hit (inlined demand lookup).
                            state = cache_set[line]
                            cache_set.move_to_end(line)
                            l2_hits += 1
                            if state.prefetched and not state.referenced:
                                l2_pref_hits += 1
                            state.referenced = True
                            stall = l2_hit_ns
                            arrival = in_flight.pop(line, None)
                            if arrival is not None:
                                s_cov += 1
                                useful += 1
                                residual = (arrival - now) * scale
                                if residual > 0.0:
                                    s_late += 1
                                    s_late_w += residual
                                    stall += residual
                            # Install into L1 (line just missed there).
                            tag = line >> l1_shift
                            index = tag & l1_mask if l1_mask is not None \
                                else tag % l1_nsets
                            cache_set = l1_sets_get(index)
                            if cache_set is None:
                                cache_set = l1_sets[index] = OrderedDict()
                            if len(cache_set) >= l1_assoc:
                                _, victim = cache_set.popitem(False)
                                l1_sized -= 1
                                if victim.prefetched and not victim.referenced:
                                    l1_wasted += 1
                            cache_set[line] = line_state(False)
                            l1_sized += 1
                        else:
                            l2_misses += 1
                            s_l2m += 1
                            tag = line >> llc_shift
                            cache_set = llc_sets_get(
                                tag & llc_mask if llc_mask is not None
                                else tag % llc_nsets)
                            if cache_set is not None and line in cache_set:
                                # LLC hit (inlined demand lookup).
                                state = cache_set[line]
                                cache_set.move_to_end(line)
                                llc_hits += 1
                                if state.prefetched and not state.referenced:
                                    llc_pref_hits += 1
                                state.referenced = True
                                stall = llc_hit_ns
                                arrival = in_flight.pop(line, None)
                                if arrival is not None:
                                    s_cov += 1
                                    useful += 1
                                    residual = (arrival - now) * scale
                                    if residual > 0.0:
                                        s_late += 1
                                        s_late_w += residual
                                        stall += residual
                            else:
                                # Full miss: DRAM fill (inlined
                                # DRAMModel.request, demand path). The
                                # fill's latency uses the utilization
                                # *before* its own bytes join the window.
                                llc_misses += 1
                                in_flight.pop(line, None)
                                horizon = now - win_span
                                win_sum = window._sum
                                while win_points \
                                        and win_points[0][0] <= horizon:
                                    win_sum -= win_popleft()[1]
                                if external_load is not None:
                                    raw = (win_sum / win_span
                                           + external_load(now)) / sat_bw
                                else:
                                    raw = (win_sum / win_span) / sat_bw
                                u = raw if raw > 0.0 else 0.0
                                clamped = u if u < max_util else max_util
                                queue = (queue_gain
                                         * (clamped ** queue_exp)
                                         / (1.0 - clamped))
                                latency = unloaded_ns * (1.0 + queue)
                                if u > max_util:
                                    latency *= 1.0 + overload_gain \
                                        * (u - max_util)
                                win_append((now, line_bytes_f))
                                window._sum = win_sum + line_bytes_f
                                d_fills += 1
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
                                index = tag & llc_mask if llc_mask is not None \
                                    else tag % llc_nsets
                                cache_set = llc_sets_get(index)
                                if cache_set is None:
                                    cache_set = llc_sets[index] = OrderedDict()
                                if len(cache_set) >= llc_assoc:
                                    _, victim = cache_set.popitem(False)
                                    llc_sized -= 1
                                    if victim.prefetched \
                                            and not victim.referenced:
                                        llc_wasted += 1
                                cache_set[line] = line_state(False)
                                llc_sized += 1
                            # Install into L2 (line just missed there).
                            tag = line >> l2_shift
                            index = tag & l2_mask if l2_mask is not None \
                                else tag % l2_nsets
                            cache_set = l2_sets_get(index)
                            if cache_set is None:
                                cache_set = l2_sets[index] = OrderedDict()
                            if len(cache_set) >= l2_assoc:
                                _, victim = cache_set.popitem(False)
                                l2_sized -= 1
                                if victim.prefetched and not victim.referenced:
                                    l2_wasted += 1
                            cache_set[line] = line_state(False)
                            l2_sized += 1
                            # Install into L1.
                            tag = line >> l1_shift
                            index = tag & l1_mask if l1_mask is not None \
                                else tag % l1_nsets
                            cache_set = l1_sets_get(index)
                            if cache_set is None:
                                cache_set = l1_sets[index] = OrderedDict()
                            if len(cache_set) >= l1_assoc:
                                _, victim = cache_set.popitem(False)
                                l1_sized -= 1
                                if victim.prefetched and not victim.referenced:
                                    l1_wasted += 1
                            cache_set[line] = line_state(False)
                            l1_sized += 1
                        now += stall
                        s_stall += stall / cycle_ns
                    if hw_lines:
                        for hw_line in hw_lines:
                            if hw_line >= 0 and hw_line not in in_flight:
                                issue_prefetch(hw_line, False, now)
                                in_flight = self._in_flight
                    if not extra:
                        break
                    extra -= 1
                    line += line_bytes

            elif kind == 2:  # SOFTWARE_PREFETCH
                s_instr += 1
                s_comp += sw_cost_cycles
                s_swpf += 1
                now += sw_cost_ns
                # Inlined _issue_prefetch_at (software path): same checks
                # in the same order — in-flight dedup, prune, presence in
                # any level, then a DRAM prefetch fill and a prefetched
                # install into LLC and L2.
                while True:
                    if line not in in_flight:
                        if len(in_flight) > prune_threshold:
                            in_flight = self._in_flight = {
                                pending: arrival
                                for pending, arrival in in_flight.items()
                                if arrival > now
                            }
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
                            # DRAM prefetch fill (inlined DRAMModel.request).
                            horizon = now - win_span
                            win_sum = window._sum
                            while win_points \
                                    and win_points[0][0] <= horizon:
                                win_sum -= win_popleft()[1]
                            if external_load is not None:
                                raw = (win_sum / win_span
                                       + external_load(now)) / sat_bw
                            else:
                                raw = (win_sum / win_span) / sat_bw
                            u = raw if raw > 0.0 else 0.0
                            clamped = u if u < max_util else max_util
                            queue = (queue_gain
                                     * (clamped ** queue_exp)
                                     / (1.0 - clamped))
                            latency = unloaded_ns * (1.0 + queue)
                            if u > max_util:
                                latency *= 1.0 + overload_gain \
                                    * (u - max_util)
                            win_append((now, line_bytes_f))
                            window._sum = win_sum + line_bytes_f
                            p_fills += 1
                            in_flight[line] = now + latency
                            # Install into LLC, tagged prefetched.
                            cache_set = llc_sets_get(llc_index)
                            if cache_set is None:
                                cache_set = llc_sets[llc_index] = OrderedDict()
                            if len(cache_set) >= llc_assoc:
                                _, victim = cache_set.popitem(False)
                                llc_sized -= 1
                                if victim.prefetched \
                                        and not victim.referenced:
                                    llc_wasted += 1
                            cache_set[line] = line_state(True)
                            llc_sized += 1
                            # Install into L2, tagged prefetched.
                            cache_set = l2_sets_get(l2_index)
                            if cache_set is None:
                                cache_set = l2_sets[l2_index] = OrderedDict()
                            if len(cache_set) >= l2_assoc:
                                _, victim = cache_set.popitem(False)
                                l2_sized -= 1
                                if victim.prefetched \
                                        and not victim.referenced:
                                    l2_wasted += 1
                            cache_set[line] = line_state(True)
                            l2_sized += 1
                            sw_issued += 1
                    if not extra:
                        break
                    extra -= 1
                    line += line_bytes

            else:  # STREAM_HINT
                s_instr += 1
                s_comp += sw_cost_cycles
                s_swpf += 1
                now += sw_cost_ns
                accept_hint(addr, size)

        if stats is not None:
            stats.instructions = s_instr
            stats.compute_cycles = s_comp
            stats.stall_cycles = s_stall
            stats.loads = s_loads
            stats.stores = s_stores
            stats.software_prefetches = s_swpf
            stats.l1_misses = s_l1m
            stats.l2_misses = s_l2m
            stats.llc_misses = s_llcm
            stats.prefetch_covered = s_cov
            stats.late_prefetch_hits = s_late
            stats.dram_wait_ns = s_dram_w
            stats.late_prefetch_wait_ns = s_late_w
        l1.hits += l1_hits
        l1.misses += l1_misses
        l1.prefetch_hits += l1_pref_hits
        l1.wasted_prefetches += l1_wasted
        l1._size += l1_sized
        l2.hits += l2_hits
        l2.misses += l2_misses
        l2.prefetch_hits += l2_pref_hits
        l2.wasted_prefetches += l2_wasted
        l2._size += l2_sized
        llc.hits += llc_hits
        llc.misses += llc_misses
        llc.prefetch_hits += llc_pref_hits
        llc.wasted_prefetches += llc_wasted
        llc._size += llc_sized
        dram.demand_fills += d_fills
        dram.demand_bytes += d_fills * line_bytes
        dram.prefetch_fills += p_fills
        dram.prefetch_bytes += p_fills * line_bytes
        self._sw_issued += sw_issued
        recent.clear()
        recent.extend(recent_list)
        self._useful += useful
        self.now_ns = now

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
        self._issue_prefetch_at(line, software, self.now_ns)

    def _issue_prefetch_at(self, line: int, software: bool,
                           now_ns: float) -> None:
        """Issue one prefetch line at time ``now_ns``.

        Shared by both engines (the compiled loop keeps the clock in a
        local and passes it explicitly).
        """
        if line < 0:
            return
        if line in self._in_flight:
            return
        if len(self._in_flight) > self._IN_FLIGHT_PRUNE_THRESHOLD:
            self._in_flight = {
                pending: arrival
                for pending, arrival in self._in_flight.items()
                if arrival > now_ns
            }
        if self.l1.contains(line) or self.l2.contains(line) \
                or self.llc.contains(line):
            return
        completion = self.dram.request(now_ns, is_prefetch=True)
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

    @property
    def in_flight_prefetches(self) -> int:
        """Prefetched lines whose data has not been demanded yet."""
        return len(self._in_flight)


def run_many(hierarchies: Sequence[MemoryHierarchy], trace: Trace,
             batch_size: int = DEFAULT_BATCH_SIZE,
             export_state: bool = True,
             occupancy=None) -> List[RunResult]:
    """Run ``trace`` through many independent hierarchies, batching where
    it is provably safe.

    The fleet's dominant shape — hundreds of fresh machine-arms
    replaying one shared trace — goes through the NumPy lockstep engine
    (:mod:`repro.memsys.batched`): arms that qualify (cold, every
    *enabled* hardware prefetcher lockstep-safe, constant or absent
    external load, no tracer) are grouped by config signature and
    enabled mask, chunked into batches of ``batch_size``, and executed
    simultaneously. An arm is cold from construction or
    :meth:`MemoryHierarchy.reset` until its first run; a warm arm — one
    an earlier call already ran, as in an epoch loop — runs scalar under
    the ``warm-state`` reason. Arms that do not qualify — or everything,
    when batching is off — run through :meth:`MemoryHierarchy.run`
    unchanged. Either way, every arm's result and post-run state is
    bit-identical to a scalar ``run(trace)``; results come back in input
    order.

    Args:
        hierarchies: The arms; mutated in place exactly as ``run`` would.
        trace: One trace shared by every arm.
        batch_size: Arms per lockstep batch; ``0`` disables batching
            entirely. Studies resolve it once, at construction, and pass
            the int down. ``REPRO_SLOW_ENGINE`` also disables batching
            (the reference interpreter *is* the oracle chain's far end).
        export_state: When False, skip rebuilding batched arms' cache
            contents and prefetcher training after the run — the arms
            come back with counters, clock, and window intact but caches
            flushed and training reset. Use only when the arms are
            discarded afterwards.
        occupancy: Optional :class:`~repro.memsys.batched.BatchOccupancy`
            accumulating where each arm ran (lockstep vs scalar) and the
            per-reason scalar-fallback counts for this call.
    """
    from repro.fleet.shard import plan_batches
    from repro.memsys import batched

    hierarchies = list(hierarchies)

    def note_scalar(count: int, reason: str) -> None:
        if occupancy is not None and count:
            occupancy.record_scalar(count, reason)

    results: List[Optional[RunResult]] = [None] * len(hierarchies)
    scalar_arms: List[int] = []
    if batch_size <= 0:
        scalar_arms = list(range(len(hierarchies)))
        note_scalar(len(scalar_arms), "batching-off")
    elif _slow_engine_requested():
        scalar_arms = list(range(len(hierarchies)))
        note_scalar(len(scalar_arms), "slow-engine")
    elif not isinstance(trace, Trace):
        scalar_arms = list(range(len(hierarchies)))
        note_scalar(len(scalar_arms), "uncompiled-trace")
    else:
        compiled = trace.compile()
        sw_lines = batched.software_prefetch_lines(compiled)
        groups: Dict[tuple, List[int]] = {}
        for arm, hierarchy in enumerate(hierarchies):
            reason = batched.lockstep_fallback_reason(hierarchy)
            if reason is None:
                # Cold arms start with empty caches, in-flight tables and
                # windows, so the config and the prefetcher bank state
                # are all that can split them — state uniformity is what
                # makes lockstep evolution exact.
                key = (batched.cached_config_signature(hierarchy),
                       batched.cached_state_fingerprint(hierarchy))
                groups.setdefault(key, []).append(arm)
            else:
                scalar_arms.append(arm)
                note_scalar(1, reason)
        for arms in groups.values():
            # Static half of the prune guard: a trace whose software
            # prefetches alone could cross the scalar engine's in-flight
            # threshold (the prune compares per-arm clocks, so firing it
            # would let cache behavior diverge inside a batch) never
            # enters lockstep. Hardware issue volume has no static
            # bound; the batch itself bails out dynamically instead.
            if sw_lines > MemoryHierarchy._IN_FLIGHT_PRUNE_THRESHOLD:
                scalar_arms.extend(arms)
                note_scalar(len(arms), "prune-bound")
                continue
            for start, stop in plan_batches(len(arms), batch_size):
                chunk = arms[start:stop]
                try:
                    batch_results = batched.run_lockstep(
                        [hierarchies[arm] for arm in chunk], compiled,
                        export_state=export_state)
                except batched.LockstepBailout:
                    # The batch touched no arm state before export, so
                    # the chunk reruns scalar, bit-identically.
                    scalar_arms.extend(chunk)
                    note_scalar(len(chunk), "prune-bailout")
                    continue
                if occupancy is not None:
                    occupancy.record_batched(len(chunk), 1)
                for arm, result in zip(chunk, batch_results):
                    results[arm] = result

    for arm in scalar_arms:
        results[arm] = hierarchies[arm].run(trace)
    return results  # type: ignore[return-value]
