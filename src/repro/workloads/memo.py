"""Content-keyed memoization of generated workload traces.

Trace generation is deterministic: a workload generator, a seed, and a
scale fully determine the records produced. Ablation studies, threshold
sweeps, and calibration passes nonetheless regenerate the same trace for
every arm — the on/off arms of an ablation each rebuild an identical
multi-hundred-thousand-record trace, then the simulator re-lowers it.

This module caches generated traces under their generation parameters
(the content key: ``(workload, seed, scale, ...)``). Sharing the trace
*object* across arms is safe because traces are immutable by convention
(every transformation returns a new :class:`~repro.access.trace.Trace`),
and it means the arms also share the trace's
:class:`~repro.access.compiled.CompiledTrace` columns — which
builder-generated traces carry from birth, so a memo hit hands every arm
an already-lowered trace.

Call :func:`clear_trace_memo` to drop the retained traces — e.g. when
profiling generation itself, or in long-lived processes that sweep many
distinct ``(seed, scale)`` pairs and should not retain old traces (the
cache is bounded, and each retained trace keeps about 100 bytes per
record alive: ~5 MB for a 51,709-record fleetbench mix at scale 2.0).
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Callable, Tuple

from repro.access.trace import Trace
from repro.engine import SLOW_ENGINE_ENV, slow_engine_requested

#: Retained traces; least-recently-used entries are dropped past this bound.
MAX_MEMO_ENTRIES = 32

_memo: "OrderedDict[Tuple, Trace]" = OrderedDict()


def clear_trace_memo() -> None:
    """Drop every memoized trace (tests, memory pressure)."""
    _memo.clear()


def memoized_trace(key: Tuple, build: Callable[[], Trace]) -> Trace:
    """Return the trace for ``key``, generating it at most once.

    ``key`` must capture every input that affects the generated records
    (workload name, seed, scale, and any other generation parameter);
    ``build`` is invoked only on a miss.

    Traces built under the engine switch come from the record-path
    builder, so they are kept under their own key: a reference-engine
    run (the ``--compare-serial`` oracle) regenerates its traces instead
    of reusing the columnar ones it checks, and the reverse.
    """
    if slow_engine_requested():
        key = (SLOW_ENGINE_ENV,) + key
    trace = _memo.get(key)
    if trace is None:
        trace = build()
        _memo[key] = trace
        if len(_memo) > MAX_MEMO_ENTRIES:
            _memo.popitem(last=False)
    else:
        # Refresh recency so eviction is true LRU: a sweep that cycles
        # through more than MAX_MEMO_ENTRIES keys while re-touching a hot
        # base trace must not evict that base trace (FIFO would).
        _memo.move_to_end(key)
    return trace


def memoized_fleet_mix(seed: int, scale: float) -> Trace:
    """The fleetbench-style mixed workload for ``(seed, scale)``.

    The shared trace lets an ablation's on/off arms (and repeated load
    tests at the same operating point) skip both regeneration and
    re-lowering.
    """
    from repro.access.address import AddressSpace
    from repro.workloads.mixes import fleetbench_trace

    return memoized_trace(
        ("fleetbench_mix", seed, scale),
        lambda: fleetbench_trace(random.Random(seed), AddressSpace(),
                                 scale=scale))


def memoized_scenario_mix(seed: int, scale: float) -> Trace:
    """The scenario subsystem's default tenant co-location mix for
    ``(seed, scale)``.

    The sweep's ``--trace scenario`` bridge: every machine-arm replays
    the noisy-neighbor tenant interleave instead of the fleetbench mix.
    """
    from repro.scenarios.workload import scenario_mix_trace

    return memoized_trace(
        ("scenario_mix", seed, scale),
        lambda: scenario_mix_trace(seed, scale=scale))


def memoized_function_trace(name: str, seed: int, scale: float) -> Trace:
    """The roster function ``name``'s trace for ``(seed, scale)``.

    Used by fleet calibration, which runs each function's trace through
    three hierarchy arms (prefetchers on, off, and off-with-injection).
    """
    from repro.access.address import AddressSpace
    from repro.workloads.functions import FUNCTION_ROSTER

    profile = FUNCTION_ROSTER[name]
    return memoized_trace(
        ("roster_function", name, seed, scale),
        lambda: profile.trace(random.Random(seed), AddressSpace(),
                              scale=scale))
