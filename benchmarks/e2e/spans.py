"""Outside-in span recorder for the end-to-end benchmark.

Every span comes from a wrapper this file installs around a *public*
call into one layer (a module function or a class method) for the
length of one traced study run, then removes again. Nothing inside
``src/`` is edited, and no :mod:`repro.obs` tracer is ever attached to a
memory hierarchy: a traced hierarchy falls back to the scalar engine
(fallback reason ``tracer``), so the benchmark would be timing a
different program.

A span is ``(layer, start, end, parent, run)``: ``parent`` is the index
of the enclosing span (``-1`` for the root) and ``run`` the study run it
belongs to, which plays the role of a request id. A layer's self time is
its spans' durations minus the part covered by their direct children;
the root ``study`` span's self time is the study driver's residual.
Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import pathlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

#: Every layer the benchmark reports, in report order. ``study`` is the
#: root span around one workload run.
LAYERS = (
    "study",
    "workloads",
    "access.builder",
    "access.interleave",
    "memsys.run_many",
    "memsys.group",
    "memsys.lockstep",
    "memsys.scalar",
    "fleet.cluster",
    "fleet.machine",
    "fleet.socket",
    "fleet.scheduler",
    "profiling",
    "core.daemon",
    "core.controller",
    "fleet.result_cache",
    "fleet.queue",
    "obs",
    "merge",
)

ROOT_LAYER = "study"


def _cache_layer(args) -> str:
    """The journal subclasses the result cache; its loads and stores are
    queue traffic, not study-cache traffic."""
    from repro.fleet.queue import ShardCheckpoint

    return ("fleet.queue" if isinstance(args[0], ShardCheckpoint)
            else "fleet.result_cache")


def _cache_lookups(args, result) -> Iterable[Tuple[str, int]]:
    if _cache_layer(args) == "fleet.result_cache":
        hit = result is not None
        yield ("fleet.result_cache.hits" if hit
               else "fleet.result_cache.misses"), 1


def _arm_accesses(counter: str):
    """Counts ``arms x trace length`` for a ``(arms, trace, ...)`` call."""

    def count(args, result) -> Iterable[Tuple[str, int]]:
        yield counter, len(args[0]) * len(args[1])

    return count


def _flips(args, result) -> Iterable[Tuple[str, int]]:
    yield "core.controller.flips", int(result.changed)


@dataclass(frozen=True)
class Probe:
    """One wrapped call.

    Args:
        target: ``module:function`` or ``module:Class.method``.
        layer: The layer its spans belong to, or a function of the call's
            positional arguments that picks one.
        count: Optional ``(args, result) -> [(counter, amount), ...]``,
            recorded at the same boundary when the call returns.
    """

    target: str
    layer: Union[str, Callable]
    count: Optional[Callable] = None


_MERGES = (
    "repro.fleet.ablation:AblationResult.merge",
    "repro.fleet.rollout:RolloutResult.merge",
    "repro.fleet.sweep:MicroSweepResult.merge",
    "repro.scenarios.tenancy:NoisyNeighborResult.merge",
    "repro.scenarios.callgraph:CallGraphResult.merge",
    "repro.fleet.cluster:FleetMetrics.merge",
    "repro.faults.metrics:ChaosMetrics.merge",
    "repro.policy.metrics:PolicyMetrics.merge",
    "repro.profiling.profile_data:ProfileData.merge",
)

PROBES = (
    Probe("repro.workloads.memo:memoized_trace", "workloads"),
    Probe("repro.access.builder:TraceBuilder.build", "access.builder"),
    Probe("repro.access:interleave", "access.interleave"),
    Probe("repro.memsys.hierarchy:run_many", "memsys.run_many",
          _arm_accesses("memsys.sim_accesses")),
    Probe("repro.memsys.batched:cached_config_signature", "memsys.group"),
    Probe("repro.memsys.batched:cached_state_fingerprint", "memsys.group"),
    Probe("repro.memsys.batched:run_lockstep", "memsys.lockstep",
          _arm_accesses("memsys.lockstep.arm_accesses")),
    Probe("repro.memsys.hierarchy:MemoryHierarchy.run", "memsys.scalar"),
    Probe("repro.fleet.cluster:Fleet.run", "fleet.cluster"),
    Probe("repro.fleet.machine:Machine.step", "fleet.machine"),
    Probe("repro.fleet.socket:SimulatedSocket.step", "fleet.socket"),
    Probe("repro.fleet.scheduler:BandwidthAwareScheduler.try_place",
          "fleet.scheduler"),
    Probe("repro.fleet.scheduler:BandwidthAwareScheduler.place",
          "fleet.scheduler"),
    Probe("repro.fleet.scheduler:BandwidthAwareScheduler.drain",
          "fleet.scheduler"),
    Probe("repro.profiling.profiler:FleetProfiler.__call__", "profiling"),
    Probe("repro.core.daemon:LimoncelloDaemon.step", "core.daemon"),
    Probe("repro.core.controller:HardLimoncelloController.observe",
          "core.controller", _flips),
    Probe("repro.fleet.result_cache:StudyResultCache.load", _cache_layer,
          _cache_lookups),
    Probe("repro.fleet.result_cache:StudyResultCache.store", _cache_layer),
    Probe("repro.fleet.result_cache:StudyResultCache.load_ablation",
          _cache_layer),
    Probe("repro.fleet.result_cache:StudyResultCache.store_ablation",
          _cache_layer),
    Probe("repro.fleet.queue:ShardCheckpoint.journal", "fleet.queue"),
    Probe("repro.obs.session:ObsSession.event", "obs"),
    Probe("repro.obs.session:ObsSession.add_shard", "obs"),
    Probe("repro.obs.session:ObsSession.finalize", "obs"),
) + tuple(Probe(target, "merge") for target in _MERGES)


def _resolve(target: str):
    """``(owner, attribute)`` for a probe target. Reads the owner's own
    ``__dict__``, so a method inherited rather than defined there fails
    here instead of being wrapped twice."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise LookupError(f"{target}: {attr!r} is not defined on {owner!r}")
    return owner, attr


Span = Tuple[int, float, float, int, int]


class Recorder:
    """Installs the probes for one traced run at a time and keeps every
    span and counter in memory."""

    def __init__(self, probes: Tuple[Probe, ...] = PROBES) -> None:
        self.probes = probes
        self.index = {layer: i for i, layer in enumerate(LAYERS)}
        self.spans: List[Span] = []
        #: Per-run counter totals, keyed by run index.
        self.counts: Dict[int, Dict[str, int]] = {}
        self._stack: List[int] = []
        self._run = 0

    def _wrap(self, fn, probe: Probe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        layer = probe.layer
        fixed = self.index[layer] if isinstance(layer, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            position = len(spans)
            spans.append(None)
            stack.append(position)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                which = fixed if fixed is not None else self.index[layer(args)]
                spans[position] = (which, start, end, parent, self._run)
            if probe.count is not None:
                counts = self.counts.setdefault(self._run, {})
                for name, amount in probe.count(args, result):
                    counts[name] = counts.get(name, 0) + amount
            return result

        return wrapper

    @contextmanager
    def recording(self, run: int):
        """Trace one study run: install every probe, open the root span,
        and restore the original attributes afterwards."""
        installed = []
        try:
            for probe in self.probes:
                owner, attr = _resolve(probe.target)
                original = vars(owner)[attr]
                if isinstance(original, (staticmethod, classmethod)):
                    wrapped = type(original)(
                        self._wrap(original.__func__, probe))
                else:
                    wrapped = self._wrap(original, probe)
                setattr(owner, attr, wrapped)
                installed.append((owner, attr, original))
            self._run = run
            position = len(self.spans)
            self.spans.append(None)
            self._stack.append(position)
            start = time.perf_counter()
            try:
                yield
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[position] = (self.index[ROOT_LAYER], start, end,
                                        -1, run)
        finally:
            for owner, attr, original in reversed(installed):
                setattr(owner, attr, original)

    def write(self, path: pathlib.Path) -> None:
        """Dump every span as ``[layer, start, end, parent, run]`` rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"layers": list(LAYERS),
                                    "spans": self.spans}))


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (_, start, end, _, _) in enumerate(spans)]


def layer_table(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per-layer ``self_s`` and ``calls`` (medians over runs) and
    ``share`` (median over runs of self time over the root span)."""
    runs: Dict[int, Dict[str, List[float]]] = {}
    for (layer, start, end, _, run), own in zip(spans, self_times(spans)):
        per_run = runs.setdefault(run, {name: [0.0, 0, 0.0]
                                        for name in LAYERS})
        row = per_run[LAYERS[layer]]
        row[0] += own
        row[1] += 1
        if LAYERS[layer] == ROOT_LAYER:
            row[2] += end - start
    table = {}
    for name in LAYERS:
        table[name] = {
            "self_s": statistics.median(r[name][0] for r in runs.values()),
            "calls": statistics.median(r[name][1] for r in runs.values()),
            "share": statistics.median(
                r[name][0] / r[ROOT_LAYER][2] for r in runs.values()),
        }
    return table
