"""The study base class and the one driver behind every sharded study.

:class:`FleetStudy` is the base of
:class:`~repro.fleet.ablation.AblationStudy`,
:class:`~repro.fleet.rollout.RolloutStudy`,
:class:`~repro.fleet.sweep.MicroFleetSweep` and both scenario studies.
The two analytic fleet studies share :class:`AnalyticFleetStudy`'s
constructor checks, shards (each a copy of the study), worker
(:func:`run_traced`), keys and manifest fields. The base's
:meth:`FleetStudy.run` hands the study to :func:`run_study`, which
resolves the worker count, result cache, shard journal and observability
run directory; probes the whole-study cache; maps the shard worker
through the checkpointed work queue; splices shard events into the
event log; folds shards in plan order; stores the merged result; and
writes the run directory. Everything it records depends only on the
study parameters, so results and event logs are bit-identical at any
worker count.

Shard results provide ``to_dict()``, its inverse ``from_dict()``,
``merge()`` and ``occupancy`` (the merged
:class:`~repro.memsys.batched.BatchOccupancy`, or ``None`` when no
memsys engine ran). A worker returns a shard result, or ``(result,
events, wall_s)`` when it traces.

Importing this module loads none of the queue, cache, pool or tracer
modules: :func:`run_study` imports them when a study runs.
"""

from __future__ import annotations

import copy
import time
from contextlib import nullcontext
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.fleet.shard import ShardPlan, plan_shards

if TYPE_CHECKING:  # the run-directory writer loads only when obs is on
    from repro.core.config import LimoncelloConfig
    from repro.faults.plan import FaultPlan
    from repro.obs.session import ObsSession


class FleetStudy:
    """The base class of every sharded study.

    A subclass sets ``STUDY`` (the kind, for the manifest and the study
    events), ``worker`` (the pure shard worker, the process-pool entry
    point) and ``from_payload`` (``staticmethod(<Result>.from_dict)``,
    which rebuilds a shard or merged result from its dict), and provides
    ``shard_specs()`` (plan-order specs, each with a ``shard_index``),
    ``shard_key(spec)`` (one shard's work-queue key body) and
    ``cache_key_material()`` (the whole-study cache key and the
    manifest's ``run`` material). Every base method works on
    every subclass: none reads a study parameter.
    """

    STUDY: str
    worker: Callable
    from_payload: Callable
    #: Work-queue disposition of the last :meth:`run` (a
    #: :class:`~repro.fleet.queue.QueueStats`), or ``None`` before the
    #: first run and on a whole-study cache hit.
    queue_stats = None

    def shard_task_materials(self) -> List[Dict]:
        """Work-queue key material per shard (plan order)."""
        from repro.fleet.queue import shard_task_material

        return [
            shard_task_material(self.STUDY, self.shard_key(spec)) for spec in self.shard_specs()
        ]

    def shard_meta(self, spec) -> Optional[Dict]:
        """``{"machines", "seed", "epochs"}`` for the study-level
        ``shard-start``/``shard-finish`` events of one shard, or ``None``
        (the default) when the shard worker traces its own."""
        return None

    def manifest_fields(self) -> Dict:
        """Extra :meth:`~repro.obs.session.ObsSession.finalize`
        arguments; by default none (no shard seeds, no fault plan)."""
        return {}

    def run(
        self,
        *,
        workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        checkpoint_dir: Optional[str] = None,
        obs_dir: Optional[str] = None,
    ):
        """Run every shard and merge the results in plan order.

        The arguments follow :func:`run_study`: the result is identical
        at any worker count, a cache hit skips the computation,
        journaled shards restore on a re-run, and an obs run's event log
        is byte-identical at any worker count. After the call,
        :attr:`queue_stats` holds the work-queue disposition.
        """
        result, self.queue_stats = run_study(
            self,
            self.worker,
            self.from_payload,
            workers=workers,
            cache_dir=cache_dir,
            checkpoint_dir=checkpoint_dir,
            obs_dir=obs_dir,
        )
        return result


def run_traced(shard) -> Tuple:
    """Run one analytic fleet shard under a fresh in-process tracer;
    returns ``(result, events, wall_s)``. The pool worker of both
    analytic studies.

    The run is bracketed by ``shard-start``/``shard-finish`` events. The
    finish timestamp is the latest simulated time any event observed, a
    pure function of the shard parameters like every other ``t_ns``.
    Tracers never cross process boundaries; only their plain-dict
    events do.
    """
    from repro.obs.tracer import Tracer

    start = time.monotonic()
    tracer = Tracer()
    tracer.event(
        "shard-start", 0.0, index=shard.shard_index, machines=shard.machines, seed=shard.seed
    )
    result = shard._run_single(tracer)
    t_end = max((event["t_ns"] for event in tracer.events), default=0.0)
    tracer.event("shard-finish", t_end, index=shard.shard_index, epochs=shard.epochs)
    return result, tracer.events, time.monotonic() - start


class AnalyticFleetStudy(FleetStudy):
    """The base of the two analytic fleet studies (ablation, rollout).

    One shard is a shallow copy of its study with the shard's own
    ``machines``, ``seed`` and ``shard_index`` (see :meth:`shard_specs`),
    so the copy runs in a pool worker through :func:`run_traced`. Every
    field a copy shares with its study is an immutable value: numbers,
    strings, and the frozen config, fault plan and platform.
    """

    worker = staticmethod(run_traced)
    #: Position in the shard plan: a whole study is shard 0 of itself.
    shard_index = 0

    def __init__(
        self,
        machines: int,
        epochs: int,
        seed: int,
        warmup_epochs: int,
        config: Optional[LimoncelloConfig],
        profile_sample_rate: float,
        shard_size: int,
        fault_plan: Optional[FaultPlan],
    ) -> None:
        if epochs <= 0:
            raise ConfigError("epochs must be positive")
        if warmup_epochs < 0:
            raise ConfigError("warmup cannot be negative")
        if shard_size <= 0:
            raise ConfigError("shard size must be positive")
        self.machines = machines
        self.epochs = epochs
        self.seed = seed
        self.warmup_epochs = warmup_epochs
        self.config = config
        self.profile_sample_rate = profile_sample_rate
        self.shard_size = shard_size
        self.fault_plan = fault_plan

    def shard_plan(self) -> ShardPlan:
        """How this study's machines split across shards."""
        return plan_shards(self.machines, self.shard_size)

    def shard_specs(self) -> List[AnalyticFleetStudy]:
        """The shards in plan order, each a copy of this study."""
        plan = self.shard_plan()
        shards = []
        for index, (size, seed) in enumerate(zip(plan.sizes, plan.seeds(self.seed))):
            shard = copy.copy(self)
            shard.machines, shard.seed, shard.shard_index = size, seed, index
            shards.append(shard)
        return shards

    def shard_key(self, spec) -> Dict:
        """One shard's work-queue key body.

        The whole study identity (``cache_key_material()``) plus the
        shard's own population, seed and plan position, so a shard
        journaled by one study can never be restored into a different
        one.
        """
        return {
            **self.cache_key_material(),
            "shard_machines": spec.machines,
            "shard_seed": spec.seed,
            "shard_index": spec.shard_index,
        }

    def cache_key_material(self) -> Dict:
        """Everything the result depends on, as plain data (the cache key
        and the manifest's ``run`` block). The worker count is left out:
        results are identical at any parallelism. The fault plan enters
        only when set, so fault-free keys match earlier revisions."""
        material = {
            "study": self.STUDY,
            "machines": self.machines,
            "epochs": self.epochs,
            "warmup_epochs": self.warmup_epochs,
            "seed": self.seed,
            "shard_size": self.shard_size,
            "profile_sample_rate": self.profile_sample_rate,
            "config": self.config_key_material(),
            **self.study_key_material(),
        }
        if self.fault_plan is not None:
            material["fault_plan"] = self.fault_plan.to_key_material()
        return material

    def study_key_material(self) -> Dict:
        """The subclass's own parameters in :meth:`cache_key_material`;
        by default none."""
        return {}

    def config_key_material(self) -> Optional[Dict]:
        """The daemon config's contribution to the study cache key.

        The hardening knobs (retry policy, fail-safe deadline) are
        included only when they differ from the legacy defaults, so keys
        — and cached results — for pre-hardening configurations are
        unchanged.
        """
        from repro.core.config import RetryPolicy

        config = self.config
        if config is None:
            return None
        material = {
            "lower_threshold": config.lower_threshold,
            "upper_threshold": config.upper_threshold,
            "sustain_duration_ns": config.sustain_duration_ns,
            "sample_period_ns": config.sample_period_ns,
            "actuation_retries": config.actuation_retries,
        }
        policy = config.retry_policy
        if policy != RetryPolicy():
            material["retry_policy"] = {
                "max_attempts": policy.max_attempts,
                "initial_backoff_ns": policy.initial_backoff_ns,
                "backoff_multiplier": policy.backoff_multiplier,
                "max_backoff_ns": policy.max_backoff_ns,
            }
        if config.telemetry_failsafe_deadline_ns is not None:
            material["telemetry_failsafe_deadline_ns"] = config.telemetry_failsafe_deadline_ns
        return material

    def manifest_fields(self) -> Dict:
        """The shard seeds and the fault plan."""
        faults = self.fault_plan
        return {
            "shard_seeds": self.shard_plan().seeds(self.seed),
            "fault_plan": faults.spec() if faults is not None else None,
        }


def shard_output(output) -> Tuple:
    """``(result, events, wall_s)`` for one worker output. A bare shard
    result, from a worker that does not trace, has no events and no
    wall time."""
    return output if isinstance(output, tuple) else (output, [], None)


def shard_payload(output) -> Dict:
    """The journal payload for one worker output. The wall time rides
    along so a resumed run's manifest reports the original compute cost
    rather than the restore cost."""
    result, events, wall = shard_output(output)
    return {"result": result.to_dict(), "events": list(events), "wall": wall}


def shard_from_payload(from_payload: Callable) -> Callable[[Dict], Tuple]:
    """The inverse of :func:`shard_payload`, given the function that
    rebuilds a shard result from its dict."""
    return lambda payload: (
        from_payload(payload["result"]),
        list(payload["events"]),
        payload["wall"],
    )


def _phase(session: Optional[ObsSession], name: str):
    return session.phase(name) if session is not None else nullcontext()


def run_study(
    study,
    worker,
    from_payload,
    *,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    obs_dir: Optional[str] = None,
) -> Tuple:
    """Run a study's shards; returns ``(result, queue_stats)``.

    Args:
        study: The study (see :class:`FleetStudy`).
        worker: Pure shard worker, the process-pool entry point.
        from_payload: Rebuilds a shard (or merged) result from its dict.
        workers: Process-pool size. ``None`` reads ``$REPRO_WORKERS``
            (default 1, serial); ``0`` means all CPUs. The result is
            identical at any value.
        cache_dir: Whole-study result-cache directory. ``None`` reads
            ``$REPRO_CACHE_DIR``; empty/unset disables it. A hit skips
            the computation; a stale payload recomputes and overwrites.
        checkpoint_dir: Shard-journal directory. ``None`` reads
            ``$REPRO_CHECKPOINT``; empty/unset disables it. Finished
            shards journal as they land and a re-run restores them; the
            merged result is bit-identical either way.
        obs_dir: Observability run directory. ``None`` reads
            ``$REPRO_OBS_DIR``; empty/unset disables it. When set, the
            run writes ``events.jsonl`` and ``manifest.json`` there.

    ``queue_stats`` is ``None`` on a whole-study cache hit.
    """
    from repro.fleet.parallel import resolve_workers
    from repro.fleet.queue import STALE_PAYLOAD_ERRORS, run_checkpointed, shard_checkpoint
    from repro.fleet.result_cache import study_cache
    from repro.obs.tracer import resolve_obs_dir

    workers = resolve_workers(workers)
    obs_dir = resolve_obs_dir(obs_dir)
    session = None
    if obs_dir is not None:
        from repro.obs.session import ObsSession

        session = ObsSession(obs_dir, study.STUDY, workers=workers)
        session.event("study-start", study=study.STUDY)
    cache = study_cache(cache_dir)
    checkpoint = shard_checkpoint(checkpoint_dir)
    material = study.cache_key_material()

    result = None
    stats = None
    if cache is not None:
        payload = cache.load(material)
        if payload is not None:
            try:
                result = from_payload(payload)
            except STALE_PAYLOAD_ERRORS:
                result = None  # stale payload: recompute, overwrite
        if session is not None:
            session.cache_probe(result is not None, cache.key_for(material))

    if result is None:
        specs = study.shard_specs()
        with _phase(session, "execute"):
            outputs, stats = run_checkpointed(
                worker,
                specs,
                study.shard_task_materials(),
                workers,
                checkpoint=checkpoint,
                to_payload=shard_payload,
                from_payload=shard_from_payload(from_payload),
            )
        outputs = [shard_output(output) for output in outputs]
        if session is not None:
            _log_shards(session, study, specs, outputs, stats if checkpoint is not None else None)
        with _phase(session, "merge"):
            result = outputs[0][0]
            for index, (shard, _, _) in enumerate(outputs[1:], start=1):
                if session is not None:
                    session.event("merge-step", index=index)
                result.merge(shard)
        if cache is not None:
            cache.store(material, result.to_dict())
            if session is not None:
                session.event("cache-store", key=cache.key_for(material))

    if session is not None:
        session.event("study-finish", study=study.STUDY)
        session.finalize(material, occupancy=result.occupancy, **study.manifest_fields())
    return result, stats


def _log_shards(session: ObsSession, study, specs, outputs, stats) -> None:
    """Record the executed shards in plan order: spliced shard events,
    then journal markers (``stats`` is ``None`` without a journal), then
    study-level shard events for studies whose workers do not trace."""
    if stats is not None:
        session.queue_stats(stats)
    for spec, (_, events, wall) in zip(specs, outputs):
        session.add_shard(spec.shard_index, events, wall)
    if stats is not None:
        restored = set(stats.restored_indexes)
        for spec in specs:
            kind = "shard-restored" if spec.shard_index in restored else "shard-checkpoint"
            session.event(kind, index=spec.shard_index)
    for spec in specs:
        meta = study.shard_meta(spec)
        if meta is not None:
            index = spec.shard_index
            session.event("shard-start", index=index, machines=meta["machines"], seed=meta["seed"])
            session.event("shard-finish", index=index, epochs=meta["epochs"])
