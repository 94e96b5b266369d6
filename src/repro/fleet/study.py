"""The one study driver behind every sharded study.

:class:`~repro.fleet.ablation.AblationStudy`,
:class:`~repro.fleet.rollout.RolloutStudy`,
:class:`~repro.fleet.sweep.MicroFleetSweep` and both scenario studies run
through :func:`run_study`. It resolves the worker count, result cache,
shard journal and observability run directory; probes the whole-study
cache; maps the shard worker through the checkpointed work queue;
splices shard events into the event log; folds shards in plan order;
stores the merged result; and writes the run directory. Everything it
records depends only on the study parameters, so results and event logs
are bit-identical at any worker count.

A study is duck-typed:

* ``STUDY`` names the kind, for the manifest and the study events;
* ``shard_specs()`` and ``shard_task_materials()`` give the plan-order
  shard specs (each with a ``shard_index``) and their journal keys;
* ``cache_key_material()`` is the whole-study cache key and the
  manifest's ``run`` material;
* ``shard_meta(spec)``, optional, gives ``{"machines", "seed",
  "epochs"}`` for study-level ``shard-start``/``shard-finish`` events;
  studies whose workers do not trace use it;
* ``manifest_fields()``, optional, gives extra
  :meth:`~repro.obs.session.ObsSession.finalize` arguments.

Shard results provide ``to_dict()`` and ``merge()``. A worker returns a
shard result, or ``(result, events, wall_s)`` when it traces.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.fleet.parallel import resolve_workers
from repro.fleet.queue import (
    STALE_PAYLOAD_ERRORS,
    run_checkpointed,
    shard_checkpoint,
    shard_task_material,
)
from repro.fleet.result_cache import study_cache
from repro.fleet.shard import ShardPlan, plan_shards
from repro.obs.tracer import Tracer, resolve_obs_dir

if TYPE_CHECKING:  # the run-directory writer loads only when obs is on
    from repro.obs.session import ObsSession


class FleetStudy:
    """The study surface the analytic fleet studies (ablation and
    rollout) share. Subclasses set ``STUDY``, ``machines``, ``seed``,
    ``shard_size``, ``fault_plan`` and ``config``, and provide
    ``shard_specs()`` and ``cache_key_material()``."""

    def shard_plan(self) -> ShardPlan:
        """How this study's machines split across shards."""
        return plan_shards(self.machines, self.shard_size)

    def shard_task_materials(self) -> List[Dict]:
        """Work-queue key material per shard (plan order).

        Each key covers the whole study identity (via
        ``cache_key_material()``) plus the shard's own population, seed
        and plan position, so a shard journaled by one study can never
        be restored into a different one.
        """
        base = self.cache_key_material()
        return [
            shard_task_material(
                self.STUDY,
                {
                    **base,
                    "shard_machines": spec.machines,
                    "shard_seed": spec.seed,
                    "shard_index": spec.shard_index,
                },
            )
            for spec in self.shard_specs()
        ]

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
        """The manifest's shard seeds and fault plan."""
        faults = self.fault_plan
        return {
            "shard_seeds": self.shard_plan().seeds(self.seed),
            "fault_plan": faults.spec() if faults is not None else None,
        }


def run_traced(study, spec) -> Tuple:
    """Run an analytic fleet study's single-fleet path under a fresh
    in-process tracer; returns ``(result, events, wall_s)``.

    The run is bracketed by ``shard-start``/``shard-finish`` events. The
    finish timestamp is the latest simulated time any event observed, a
    pure function of the shard parameters like every other ``t_ns``.
    Tracers never cross process boundaries; only their plain-dict
    events do.
    """
    start = time.monotonic()
    tracer = Tracer()
    tracer.event("shard-start", 0.0, index=spec.shard_index, machines=spec.machines, seed=spec.seed)
    result = study._run_single(tracer)
    t_end = max((event["t_ns"] for event in tracer.events), default=0.0)
    tracer.event("shard-finish", t_end, index=spec.shard_index, epochs=spec.epochs)
    return result, tracer.events, time.monotonic() - start


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
        study: The study (see the module docstring for its surface).
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
        fields = getattr(study, "manifest_fields", dict)()
        session.finalize(material, occupancy=getattr(result, "occupancy", None), **fields)
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
    shard_meta = getattr(study, "shard_meta", None)
    if shard_meta is not None:
        for spec in specs:
            meta = shard_meta(spec)
            session.event(
                "shard-start", index=spec.shard_index, machines=meta["machines"], seed=meta["seed"]
            )
            session.event("shard-finish", index=spec.shard_index, epochs=meta["epochs"])
