"""Checkpointed shard work-queue under the fleet study classes.

The studies (:class:`~repro.fleet.ablation.AblationStudy`,
:class:`~repro.fleet.rollout.RolloutStudy`,
:class:`~repro.fleet.sweep.MicroFleetSweep`) were all-or-nothing: a
sweep killed at shard 412/500 restarted from zero, because the result
cache only keyed *whole studies*. This module drops the granularity to
the shard. Every shard becomes a content-addressed task — key material
is the full shard spec (which embeds the config signature, trace
fingerprint or generation seed, and fault plan) plus the study kind and
a queue schema version — and each completed shard's serialized result is
journaled atomically to a checkpoint directory the moment it finishes.
Re-running the same study against the same directory restores finished
shards from the journal and computes only the rest.

Bit-identity (the PR 1 invariant) is preserved by construction:

* The shard plan is a pure function of the study parameters, so the
  interrupted run and the resumed run enumerate identical task lists.
* A restored shard result round-trips through the same serialization
  the study result cache already trusts, and the journal verifies a
  SHA-256 digest on read — a torn or stale entry is recomputed, never
  trusted.
* Outputs are assembled positionally and folded in plan order, so the
  merge cannot observe whether a shard was computed, restored, or in
  which order workers finished.

Hence a study resumed after any interruption point, at any worker
count, produces byte-identical merged results to an uninterrupted
serial run.

The journal is a :class:`~repro.fleet.result_cache.StudyResultCache`
with eviction disabled (a journal must never drop a finished shard
mid-study) and key material embedded in each entry so ``repro queue``
can report per-study progress without re-deriving keys.

For CI and tests, ``REPRO_QUEUE_ABORT_AFTER=k`` interrupts the queue
deterministically: after the ``k``-th shard is computed *and journaled*,
:class:`~repro.errors.QueueInterrupted` is raised. Restored shards do
not count — so a resumed run with the same knob makes fresh progress
instead of dying at the same point forever.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    TypeVar, Union)

import pathlib

from repro.errors import ConfigError, QueueInterrupted, TraceError
from repro.fleet.parallel import run_sharded
from repro.fleet.result_cache import StudyResultCache

#: Environment override for the default checkpoint directory; unset or
#: empty disables shard checkpointing.
CHECKPOINT_ENV_VAR = "REPRO_CHECKPOINT"

#: Deterministic-interruption knob: abort the queue (with
#: :class:`~repro.errors.QueueInterrupted`) after this many shards have
#: been computed and journaled in the current run.
ABORT_ENV_VAR = "REPRO_QUEUE_ABORT_AFTER"

#: Part of every shard-task key; bumped whenever shard semantics or
#: payload layout change meaning, so journals written by older code
#: never resolve. Version 2: every payload is ``{result, events, wall}``.
QUEUE_SCHEMA_VERSION = 2

#: What a payload stored under matching keys raises when it no longer
#: deserializes (e.g. layout drift without a schema bump); such an entry
#: is recomputed, never trusted.
STALE_PAYLOAD_ERRORS = (TraceError, KeyError, TypeError, ValueError)

_Spec = TypeVar("_Spec")
_Result = TypeVar("_Result")


def resolve_checkpoint_dir(
        checkpoint_dir: Optional[Union[str, pathlib.Path]] = None
) -> Optional[str]:
    """The checkpoint directory to use: explicit arg, else
    ``$REPRO_CHECKPOINT``, else ``None`` (checkpointing disabled).

    An explicit empty string disables checkpointing even when the
    environment variable is set (the CLI's ``--compare-serial`` oracle
    uses that to recompute instead of restoring journaled shards).
    """
    if checkpoint_dir is None:
        checkpoint_dir = os.environ.get(CHECKPOINT_ENV_VAR, "").strip() or None
    if not checkpoint_dir:
        return None
    return str(checkpoint_dir)


def resolve_abort_after(abort_after: Optional[int] = None) -> Optional[int]:
    """The abort-after threshold: explicit arg, else
    ``$REPRO_QUEUE_ABORT_AFTER``, else ``None`` (never abort).

    The environment value must be a positive integer; junk raises a
    :class:`ConfigError` naming the variable — a mistyped abort knob
    silently never firing would make a resume test vacuously pass.
    """
    if abort_after is not None:
        if abort_after <= 0:
            raise ConfigError(
                f"abort-after must be positive, got {abort_after}")
        return abort_after
    env = os.environ.get(ABORT_ENV_VAR, "").strip()
    if not env:
        return None
    try:
        value = int(env)
    except ValueError:
        raise ConfigError(
            f"{ABORT_ENV_VAR} must be a positive integer, "
            f"got {env!r}") from None
    if value <= 0:
        raise ConfigError(
            f"{ABORT_ENV_VAR} must be a positive integer, got {value}")
    return value


class ShardCheckpoint(StudyResultCache):
    """The shard journal: a result cache that never evicts.

    Entries embed their key material (``embed_material=True`` on every
    store) so :func:`queue_status` can group journal contents by study
    without recomputing keys, and eviction is disabled because dropping
    a finished shard mid-study would silently forfeit resume progress.
    """

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        super().__init__(root, max_entries=None)

    def journal(self, material: Dict, payload: Dict) -> pathlib.Path:
        """Atomically record one finished shard."""
        return self.store(material, payload, embed_material=True)

    def materials(self) -> List[Dict]:
        """Key material of every valid journaled shard (unordered)."""
        found: List[Dict] = []
        for path in self._entries():
            entry, _ = self._read_entry(path)
            if entry is None:
                continue
            material = entry.get("material")
            if isinstance(material, dict):
                found.append(material)
        return found


def shard_checkpoint(
        checkpoint_dir: Optional[Union[str, pathlib.Path]] = None
) -> Optional[ShardCheckpoint]:
    """The journal for ``checkpoint_dir`` / ``$REPRO_CHECKPOINT``, or
    ``None`` when checkpointing is disabled."""
    resolved = resolve_checkpoint_dir(checkpoint_dir)
    if resolved is None:
        return None
    return ShardCheckpoint(resolved)


def shard_task_material(study: str, spec_material: Dict) -> Dict:
    """Key material for one shard task.

    ``spec_material`` must capture everything the shard result depends
    on — the shard spec itself (machines, seed, epochs, config
    signature, fault plan, shard index) and, for trace-driven studies,
    the trace fingerprint. The study kind and the queue schema version
    are mixed in here so an ablation shard and a sweep shard can never
    collide and journals from older code never resolve.
    """
    return {
        "kind": "shard-task",
        "queue_schema": QUEUE_SCHEMA_VERSION,
        "study": study,
        "spec": spec_material,
    }


@dataclass(frozen=True)
class QueueStats:
    """What one checkpointed run did.

    Attributes:
        total: Shards in the plan.
        restored: Shards loaded from the journal instead of computed.
        computed: Shards actually executed this run.
        journaled: Shards written to the journal this run (equals
            ``computed`` when a checkpoint directory is configured,
            zero otherwise).
        restored_indexes: Plan indexes of the restored shards (sorted) —
            what lets a study log ``shard-restored`` vs.
            ``shard-checkpoint`` events in plan order.
    """

    total: int
    restored: int
    computed: int
    journaled: int
    restored_indexes: Tuple[int, ...] = ()

    def to_dict(self) -> Dict:
        """Plain-data form for manifests and CLI reporting."""
        return {
            "total": self.total,
            "restored": self.restored,
            "computed": self.computed,
            "journaled": self.journaled,
        }


def run_checkpointed(
        worker: Callable[[_Spec], _Result],
        specs: Sequence[_Spec],
        materials: Sequence[Dict],
        workers: int = 1,
        checkpoint: Optional[ShardCheckpoint] = None,
        to_payload: Optional[Callable[[_Result], Dict]] = None,
        from_payload: Optional[Callable[[Dict], _Result]] = None,
        abort_after: Optional[int] = None,
) -> Tuple[List[_Result], QueueStats]:
    """Map ``worker`` over ``specs`` through the checkpoint journal.

    ``materials[i]`` is the shard-task key material for ``specs[i]``
    (build it with :func:`shard_task_material`). With a ``checkpoint``,
    every journaled shard whose key matches is restored via
    ``from_payload`` instead of computed, and every computed shard is
    journaled via ``to_payload`` the moment it lands — in completion
    order, so an interrupted run keeps all finished work.

    Results come back in spec order regardless of restore/compute mix
    and worker completion order, which is what keeps the downstream
    plan-order fold bit-identical to a fresh serial run.

    ``abort_after`` (or ``$REPRO_QUEUE_ABORT_AFTER``) raises
    :class:`~repro.errors.QueueInterrupted` once that many shards have
    been computed and journaled this run; restored shards do not count.

    A journal entry that fails to deserialize is treated as missing and
    recomputed; journaling failures (disk full, permissions) propagate —
    silently not checkpointing would break the resume promise.
    """
    if len(specs) != len(materials):
        raise ConfigError(
            f"{len(specs)} specs but {len(materials)} key materials")
    abort_after = resolve_abort_after(abort_after)
    if checkpoint is None or to_payload is None or from_payload is None:
        if abort_after is not None and abort_after < len(specs):
            # No journal to preserve progress in, but the deterministic
            # interruption must still fire so tests can assert that an
            # un-checkpointed study loses its work.
            raise QueueInterrupted(
                f"aborting after {abort_after} of {len(specs)} shards "
                f"(no checkpoint directory configured)")
        outputs = run_sharded(worker, specs, workers)
        return outputs, QueueStats(
            total=len(specs), restored=0,
            computed=len(specs), journaled=0)

    results: List[Optional[_Result]] = [None] * len(specs)
    restored_indexes: List[int] = []
    for index, material in enumerate(materials):
        payload = checkpoint.load(material)
        if payload is None:
            continue
        try:
            results[index] = from_payload(payload)
        except STALE_PAYLOAD_ERRORS:
            continue  # recompute rather than crash
        restored_indexes.append(index)
    restored = len(restored_indexes)

    pending = [index for index in range(len(specs))
               if results[index] is None]
    computed = 0

    def journal_result(position: int, result: _Result) -> None:
        nonlocal computed
        index = pending[position]
        results[index] = result
        checkpoint.journal(materials[index], to_payload(result))
        computed += 1
        if abort_after is not None and computed >= abort_after:
            raise QueueInterrupted(
                f"aborting after {computed} computed shards "
                f"({restored} restored, {len(specs)} total); "
                f"journal: {checkpoint.root}")

    run_sharded(
        worker, [specs[index] for index in pending], workers,
        on_result=journal_result)
    outputs: List[_Result] = results  # type: ignore[assignment]
    return outputs, QueueStats(
        total=len(specs), restored=restored,
        computed=computed, journaled=computed,
        restored_indexes=tuple(restored_indexes))


def queue_status(checkpoint: ShardCheckpoint) -> Dict:
    """Per-study progress summary of a checkpoint directory.

    Groups valid journal entries by study kind; stale entries (written
    under another entry schema), corrupt entries and entries without
    embedded material are counted but not grouped. The
    journal does not know a study's *total* shard count (that lives in
    the study parameters), so this reports what is journaled, not a
    completion percentage.
    """
    scan = checkpoint.scan()
    studies: Dict[str, Dict] = {}
    grouped = 0
    for material in checkpoint.materials():
        if material.get("kind") != "shard-task":
            continue
        study = str(material.get("study", "?"))
        bucket = studies.setdefault(
            study, {"shards": 0, "shard_indexes": []})
        bucket["shards"] += 1
        spec = material.get("spec")
        if isinstance(spec, dict) and "shard_index" in spec:
            bucket["shard_indexes"].append(spec["shard_index"])
        grouped += 1
    for bucket in studies.values():
        bucket["shard_indexes"] = sorted(
            i for i in bucket["shard_indexes"] if isinstance(i, int))
    return {
        "root": str(checkpoint.root),
        "entries": scan["entries"],
        "bytes": scan["bytes"],
        "valid": scan["valid"],
        "stale": scan["stale"],
        "corrupt": scan["corrupt"],
        "shard_tasks": grouped,
        "studies": studies,
        "stats": checkpoint.stats(),
    }
