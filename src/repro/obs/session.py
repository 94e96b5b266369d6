"""Study-level observability sessions and the run manifest.

An :class:`ObsSession` is owned by the study driver
(:func:`~repro.fleet.study.run_study`) or a study's ``run()``. It collects
study-level events (cache probes, merge steps), splices in each shard's
event list in plan order, times wall-clock phases, and finally writes
the run directory:

* ``events.jsonl`` — the merged deterministic event log. Study-level
  events carry ``shard: null``; shard events carry their plan index.
  Global ``seq`` numbers are assigned over the final order, so the
  bytes depend only on the study parameters — never on the worker
  count (the PR 1 merge contract, extended to logs).
* ``manifest.json`` — a ``run`` block (deterministic identity: study
  kind, cache-key material, fault plan, shard seeds, engine choice,
  event count and digest) plus an ``execution`` block (wall-clock
  overlay: worker count, phase and shard timings, cache disposition,
  and where the memsys engine ran each arm) that is explicitly outside
  the determinism contract.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.errors import TraceError
from repro.jsonio import atomic_write_text
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    canonical_event_line,
    write_events_jsonl,
)
# Re-exported: the run-directory switch lives beside the tracers.
from repro.obs.tracer import OBS_ENV_VAR as OBS_ENV_VAR
from repro.obs.tracer import resolve_obs_dir as resolve_obs_dir

#: Bumped whenever the manifest layout changes meaning.
MANIFEST_SCHEMA_VERSION = 1

MANIFEST_NAME = "manifest.json"
EVENTS_NAME = "events.jsonl"

_PathLike = Union[str, pathlib.Path]


def engine_choice() -> str:
    """Which simulation engine this process would use (manifest field)."""
    from repro.engine import slow_engine_requested

    return "interpreter" if slow_engine_requested() else "compiled"


class ObsSession:
    """Observability for one study execution.

    Args:
        out_dir: Run directory (created on finalize).
        study: Study kind for the manifest (``"ablation"`` etc.).
        workers: The resolved worker count (execution overlay only).
    """

    def __init__(self, out_dir: _PathLike, study: str,
                 workers: int = 1) -> None:
        self.dir = pathlib.Path(out_dir)
        self.study = study
        self.workers = workers
        self._events: List[Dict] = []
        self._phases: List[Dict] = []
        self._shard_walls: Dict[int, float] = {}
        self._cache: str = "off"
        self._queue: Optional[Dict] = None
        self._start = time.monotonic()

    # --- event collection ------------------------------------------------------

    def event(self, kind: str, t_ns: float = 0.0, **fields) -> None:
        """Record one study-level event (``shard: null``)."""
        record: Dict = {"v": EVENT_SCHEMA_VERSION, "kind": kind,
                        "t_ns": float(t_ns), "shard": None}
        record.update(fields)
        self._events.append(record)

    def add_shard(self, index: int, events: Sequence[Dict],
                  wall_s: Optional[float] = None) -> None:
        """Splice one shard's events (plan order) into the merged log."""
        for event in events:
            tagged = dict(event)
            tagged["shard"] = index
            self._events.append(tagged)
        if wall_s is not None:
            self._shard_walls[index] = wall_s

    def cache_probe(self, hit: Optional[bool], key: str) -> None:
        """Record the result-cache disposition (and its event)."""
        if hit is None:
            self._cache = "off"
            return
        self._cache = "hit" if hit else "miss"
        self.event("cache-hit" if hit else "cache-miss", key=key)

    def queue_stats(self, stats) -> None:
        """Record the checkpointed work-queue disposition (execution
        overlay; a :class:`~repro.fleet.queue.QueueStats`)."""
        self._queue = stats.to_dict()

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a wall-clock phase of the study (execution overlay)."""
        start = time.monotonic()
        try:
            yield
        finally:
            self._phases.append(
                {"name": name, "wall_s": time.monotonic() - start})

    # --- output ----------------------------------------------------------------

    def finalize(self, material: Dict,
                 shard_seeds: Optional[Sequence[int]] = None,
                 fault_plan: Optional[str] = None,
                 occupancy: Optional[Dict] = None) -> pathlib.Path:
        """Assign sequence numbers, write ``events.jsonl`` and
        ``manifest.json``; returns the run directory. ``occupancy`` is
        the study's merged ``BatchOccupancy``, or ``None`` when no memsys
        engine ran."""
        self.dir.mkdir(parents=True, exist_ok=True)
        for seq, event in enumerate(self._events):
            event["seq"] = seq
        events_path = self.dir / EVENTS_NAME
        write_events_jsonl(self._events, events_path)
        digest = hashlib.sha256()
        for event in self._events:
            digest.update((canonical_event_line(event) + "\n").encode())
        manifest = {
            "schema": MANIFEST_SCHEMA_VERSION,
            "run": {
                "study": self.study,
                "material": material,
                "fault_plan": fault_plan,
                "shard_seeds": (list(shard_seeds)
                                if shard_seeds is not None else []),
                "shards": (len(shard_seeds)
                           if shard_seeds is not None else 0),
                "engine": engine_choice(),
                "event_schema": EVENT_SCHEMA_VERSION,
                "events": len(self._events),
                "events_digest": digest.hexdigest(),
            },
            "execution": {
                "workers": self.workers,
                "wall_s": time.monotonic() - self._start,
                "phases": self._phases,
                "shard_wall_s": {str(index): wall for index, wall
                                 in sorted(self._shard_walls.items())},
                "cache": self._cache,
                "queue": self._queue,
                "occupancy": (occupancy.to_dict()
                              if occupancy is not None else None),
            },
        }
        atomic_write_text(
            self.dir / MANIFEST_NAME,
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return self.dir


def read_manifest(run_dir: _PathLike) -> Dict:
    """Load and sanity-check a run directory's manifest."""
    path = pathlib.Path(run_dir) / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text())
    except OSError as error:
        raise TraceError(f"cannot read manifest {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise TraceError(f"{path}: invalid JSON: {error}") from error
    if not isinstance(manifest, dict) \
            or manifest.get("schema") != MANIFEST_SCHEMA_VERSION:
        raise TraceError(
            f"{path}: unsupported manifest schema "
            f"{manifest.get('schema') if isinstance(manifest, dict) else manifest!r}")
    for block in ("run", "execution"):
        if not isinstance(manifest.get(block), dict):
            raise TraceError(f"{path}: missing {block!r} block")
    return manifest


def manifest_run_digest(manifest: Dict) -> str:
    """Content hash of the manifest's deterministic ``run`` block.

    Two cold runs of the same study — serial or sharded, at any worker
    count — digest equal; the ``execution`` overlay (workers, wall
    times) is deliberately excluded. A cache *hit* digests differently
    from a cold run because its event log records the reuse instead of
    the shard execution.
    """
    payload = json.dumps(manifest["run"], sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
