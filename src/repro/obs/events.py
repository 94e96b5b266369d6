"""The structured event schema and its JSONL encoding.

Every event is a flat JSON object with a common envelope:

* ``v`` — event schema version (:data:`EVENT_SCHEMA_VERSION`);
* ``kind`` — one of :data:`EVENT_TYPES`;
* ``t_ns`` — simulated time (floats; shard-local clocks start at 0);
* ``seq`` — global sequence number, assigned once at merge time;
* ``shard`` — originating shard index, or ``None`` for study-level
  events (cache probes, merge steps).

Per-kind required fields are listed in :data:`EVENT_TYPES`; extra
fields (for example the ``arm`` tag a study pushes around each fleet
arm) are permitted. Logs are written as canonical JSON Lines — sorted
keys, no whitespace — so two logs are byte-identical exactly when their
event sequences are equal, which is what the serial-vs-sharded
determinism tests compare.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Iterable, List, Union

from repro.errors import TraceError
from repro.serialization import canonical_json

#: Bumped whenever an event's meaning or required fields change.
EVENT_SCHEMA_VERSION = 1

#: kind -> required field names (beyond the envelope).
EVENT_TYPES: Dict[str, tuple] = {
    # study orchestration
    "study-start": ("study",),
    "study-finish": ("study",),
    "shard-start": ("index", "machines", "seed"),
    "shard-finish": ("index", "epochs"),
    "merge-step": ("index",),
    # checkpointed work-queue (study-level, emitted in plan order):
    # this run journaled the shard fresh vs. restored it from the journal
    "shard-checkpoint": ("index",),
    "shard-restored": ("index",),
    # result cache
    "cache-hit": ("key",),
    "cache-miss": ("key",),
    "cache-store": ("key",),
    # control plane (per-socket daemons)
    "controller-transition": ("ident", "state", "enabled"),
    # no longer emitted; kept so run directories written while the
    # policy layer existed still pass `repro report`'s schema check
    "policy-decision": ("ident", "policy", "enabled"),
    "msr-write": ("ident", "enabled", "ok"),
    "failsafe-engaged": ("ident", "dark_since_ns"),
    "failsafe-released": ("ident",),
    "incident-open": ("ident", "incident", "onset_ns"),
    "incident-resolved": ("ident", "incident", "detected_ns",
                          "recovered_ns"),
    "machine-restart": ("ident", "policy"),
    # simulator
    "sim-run": ("accesses",),
}

_PathLike = Union[str, pathlib.Path]


def validate_event(event: Dict, merged: bool = True) -> None:
    """Check one event against the schema; raises :class:`TraceError`.

    ``merged`` additionally requires the merge-time envelope fields
    (``seq`` and ``shard``) that per-shard tracers do not carry yet.
    """
    if not isinstance(event, dict):
        raise TraceError(f"event must be an object, got {type(event).__name__}")
    if event.get("v") != EVENT_SCHEMA_VERSION:
        raise TraceError(
            f"unsupported event schema version {event.get('v')!r} "
            f"(expected {EVENT_SCHEMA_VERSION})")
    kind = event.get("kind")
    if kind not in EVENT_TYPES:
        raise TraceError(f"unknown event kind {kind!r}")
    if not isinstance(event.get("t_ns"), (int, float)):
        raise TraceError(f"event {kind!r} lacks a numeric t_ns")
    for field in EVENT_TYPES[kind]:
        if field not in event:
            raise TraceError(f"event {kind!r} missing required field "
                             f"{field!r}: {event!r}")
    if merged:
        if not isinstance(event.get("seq"), int):
            raise TraceError(f"merged event {kind!r} lacks an integer seq")
        if "shard" not in event:
            raise TraceError(f"merged event {kind!r} lacks a shard field")
        shard = event["shard"]
        if shard is not None and not isinstance(shard, int):
            raise TraceError(f"event shard must be an index or null, "
                             f"got {shard!r}")


def canonical_event_line(event: Dict) -> str:
    """One event as its canonical JSONL line (sorted keys, compact)."""
    return canonical_json(event)


def write_events_jsonl(events: Iterable[Dict], path: _PathLike) -> None:
    """Write events as canonical JSON Lines (atomically: temp file +
    ``os.replace``, so a crash mid-finalize never leaves a torn log)."""
    from repro.serialization import atomic_write_text

    lines = [canonical_event_line(event) + "\n" for event in events]
    atomic_write_text(pathlib.Path(path), "".join(lines))


def read_events_jsonl(path: _PathLike, validate: bool = True) -> List[Dict]:
    """Read an event log; optionally validate every record."""
    path = pathlib.Path(path)
    events = []
    with path.open() as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceError(
                    f"{path}:{line_number}: invalid JSON: {error}") from error
            if validate:
                try:
                    validate_event(event)
                except TraceError as error:
                    raise TraceError(
                        f"{path}:{line_number}: {error}") from error
            events.append(event)
    return events
