"""Render a run directory into a timeline and timing breakdown.

``repro report <run-dir>`` lands here. The human rendering shows the
run identity (study, engine, shards, cache disposition), the wall-clock
phase breakdown, per-shard simulated spans and wall times, result-cache
effectiveness, the CLI footer's ``engine:`` line (where each arm ran,
from ``execution.occupancy``), the incident ledger with MTTR, and a
chronological timeline of notable events — with an ASCII chart of
disabled sockets over simulated time when the run has controller
activity. ``--json`` emits the same material as one machine-readable
object; every event is validated against the schema on load either way.
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Tuple, Union

from repro.obs.events import read_events_jsonl
from repro.obs.session import EVENTS_NAME, read_manifest
from repro.units import SECOND

_PathLike = Union[str, pathlib.Path]

#: Event kinds surfaced on the human timeline (high-signal only; MSR
#: write attempts and sim-run markers stay in the raw log).
TIMELINE_KINDS = (
    "study-start", "cache-hit", "cache-miss", "shard-start",
    "controller-transition", "failsafe-engaged", "failsafe-released",
    "incident-open", "incident-resolved", "machine-restart",
    "shard-finish", "merge-step", "cache-store", "study-finish",
)

DEFAULT_TIMELINE_LIMIT = 40


def load_run(run_dir: _PathLike) -> Tuple[Dict, List[Dict]]:
    """A run directory's (manifest, validated events)."""
    run_dir = pathlib.Path(run_dir)
    manifest = read_manifest(run_dir)
    events = read_events_jsonl(run_dir / EVENTS_NAME, validate=True)
    return manifest, events


# --- analysis -----------------------------------------------------------------

def _by_kind(events: List[Dict]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for event in events:
        counts[event["kind"]] = counts.get(event["kind"], 0) + 1
    return dict(sorted(counts.items()))


def _shard_rows(events: List[Dict], manifest: Dict) -> List[Dict]:
    """Per-shard event counts and simulated spans, in plan order."""
    spans: Dict[int, List[float]] = {}
    counts: Dict[int, int] = {}
    for event in events:
        shard = event.get("shard")
        if shard is None:
            continue
        counts[shard] = counts.get(shard, 0) + 1
        span = spans.setdefault(shard, [event["t_ns"], event["t_ns"]])
        span[0] = min(span[0], event["t_ns"])
        span[1] = max(span[1], event["t_ns"])
    walls = manifest["execution"].get("shard_wall_s", {})
    return [
        {"index": shard, "events": counts[shard],
         "sim_span_ns": spans[shard][1] - spans[shard][0],
         "wall_s": walls.get(str(shard))}
        for shard in sorted(counts)
    ]


def _incident_stats(events: List[Dict]) -> Dict:
    """Incident ledger: counts by kind, resolution, MTTR, detection lag."""
    opened: Dict[str, int] = {}
    resolved = 0
    recovery: List[float] = []
    detection: List[float] = []
    for event in events:
        if event["kind"] == "incident-open":
            opened[event["incident"]] = opened.get(event["incident"], 0) + 1
            detected = event.get("detected_ns", event["t_ns"])
            detection.append(detected - event["onset_ns"])
        elif event["kind"] == "incident-resolved":
            resolved += 1
            recovery.append(event["recovered_ns"] - event["detected_ns"])
    total = sum(opened.values())
    return {
        "count": total,
        "by_kind": dict(sorted(opened.items())),
        "resolved": resolved,
        "mttr_ns": (sum(recovery) / len(recovery)) if recovery else None,
        "mean_detection_ns": (sum(detection) / len(detection))
        if detection else None,
    }


def _cache_stats(events: List[Dict], manifest: Dict) -> Dict:
    counts = _by_kind(events)
    return {
        "disposition": manifest["execution"].get("cache", "off"),
        "hits": counts.get("cache-hit", 0),
        "misses": counts.get("cache-miss", 0),
        "stores": counts.get("cache-store", 0),
    }


def _disabled_series(events: List[Dict]) -> List[Tuple[float, float]]:
    """(sim seconds, sockets currently disabled) step series across all
    shards — the data behind the timeline chart."""
    disabled = set()
    series: List[Tuple[float, float]] = []
    transitions = [e for e in events if e["kind"] == "controller-transition"]
    transitions.sort(key=lambda e: (e["t_ns"], e["seq"]))
    for event in transitions:
        key = (event.get("shard"), event.get("arm"), event["ident"])
        if event["enabled"]:
            disabled.discard(key)
        else:
            disabled.add(key)
        series.append((event["t_ns"] / SECOND, float(len(disabled))))
    return series


def build_report(run_dir: _PathLike) -> Dict:
    """The machine-readable report (the ``--json`` payload)."""
    manifest, events = load_run(run_dir)
    return {
        "run_dir": str(run_dir),
        "manifest": manifest,
        "events": {"count": len(events), "by_kind": _by_kind(events)},
        "phases": manifest["execution"].get("phases", []),
        "shards": _shard_rows(events, manifest),
        "cache": _cache_stats(events, manifest),
        "incidents": _incident_stats(events),
        "transitions": sum(1 for e in events
                           if e["kind"] == "controller-transition"),
        "schema_ok": True,
    }


# --- human rendering ----------------------------------------------------------

def _fmt_table(header: Tuple[str, ...], rows: List[Tuple]) -> List[str]:
    widths = [max(len(str(cell)) for cell in column)
              for column in zip(header, *rows)] if rows else \
        [len(cell) for cell in header]

    def fmt(row):
        """One aligned table row."""
        return "  ".join(str(cell).rjust(width)
                         for cell, width in zip(row, widths))

    return [fmt(header), fmt(["-" * width for width in widths])] \
        + [fmt(row) for row in rows]


def _describe(event: Dict) -> str:
    """One timeline line's payload, per event kind."""
    kind = event["kind"]
    if kind == "controller-transition":
        return (f"{event['ident']} -> {event['state']} "
                f"(prefetchers {'on' if event['enabled'] else 'OFF'})")
    if kind == "msr-write":
        return (f"{event['ident']} write "
                f"{'enable' if event['enabled'] else 'disable'} "
                f"{'ok' if event['ok'] else 'FAILED'}")
    if kind == "failsafe-engaged":
        dark = (event["t_ns"] - event["dark_since_ns"]) / SECOND
        return f"{event['ident']} fail-safe engaged (dark {dark:.0f}s)"
    if kind == "failsafe-released":
        return f"{event['ident']} fail-safe released"
    if kind == "incident-open":
        return f"{event['ident']} incident: {event['incident']}"
    if kind == "incident-resolved":
        mttr = (event["recovered_ns"] - event["detected_ns"]) / SECOND
        return (f"{event['ident']} recovered: {event['incident']} "
                f"(after {mttr:.0f}s)")
    if kind == "machine-restart":
        return f"{event['ident']} machine restart ({event['policy']})"
    if kind == "shard-start":
        return (f"shard {event['index']} start "
                f"({event['machines']} machines, seed {event['seed']})")
    if kind == "shard-finish":
        return f"shard {event['index']} finish ({event['epochs']} epochs)"
    if kind == "merge-step":
        return f"merge shard {event['index']}"
    if kind in ("cache-hit", "cache-miss", "cache-store"):
        return f"{kind} {event['key'][:16]}…"
    return event.get("study", "")


def render_report(run_dir: _PathLike,
                  timeline_limit: int = DEFAULT_TIMELINE_LIMIT) -> str:
    """The human-readable run report."""
    manifest, events = load_run(run_dir)
    report = build_report(run_dir)
    run = manifest["run"]
    execution = manifest["execution"]
    lines: List[str] = []

    lines.append(f"run: {run['study']} — {run_dir}")
    mode = (run.get("material") or {}).get("mode")
    descriptor = [f"engine={run['engine']}", f"shards={run['shards']}",
                  f"workers={execution['workers']}",
                  f"cache={execution.get('cache', 'off')}",
                  f"events={run['events']}"]
    if mode:
        descriptor.insert(0, f"mode={mode}")
    if run.get("fault_plan"):
        descriptor.append(f"fault-plan={run['fault_plan']}")
    lines.append("  " + "  ".join(descriptor))
    lines.append("")

    lines.append("timing breakdown (wall clock)")
    total_wall = execution.get("wall_s") or 0.0
    phase_rows = [(p["name"], f"{p['wall_s']:.3f}s",
                   f"{p['wall_s'] / total_wall:.0%}" if total_wall else "-")
                  for p in report["phases"]]
    phase_rows.append(("total", f"{total_wall:.3f}s", "100%"))
    lines += _fmt_table(("phase", "wall", "share"), phase_rows)
    lines.append("")

    if report["shards"]:
        lines.append("shards")
        rows = [(s["index"], s["events"],
                 f"{s['sim_span_ns'] / SECOND:.0f}s",
                 f"{s['wall_s']:.3f}s" if s["wall_s"] is not None else "-")
                for s in report["shards"]]
        lines += _fmt_table(("shard", "events", "sim span", "wall"), rows)
        lines.append("")

    cache = report["cache"]
    lines.append(f"result cache: {cache['disposition']} "
                 f"(hits={cache['hits']} misses={cache['misses']} "
                 f"stores={cache['stores']})")
    from repro.memsys.batched import BatchOccupancy
    engine = BatchOccupancy.summary(execution.get("occupancy"))
    if engine:
        lines.append(engine)

    incidents = report["incidents"]
    if incidents["count"]:
        mttr = incidents["mttr_ns"]
        detect = incidents["mean_detection_ns"]
        lines.append(
            f"incidents: {incidents['count']} opened, "
            f"{incidents['resolved']} resolved, MTTR "
            + (f"{mttr / SECOND:.1f}s" if mttr is not None else "n/a")
            + ", mean detection "
            + (f"{detect / SECOND:.1f}s" if detect is not None else "n/a"))
        for kind, count in incidents["by_kind"].items():
            lines.append(f"  {kind}: {count}")
    else:
        lines.append("incidents: none")
    lines.append("")

    series = _disabled_series(events)
    if len(series) >= 2:
        from repro.telemetry.ascii_chart import line_chart
        lines.append("sockets with prefetchers disabled over simulated time")
        lines.append(line_chart({"disabled sockets": series},
                                x_label="sim time (s)",
                                y_label="sockets disabled"))
        lines.append("")

    notable = [e for e in events if e["kind"] in TIMELINE_KINDS]
    lines.append(f"timeline ({min(len(notable), timeline_limit)} of "
                 f"{len(notable)} notable events)")
    for event in notable[:timeline_limit]:
        shard = event.get("shard")
        origin = "study" if shard is None else f"shard {shard}"
        arm = event.get("arm")
        if arm:
            origin += f"/{arm}"
        lines.append(f"  t={event['t_ns'] / SECOND:8.1f}s  "
                     f"[{origin:>12}]  {event['kind']}: "
                     f"{_describe(event)}")
    if len(notable) > timeline_limit:
        lines.append(f"  … and {len(notable) - timeline_limit} more "
                     f"(see {EVENTS_NAME})")
    return "\n".join(lines)
