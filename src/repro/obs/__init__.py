"""``repro.obs`` — the deterministic run-observability layer.

Every fleet study can emit, next to its result, a *run directory*:

* ``events.jsonl`` — a schema-versioned structured event log keyed to
  simulated time, merged across shards in deterministic order so serial
  and sharded executions of the same study produce byte-identical logs
  (the same contract the result merge obeys);
* ``manifest.json`` — what the run *was*: config digest, fault plan,
  seeds, shard plan, engine choice, plus a wall-clock execution overlay
  (worker count, per-phase and per-shard timings) that is explicitly
  outside the determinism contract.

``repro report <run-dir>`` renders both into a timeline and timing
breakdown; see :mod:`repro.obs.report`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "events": (
        "EVENT_SCHEMA_VERSION", "EVENT_TYPES", "read_events_jsonl",
        "validate_event", "write_events_jsonl",
    ),
    "session": (
        "MANIFEST_NAME", "EVENTS_NAME", "ObsSession",
        "manifest_run_digest", "read_manifest",
    ),
    "tracer": ("NULL_TRACER", "NullTracer", "Tracer", "OBS_ENV_VAR"),
    "report": ("build_report", "render_report"),
})
