"""Tests for the observability event schema and tracer primitives."""

import pytest

from repro.errors import TraceError
from repro.obs import (
    EVENT_SCHEMA_VERSION,
    EVENT_TYPES,
    NULL_TRACER,
    NullTracer,
    Tracer,
    read_events_jsonl,
    validate_event,
    write_events_jsonl,
)

#: One plausible value per required field, so every event kind can be
#: instantiated generically.
FIELD_SAMPLES = {
    "study": "ablation",
    "index": 0,
    "machines": 4,
    "seed": 7,
    "epochs": 10,
    "key": "a" * 64,
    "ident": "machine-0/0",
    "state": "overloaded",
    "enabled": False,
    "ok": True,
    "dark_since_ns": 1.0e9,
    "incident": "telemetry-blackout",
    "onset_ns": 1.0e9,
    "detected_ns": 2.0e9,
    "recovered_ns": 3.0e9,
    "policy": "enabled",
    "accesses": 160_000,
    "round": 1,
    "arm": "off",
}


def sample_event(kind, merged=True):
    event = {"v": EVENT_SCHEMA_VERSION, "kind": kind, "t_ns": 5.0}
    for field in EVENT_TYPES[kind]:
        event[field] = FIELD_SAMPLES[field]
    if merged:
        event["seq"] = 0
        event["shard"] = None
    return event


class TestValidateEvent:
    @pytest.mark.parametrize("kind", sorted(EVENT_TYPES))
    def test_every_kind_validates(self, kind):
        validate_event(sample_event(kind))

    @pytest.mark.parametrize("kind", sorted(EVENT_TYPES))
    def test_every_kind_validates_unmerged(self, kind):
        validate_event(sample_event(kind, merged=False), merged=False)

    def test_unknown_kind_rejected(self):
        event = sample_event("study-start")
        event["kind"] = "coffee-break"
        with pytest.raises(TraceError, match="unknown event kind"):
            validate_event(event)

    def test_wrong_version_rejected(self):
        event = sample_event("study-start")
        event["v"] = EVENT_SCHEMA_VERSION + 1
        with pytest.raises(TraceError, match="schema version"):
            validate_event(event)

    def test_missing_required_field_rejected(self):
        event = sample_event("shard-start")
        del event["seed"]
        with pytest.raises(TraceError, match="seed"):
            validate_event(event)

    def test_non_numeric_t_ns_rejected(self):
        event = sample_event("study-start")
        event["t_ns"] = "soon"
        with pytest.raises(TraceError, match="t_ns"):
            validate_event(event)

    def test_merged_requires_seq(self):
        event = sample_event("study-start")
        del event["seq"]
        with pytest.raises(TraceError, match="seq"):
            validate_event(event)

    def test_merged_requires_shard(self):
        event = sample_event("study-start")
        del event["shard"]
        with pytest.raises(TraceError, match="shard"):
            validate_event(event)

    def test_bad_shard_type_rejected(self):
        event = sample_event("study-start")
        event["shard"] = "zero"
        with pytest.raises(TraceError, match="shard"):
            validate_event(event)

    def test_non_dict_rejected(self):
        with pytest.raises(TraceError):
            validate_event(["not", "an", "event"])


class TestJsonlRoundTrip:
    def test_every_kind_round_trips(self, tmp_path):
        events = [dict(sample_event(kind), seq=i)
                  for i, kind in enumerate(sorted(EVENT_TYPES))]
        path = tmp_path / "events.jsonl"
        write_events_jsonl(events, path)
        assert read_events_jsonl(path) == events

    def test_canonical_bytes_are_stable(self, tmp_path):
        events = [sample_event("study-start")]
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_events_jsonl(events, first)
        write_events_jsonl(list(read_events_jsonl(first)), second)
        assert first.read_bytes() == second.read_bytes()

    def test_invalid_json_line_rejected(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"v": 1, "kind": "study-start"\n')
        with pytest.raises(TraceError, match="invalid JSON"):
            read_events_jsonl(path)

    def test_validation_can_be_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"anything": "goes"}\n')
        assert read_events_jsonl(path, validate=False) == [
            {"anything": "goes"}]


class TestNullTracer:
    def test_falsy_and_disabled(self):
        assert not NULL_TRACER
        assert isinstance(NULL_TRACER, NullTracer)

    def test_methods_are_no_ops(self):
        NULL_TRACER.event("study-start", 0.0, study="x")
        with NULL_TRACER.context(arm="experiment"):
            pass
        # Stateless: nothing to assert beyond "did not raise".
        assert not hasattr(NULL_TRACER, "events")

    def test_zero_allocation_shape(self):
        # __slots__ = () means the null tracer cannot grow state.
        with pytest.raises(AttributeError):
            NULL_TRACER.events = []


class TestTracer:
    def test_truthy_and_enabled(self):
        tracer = Tracer()
        assert tracer

    def test_event_envelope(self):
        tracer = Tracer()
        tracer.event("sim-run", 42, accesses=7)
        assert tracer.events == [
            {"v": EVENT_SCHEMA_VERSION, "kind": "sim-run", "t_ns": 42.0,
             "accesses": 7}]

    def test_context_fields_attach(self):
        tracer = Tracer()
        with tracer.context(arm="control"):
            tracer.event("sim-run", 1.0, accesses=1)
        tracer.event("sim-run", 2.0, accesses=2)
        assert tracer.events[0]["arm"] == "control"
        assert "arm" not in tracer.events[1]

    def test_context_nesting_and_restore(self):
        tracer = Tracer()
        with tracer.context(arm="control"):
            with tracer.context(phase="warmup"):
                tracer.event("sim-run", 1.0, accesses=1)
            tracer.event("sim-run", 2.0, accesses=2)
        event_inner, event_outer = tracer.events
        assert event_inner["arm"] == "control"
        assert event_inner["phase"] == "warmup"
        assert event_outer["arm"] == "control"
        assert "phase" not in event_outer

    def test_call_fields_override_context(self):
        tracer = Tracer()
        with tracer.context(arm="control"):
            tracer.event("sim-run", 1.0, accesses=1, arm="experiment")
        assert tracer.events[0]["arm"] == "experiment"

    def test_context_restored_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.context(arm="control"):
                raise RuntimeError("boom")
        tracer.event("sim-run", 1.0, accesses=1)
        assert "arm" not in tracer.events[0]
