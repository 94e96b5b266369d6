"""Tests for ObsSession, run-directory layout, and the manifest."""

import json

import pytest

from repro.errors import TraceError
from repro.obs import (
    EVENTS_NAME,
    MANIFEST_NAME,
    ObsSession,
    Tracer,
    manifest_run_digest,
    read_events_jsonl,
    read_manifest,
)
from repro.obs.session import OBS_ENV_VAR, resolve_obs_dir


class TestResolveObsDir:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(OBS_ENV_VAR, raising=False)
        assert resolve_obs_dir(None) is None

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(OBS_ENV_VAR, "/tmp/obs")
        assert resolve_obs_dir(None) == "/tmp/obs"

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(OBS_ENV_VAR, "/tmp/env")
        assert resolve_obs_dir("/tmp/arg") == "/tmp/arg"

    def test_empty_string_disables_despite_env(self, monkeypatch):
        # The --compare-serial oracle passes "" to stay dark even
        # when $REPRO_OBS_DIR is exported.
        monkeypatch.setenv(OBS_ENV_VAR, "/tmp/env")
        assert resolve_obs_dir("") is None

    def test_blank_env_ignored(self, monkeypatch):
        monkeypatch.setenv(OBS_ENV_VAR, "   ")
        assert resolve_obs_dir(None) is None


def _run_session(out_dir, study="ablation", workers=1):
    """A tiny but complete session: one shard plus study-level events."""
    session = ObsSession(out_dir, study, workers=workers)
    session.event("study-start", study=study)
    tracer = Tracer()
    tracer.event("shard-start", 0.0, index=0, machines=2, seed=7)
    tracer.event("shard-finish", 9.0, index=0, epochs=4)
    with session.phase("execute"):
        pass
    session.add_shard(0, tracer.events, wall_s=0.25)
    session.event("study-finish", t_ns=9.0, study=study)
    return session.finalize({"machines": 2, "seed": 7},
                            shard_seeds=[7], fault_plan=None)


class TestObsSession:
    def test_writes_run_directory(self, tmp_path):
        run_dir = _run_session(tmp_path / "run")
        assert (run_dir / EVENTS_NAME).is_file()
        assert (run_dir / MANIFEST_NAME).is_file()

    def test_events_validate_and_carry_seq_and_shard(self, tmp_path):
        run_dir = _run_session(tmp_path / "run")
        events = read_events_jsonl(run_dir / EVENTS_NAME)
        assert [event["seq"] for event in events] == [0, 1, 2, 3]
        assert [event["shard"] for event in events] == [None, 0, 0, None]
        assert [event["kind"] for event in events] == [
            "study-start", "shard-start", "shard-finish", "study-finish"]

    def test_manifest_blocks(self, tmp_path):
        run_dir = _run_session(tmp_path / "run", workers=3)
        manifest = read_manifest(run_dir)
        run = manifest["run"]
        assert run["study"] == "ablation"
        assert run["material"] == {"machines": 2, "seed": 7}
        assert run["shard_seeds"] == [7]
        assert run["shards"] == 1
        assert run["engine"] in ("compiled", "interpreter")
        assert run["events"] == 4
        execution = manifest["execution"]
        assert execution["workers"] == 3
        assert execution["wall_s"] >= 0.0
        assert [phase["name"] for phase in execution["phases"]] == ["execute"]
        assert execution["shard_wall_s"] == {"0": 0.25}
        assert execution["cache"] == "off"

    def test_events_digest_matches_log(self, tmp_path):
        import hashlib

        run_dir = _run_session(tmp_path / "run")
        manifest = read_manifest(run_dir)
        digest = hashlib.sha256(
            (run_dir / EVENTS_NAME).read_bytes()).hexdigest()
        assert manifest["run"]["events_digest"] == digest

    def test_run_digest_ignores_execution_overlay(self, tmp_path):
        first = _run_session(tmp_path / "a", workers=1)
        second = _run_session(tmp_path / "b", workers=8)
        assert (manifest_run_digest(read_manifest(first))
                == manifest_run_digest(read_manifest(second)))

    def test_run_digest_sees_material_changes(self, tmp_path):
        session = ObsSession(tmp_path / "c", "ablation")
        session.event("study-start", study="ablation")
        other = session.finalize({"machines": 99, "seed": 1},
                                 shard_seeds=[1])
        base = _run_session(tmp_path / "d")
        assert (manifest_run_digest(read_manifest(other))
                != manifest_run_digest(read_manifest(base)))

    def test_cache_probe_hit(self, tmp_path):
        session = ObsSession(tmp_path / "run", "ablation")
        session.cache_probe(True, "k" * 64)
        run_dir = session.finalize({}, shard_seeds=[])
        events = read_events_jsonl(run_dir / EVENTS_NAME)
        assert events[0]["kind"] == "cache-hit"
        assert read_manifest(run_dir)["execution"]["cache"] == "hit"

    def test_cache_probe_off(self, tmp_path):
        session = ObsSession(tmp_path / "run", "ablation")
        session.cache_probe(None, "")
        run_dir = session.finalize({}, shard_seeds=[])
        assert read_events_jsonl(run_dir / EVENTS_NAME) == []
        assert read_manifest(run_dir)["execution"]["cache"] == "off"


class TestReadManifest:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            read_manifest(tmp_path)

    def test_invalid_json(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{nope")
        with pytest.raises(TraceError, match="invalid JSON"):
            read_manifest(tmp_path)

    def test_wrong_schema(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"schema": 99}))
        with pytest.raises(TraceError, match="schema"):
            read_manifest(tmp_path)

    def test_missing_blocks(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(
            json.dumps({"schema": 1, "run": {}}))
        with pytest.raises(TraceError, match="execution"):
            read_manifest(tmp_path)
