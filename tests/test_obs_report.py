"""Tests for ``repro report <run-dir>`` and the report builder."""

import json

import pytest

from repro.cli import main
from repro.faults import FaultPlan
from repro.fleet import AblationStudy
from repro.obs import build_report, render_report


@pytest.fixture(scope="module")
def ablation_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("obs") / "ablation"
    AblationStudy(mode="hard", machines=6, epochs=8, warmup_epochs=3,
                  seed=9, shard_size=3).run(workers=2, obs_dir=str(out))
    return out


@pytest.fixture(scope="module")
def chaos_run(tmp_path_factory, hardened_config):
    out = tmp_path_factory.mktemp("obs") / "chaos"
    plan = FaultPlan.parse("seed=2;telemetry-blackout:start=200,duration=80")
    AblationStudy(mode="hard", machines=4, epochs=30, warmup_epochs=5,
                  seed=11, fault_plan=plan, config=hardened_config,
                  ).run(obs_dir=str(out))
    return out


class TestBuildReport:
    def test_payload_shape(self, ablation_run):
        payload = build_report(str(ablation_run))
        assert payload["schema_ok"] is True
        assert payload["manifest"]["run"]["study"] == "ablation"
        assert payload["events"]["count"] > 0
        assert payload["shards"], "per-shard rows expected"
        assert payload["phases"], "phase timings expected"

    def test_shard_rows_cover_population(self, ablation_run):
        payload = build_report(str(ablation_run))
        assert [row["index"] for row in payload["shards"]] == [0, 1]

    def test_chaos_incidents_summarised(self, chaos_run):
        payload = build_report(str(chaos_run))
        incidents = payload["incidents"]
        assert incidents["count"] >= 1
        assert "telemetry-blackout" in incidents["by_kind"]
        if incidents["resolved"]:
            assert incidents["mttr_ns"] > 0

    def test_machine_restarts_count_as_incidents(self, tmp_path):
        """A crash-faulted run's report agrees with the study's own
        incident ledger, restarts included."""
        plan = FaultPlan.parse("seed=2;machine-crash:rate=0.1")
        result = AblationStudy(mode="hard", machines=4, epochs=20,
                               warmup_epochs=4, seed=2, fault_plan=plan,
                               ).run(obs_dir=str(tmp_path))
        chaos = result.chaos
        assert chaos.machine_restarts > 0
        incidents = build_report(str(tmp_path))["incidents"]
        assert incidents["by_kind"] == chaos.incident_kinds
        assert incidents["count"] == chaos.incidents
        assert incidents["resolved"] == chaos.recovered_incidents
        assert incidents["mttr_ns"] == chaos.mean_time_to_recovery_ns()
        assert (incidents["mean_detection_ns"]
                == chaos.mean_detection_latency_ns())

    def test_payload_is_json_serialisable(self, chaos_run):
        json.dumps(build_report(str(chaos_run)))


class TestRenderReport:
    def test_ablation_sections(self, ablation_run):
        text = render_report(str(ablation_run))
        assert "run: ablation" in text
        assert "timing breakdown" in text
        assert "shards" in text
        assert "timeline" in text

    def test_chaos_sections(self, chaos_run):
        text = render_report(str(chaos_run))
        assert "incident" in text
        assert "failsafe-engaged" in text or "incident-open" in text

    def test_engine_occupancy_line(self, ablation_run, tmp_path, capsys):
        """A trace-driven run prints the CLI footer's engine line; an
        analytic study, which runs no memsys engine, prints none."""
        from repro.scenarios import CallGraphScenario

        out = tmp_path / "callgraph"
        result = CallGraphScenario(requests=4, seed=21).run(
            workers=1, cache_dir="", checkpoint_dir="", obs_dir=str(out))
        line = result.occupancy.summary(result.occupancy.to_dict())
        assert "arm-runs batched" in line
        assert line in render_report(str(out)).splitlines()
        assert "arm-runs batched" not in render_report(str(ablation_run))

    def test_timeline_is_capped(self, ablation_run):
        text = render_report(str(ablation_run), timeline_limit=3)
        assert "more" in text


class TestReportCli:
    def test_run_dir_dispatch(self, ablation_run, capsys):
        assert main(["report", str(ablation_run)]) == 0
        out = capsys.readouterr().out
        assert "run: ablation" in out

    def test_json_flag(self, ablation_run, capsys):
        assert main(["report", str(ablation_run), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_ok"] is True

    def test_obs_dir_flag_writes_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["ablation", "--machines", "4", "--epochs", "6",
                     "--warmup", "2", "--mode", "hard",
                     "--obs-dir", str(out)]) == 0
        capsys.readouterr()
        assert (out / "events.jsonl").is_file()
        assert (out / "manifest.json").is_file()
        assert main(["report", str(out)]) == 0
        assert "run: ablation" in capsys.readouterr().out
