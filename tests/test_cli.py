"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.cli.commands import _parse_profile, _table
from repro.errors import ConfigError, ReproError
from repro.units import SECOND


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for command in ("daemon", "latency-curve", "ablation", "rollout",
                        "thresholds", "microbench", "calibrate"):
            assert command in out


class TestProfileParsing:
    def test_parse(self):
        points = _parse_profile("0:85,8:75")
        assert points == [(0.0, 85.0), (8 * SECOND, 75.0)]

    def test_empty_rejected(self):
        with pytest.raises((ReproError, ValueError)):
            _parse_profile("")


class TestTable:
    def test_alignment(self, capsys):
        _table(("a", "bb"), [("1", "2"), ("333", "4")])
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 4
        assert all(len(line) == len(out[0]) for line in out)


class TestCommands:
    def test_daemon_runs(self, capsys):
        assert main(["daemon", "--duration", "6", "--sustain", "1"]) == 0
        out = capsys.readouterr().out
        assert "transitions=" in out
        assert "prefetchers" in out

    def test_latency_curve_runs(self, capsys):
        assert main(["latency-curve", "--points", "3", "--hops", "60"]) == 0
        out = capsys.readouterr().out
        assert "HW on (ns)" in out
        assert "reduction at 90%" in out

    def test_ablation_runs(self, capsys):
        assert main(["ablation", "--machines", "4", "--epochs", "10",
                     "--warmup", "3"]) == 0
        out = capsys.readouterr().out
        assert "fleet throughput" in out
        assert "memcpy" in out

    def test_thresholds_runs(self, capsys):
        assert main(["thresholds", "--machines", "4", "--epochs", "10",
                     "--warmup", "3"]) == 0
        out = capsys.readouterr().out
        assert "60/80" in out
        assert "best configuration" in out

    def test_microbench_runs(self, capsys):
        assert main(["microbench", "--distances", "256",
                     "--degrees", "256"]) == 0
        out = capsys.readouterr().out
        assert "mean speedup" in out

    def test_rollout_runs(self, capsys):
        assert main(["rollout", "--machines", "6", "--epochs", "12",
                     "--warmup", "4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 16" in out
        assert "Figure 20" in out

    def test_calibrate_runs(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "memcpy" in out
        assert "recovery" in out


class TestReport:
    def test_report_to_stdout(self, capsys):
        assert main(["report", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "# Limoncello reproduction report" in out
        assert "Figure 10" in out
        assert "tax cycle share" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", "--quick", "--out", str(target)]) == 0
        assert "Loaded latency" in target.read_text()
        assert "wrote" in capsys.readouterr().out


class TestRolloutCompareSerial:
    ROLLOUT = ["rollout", "--machines", "6", "--epochs", "6", "--warmup", "2",
               "--shard-size", "3"]

    def test_sharded_run_matches_serial(self, capsys):
        assert main(self.ROLLOUT + ["--workers", "2", "--compare-serial"]) == 0
        out = capsys.readouterr().out
        assert "result digest:" in out
        assert "serial-equivalence check: OK" in out

    def test_mismatch_fails_loudly(self, monkeypatch, capsys):
        import repro.fleet
        from repro.fleet import RolloutStudy

        calls = []
        real_run = RolloutStudy.run

        def recording_run(study, **kwargs):
            calls.append((study.shard_size, kwargs))
            return real_run(study, **kwargs)

        digests = iter(["a" * 64, "b" * 64])
        monkeypatch.setattr(RolloutStudy, "run", recording_run)
        monkeypatch.setattr(repro.fleet, "rollout_digest",
                            lambda result: next(digests))
        with pytest.raises(ReproError, match="diverged"):
            main(self.ROLLOUT + ["--compare-serial"])
        assert "serial-equivalence check: MISMATCH" in capsys.readouterr().out
        # The oracle leg: same shard plan, one worker, nothing persisted.
        assert calls[1] == (3, dict(workers=1, cache_dir="",
                                    checkpoint_dir="", obs_dir=""))


class TestCheckpointCommands:
    SWEEP = ["sweep", "--machines", "9", "--shard-size", "3"]

    def test_sweep_reports_queue_disposition(self, tmp_path, capsys):
        assert main(self.SWEEP + ["--checkpoint-dir", str(tmp_path)]) == 0
        assert "0/3 shards restored, 3 computed" in capsys.readouterr().out
        assert main(self.SWEEP + ["--checkpoint-dir", str(tmp_path),
                                  "--resume"]) == 0
        assert "3/3 shards restored, 0 computed" in capsys.readouterr().out

    def test_resume_without_directory_fails_fast(self, monkeypatch):
        from repro.fleet.queue import CHECKPOINT_ENV_VAR
        monkeypatch.delenv(CHECKPOINT_ENV_VAR, raising=False)
        with pytest.raises(ReproError):
            main(self.SWEEP + ["--resume"])

    def test_queue_status_command(self, tmp_path, capsys):
        assert main(self.SWEEP + ["--checkpoint-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["queue", "--checkpoint-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "micro-sweep" in out
        assert "shard tasks" in out

    def test_queue_without_directory_fails_fast(self, monkeypatch):
        from repro.fleet.queue import CHECKPOINT_ENV_VAR
        monkeypatch.delenv(CHECKPOINT_ENV_VAR, raising=False)
        with pytest.raises(ReproError):
            main(["queue"])


class TestBatchSizeFlag:
    """``--batch-size`` is the one engine knob: 0 runs the scalar engine,
    N > 0 lockstep groups of at most N arms; results never change."""

    SWEEP = ["sweep", "--machines", "6", "--scale", "0.1",
             "--shard-size", "3"]

    def test_digest_identical_at_any_batch_size(self, monkeypatch, capsys):
        from repro.fleet.queue import CHECKPOINT_ENV_VAR
        from repro.fleet.result_cache import CACHE_ENV_VAR
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        monkeypatch.delenv(CHECKPOINT_ENV_VAR, raising=False)
        lines = []
        for extra in ([], ["--batch-size", "0"], ["--batch-size", "4"]):
            assert main(self.SWEEP + extra) == 0
            lines.append(capsys.readouterr().out.splitlines())
        digests = {line for out in lines for line in out
                   if line.startswith("result digest:")}
        assert len(digests) == 1
        engine = [line for line in lines[1] if line.startswith("engine:")]
        assert len(engine) == 1 and "batching-off=" in engine[0]

    def test_negative_batch_size_rejected(self):
        with pytest.raises(ConfigError):
            main(self.SWEEP + ["--batch-size", "-1"])


class TestCacheCommand:
    def test_inspect_and_prune(self, tmp_path, capsys):
        assert main(["ablation", "--machines", "4", "--epochs", "10",
                     "--warmup", "3", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "stores" in out
        assert main(["cache", "--cache-dir", str(tmp_path),
                     "--prune", "0"]) == 0
        assert "pruned 1 entry" in capsys.readouterr().out

    def test_cache_without_directory_fails_fast(self, monkeypatch):
        from repro.fleet.result_cache import CACHE_ENV_VAR
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        with pytest.raises(ReproError):
            main(["cache"])


class TestAdaptiveCommand:
    def test_adaptive_ablation_prints_verdicts(self, capsys):
        assert main(["ablation", "--adaptive", "--machines", "12",
                     "--epochs", "10", "--warmup", "3",
                     "--shard-size", "4", "--margin", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "adaptive ablation over arms: off, control" in out
        assert "ranking:" in out
        assert "exhaustive" in out

    def test_adaptive_rejects_bad_arms(self):
        with pytest.raises(ReproError):
            main(["ablation", "--adaptive", "--arms", "off"])


class TestScenarioCommands:
    CALLGRAPH = ["scenario", "callgraph",
                 "--services", "edge:mixed:2:8>leaf*2;leaf:random:1:6",
                 "--requests", "6"]
    NOISY = ["scenario", "noisy", "--machines", "3", "--epochs", "4",
             "--tenants", "lat:stream:6,bat:random:10",
             "--sustain-ns", "20000"]

    def test_callgraph_reports_slo(self, capsys):
        assert main(self.CALLGRAPH + ["--compare-serial"]) == 0
        out = capsys.readouterr().out
        assert "end-to-end SLO at 'edge'" in out
        assert "p99" in out
        assert "result digest:" in out
        assert "serial-equivalence check: OK" in out

    def test_noisy_reports_tenants_and_duty_cycle(self, capsys):
        assert main(self.NOISY + ["--baseline", "--compare-serial"]) == 0
        out = capsys.readouterr().out
        assert "lat" in out and "bat" in out
        assert "bw share" in out
        assert "prefetchers-disabled duty cycle:" in out
        assert "versus always-enabled twin" in out
        assert "serial-equivalence check: OK" in out

    def test_noisy_policy_mode(self, capsys):
        assert main(self.NOISY + ["--mode", "policy",
                                  "--policy", "hysteresis"]) == 0
        assert "mode=policy" in capsys.readouterr().out

    def test_noisy_policy_needs_policy_mode(self):
        with pytest.raises(ReproError):
            main(self.NOISY + ["--policy", "bandit"])
        with pytest.raises(ReproError):
            main(self.NOISY + ["--mode", "policy"])

    def test_callgraph_checkpoint_disposition(self, tmp_path, capsys):
        assert main(self.CALLGRAPH
                    + ["--checkpoint-dir", str(tmp_path)]) == 0
        assert "0/2 shards restored, 2 computed" in capsys.readouterr().out
        assert main(self.CALLGRAPH + ["--checkpoint-dir", str(tmp_path),
                                      "--resume"]) == 0
        assert "2/2 shards restored, 0 computed" in capsys.readouterr().out

    def test_sweep_scenario_trace(self, capsys):
        assert main(["sweep", "--machines", "2", "--scale", "0.25",
                     "--trace", "scenario", "--compare-serial"]) == 0
        assert "serial-equivalence check: OK" in capsys.readouterr().out


class TestSecondaryLegsStayDark:
    """With ``$REPRO_OBS_DIR`` exported, only the requested run may write
    the run directory: the ``--compare-serial`` oracle legs and the noisy
    ``--baseline`` twin pass ``obs_dir=""``, so the manifest describes
    the run at the requested worker count."""

    @pytest.mark.parametrize("argv", [
        ["ablation", "--machines", "6", "--epochs", "6", "--warmup", "2",
         "--mode", "hard", "--shard-size", "3"],
        ["chaos", "--machines", "4", "--epochs", "6", "--warmup", "2",
         "--shard-size", "2", "--fault-plan", "seed=2;msr-transient:rate=0.2"],
        ["policy", "compare", "--policies", "hysteresis,single-threshold",
         "--machines", "4", "--epochs", "6", "--warmup", "2",
         "--shard-size", "2"],
        TestScenarioCommands.CALLGRAPH,
        TestScenarioCommands.NOISY + ["--shard-size", "2", "--baseline"],
        ["rollout", "--machines", "4", "--epochs", "6", "--warmup", "2",
         "--shard-size", "2"],
    ], ids=["ablation", "chaos", "policy-compare", "callgraph", "noisy",
            "rollout"])
    def test_manifest_describes_the_requested_run(self, argv, tmp_path,
                                                  monkeypatch, capsys):
        from repro.obs import read_manifest
        from repro.obs.session import OBS_ENV_VAR

        out = tmp_path / "run"
        monkeypatch.setenv(OBS_ENV_VAR, str(out))
        assert main(argv + ["--workers", "2", "--cache-dir",
                            str(tmp_path / "cache"), "--compare-serial"]) == 0
        assert "serial-equivalence check: OK" in capsys.readouterr().out
        execution = read_manifest(out)["execution"]
        assert execution["workers"] == 2
        assert execution["cache"] == "miss"
