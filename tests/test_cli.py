"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.cli.commands import _parse_profile, _table
from repro.errors import ReproError
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

    def test_cache_dir_covers_every_study(self, tmp_path, capsys):
        """A second report over one ``--cache-dir`` loads every study
        from it, the rollout's included, and recomputes none."""
        from repro.fleet import RolloutStudy, StudyResultCache

        argv = ["report", "--quick", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cache = StudyResultCache(tmp_path)
        entries = cache.scan()["valid"]
        rollout = RolloutStudy(machines=8, epochs=30, warmup_epochs=10,
                               seed=5)
        assert cache.path_for(rollout.cache_key_material()).exists()
        assert main(argv) == 0
        assert cache.stats() == {"hits": entries, "misses": entries,
                                 "stores": entries}


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
    """There is no ``--batch-size``: every cold lockstep group runs
    whole, and only ``REPRO_SLOW_ENGINE`` picks the engine. Results
    never change."""

    SWEEP = ["sweep", "--machines", "6", "--scale", "0.1",
             "--shard-size", "3"]

    def test_digest_identical_at_any_batch_size(self, monkeypatch, capsys):
        from repro.fleet.queue import CHECKPOINT_ENV_VAR
        from repro.fleet.result_cache import CACHE_ENV_VAR
        from repro.memsys.hierarchy import SLOW_ENGINE_ENV
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        monkeypatch.delenv(CHECKPOINT_ENV_VAR, raising=False)
        lines = []
        for slow in ("", "1"):
            monkeypatch.setenv(SLOW_ENGINE_ENV, slow)
            assert main(self.SWEEP) == 0
            lines.append(capsys.readouterr().out.splitlines())
        digests = {line for out in lines for line in out
                   if line.startswith("result digest:")}
        assert len(digests) == 1
        engines = [[line for line in out if line.startswith("engine:")]
                   for out in lines]
        assert engines[0] == ["engine: 6/6 arm-runs batched "
                              "(2 lockstep groups)"]
        assert len(engines[1]) == 1 and "slow-engine=6" in engines[1][0]

    def test_negative_batch_size_rejected(self, capsys):
        """The flag is gone, so any value is an argparse usage error."""
        for argv in (self.SWEEP,
                     ["scenario", "callgraph", "--requests", "4"],
                     ["scenario", "noisy", "--machines", "2"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv + ["--batch-size", "-1"])
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --batch-size" in (
                capsys.readouterr().err)


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

    def test_negative_prune_rejected(self, tmp_path, capsys):
        """``-1`` marks the bare flag inside the parser; a user's
        negative cap is a usage error, not the default cap."""
        for value in ("-1", "-5"):
            with pytest.raises(SystemExit) as exit_info:
                main(["cache", "--cache-dir", str(tmp_path),
                      "--prune", value])
            assert exit_info.value.code == 2
            assert "must be >= 0" in capsys.readouterr().err
        assert not tmp_path.joinpath("_stats").exists()

    def test_tables_report_stale_entries(self, tmp_path, capsys):
        from repro.fleet import StudyResultCache
        from repro.fleet.result_cache import SCHEMA_VERSION

        path = StudyResultCache(tmp_path).store({"k": 1}, {"v": 1})
        path.write_text(path.read_text().replace(
            f'"schema":{SCHEMA_VERSION}', '"schema":2'))
        for argv in (["cache", "--cache-dir", str(tmp_path)],
                     ["queue", "--checkpoint-dir", str(tmp_path)]):
            assert main(argv) == 0
            rows = dict(line.split() for line in
                        capsys.readouterr().out.splitlines()
                        if line.strip().startswith(("stale", "corrupt")))
            assert rows == {"stale": "1", "corrupt": "0"}

    def test_cache_without_directory_fails_fast(self, monkeypatch):
        from repro.fleet.result_cache import CACHE_ENV_VAR
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        with pytest.raises(ReproError):
            main(["cache"])


class TestRemovedSurface:
    """The adaptive ablation driver and the chaos subcommand are gone;
    their spellings are argparse usage errors, not silent no-ops."""

    @pytest.mark.parametrize("flag", [["--adaptive"], ["--arms", "off"],
                                      ["--margin", "0.1"], ["--quantum", "1"],
                                      ["--min-rounds", "2"]],
                             ids=lambda flag: flag[0])
    def test_adaptive_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["ablation"] + flag)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_chaos_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "--fault-plan", "msr-transient:rate=0.2"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'chaos'" in capsys.readouterr().err


class TestFaultedAblation:
    FAST = ["ablation", "--machines", "4", "--epochs", "4", "--warmup", "1"]

    def test_daemon_faults_on_a_daemonless_arm_fail(self):
        """The default ``--mode off`` runs no daemons, so a telemetry
        plan would inject nothing and report 100% availability."""
        with pytest.raises(ReproError, match="daemon-running mode"):
            main(self.FAST + ["--fault-plan",
                              "seed=3;telemetry-drop:rate=0.3"])

    def test_crash_only_plan_on_a_daemonless_arm(self, capsys):
        assert main(self.FAST + ["--fault-plan",
                                 "seed=2;machine-crash:rate=0.3"]) == 0
        rows = {line.split()[0]: line.split()[-1]
                for line in capsys.readouterr().out.splitlines()
                if line.strip().startswith(("controller", "machine"))}
        assert rows["controller"] == "n/a"
        assert rows["machine"] != "0"

    def test_hard_arm_reports_availability(self, capsys):
        assert main(self.FAST + ["--mode", "hard", "--fault-plan",
                                 "seed=3;telemetry-drop:rate=0.3"]) == 0
        out = capsys.readouterr().out
        line = next(line for line in out.splitlines()
                    if "controller availability" in line)
        assert line.split()[-1].endswith("%")
        assert line.split()[-1] != "100.00%"


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

    def test_noisy_single_threshold_mode(self, capsys):
        assert main(self.NOISY + ["--mode", "single-threshold"]) == 0
        assert "mode=single-threshold" in capsys.readouterr().out

    def test_noisy_rejects_daemon_fault_kinds(self):
        with pytest.raises(ReproError, match="telemetry-drop"):
            main(self.NOISY + ["--fault-plan",
                               "seed=3;telemetry-drop:rate=0.5"])

    def test_noisy_rejects_the_removed_policy_flags(self):
        with pytest.raises(SystemExit):
            main(self.NOISY + ["--policy", "single-threshold"])
        with pytest.raises(SystemExit):
            main(self.NOISY + ["--mode", "policy"])

    def test_callgraph_checkpoint_disposition(self, tmp_path, capsys):
        assert main(self.CALLGRAPH
                    + ["--checkpoint-dir", str(tmp_path)]) == 0
        assert "0/2 shards restored, 2 computed" in capsys.readouterr().out
        assert main(self.CALLGRAPH + ["--checkpoint-dir", str(tmp_path),
                                      "--resume"]) == 0
        assert "2/2 shards restored, 0 computed" in capsys.readouterr().out

    def test_noisy_baseline_twin_journals_under_the_flag(
            self, tmp_path, monkeypatch, capsys):
        """``--checkpoint-dir`` reaches the ``--baseline`` twin, so the
        flag journals the twin's shards as ``$REPRO_CHECKPOINT`` does."""
        from repro.fleet.queue import CHECKPOINT_ENV_VAR, ShardCheckpoint
        from repro.fleet.result_cache import CACHE_ENV_VAR

        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        monkeypatch.delenv(CHECKPOINT_ENV_VAR, raising=False)
        argv = self.NOISY + ["--shard-size", "2", "--baseline"]
        assert main(argv + ["--checkpoint-dir", str(tmp_path / "flag")]) == 0
        monkeypatch.setenv(CHECKPOINT_ENV_VAR, str(tmp_path / "env"))
        assert main(argv) == 0
        journaled = [len(ShardCheckpoint(tmp_path / name).materials())
                     for name in ("flag", "env")]
        assert journaled == [4, 4]  # two shards each, run and twin



#: One small sharded run per study command that writes a run directory.
OBS_STUDIES = {
    "ablation": ["ablation", "--machines", "6", "--epochs", "6",
                 "--warmup", "2", "--mode", "hard", "--shard-size", "3"],
    "chaos": ["ablation", "--mode", "hard", "--machines", "4", "--epochs",
              "6", "--warmup", "2", "--shard-size", "2", "--fault-plan",
              "seed=2;msr-transient:rate=0.2"],
    "callgraph": TestScenarioCommands.CALLGRAPH,
    "noisy": TestScenarioCommands.NOISY + ["--shard-size", "2",
                                           "--baseline"],
    "noisy-single-threshold": TestScenarioCommands.NOISY + [
        "--shard-size", "2", "--mode", "single-threshold"],
    "rollout": ["rollout", "--machines", "4", "--epochs", "6", "--warmup",
                "2", "--shard-size", "2"],
}


class TestSecondaryLegsStayDark:
    """With ``$REPRO_OBS_DIR`` exported, only the requested run may write
    the run directory: the ``--compare-serial`` oracle legs and the noisy
    ``--baseline`` twin pass ``obs_dir=""``, so the manifest describes
    the run at the requested worker count."""

    @pytest.mark.parametrize("argv", list(OBS_STUDIES.values()),
                             ids=list(OBS_STUDIES))
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


class TestOracleRecomputes:
    """With ``$REPRO_CACHE_DIR`` and ``$REPRO_CHECKPOINT`` exported, the
    ``--compare-serial`` oracle must still recompute: it runs with no
    result cache and no shard journal. The requested run is cold, so any
    cache or journal hit means the oracle replayed it and the check
    compared a result with itself."""

    STUDIES = {**OBS_STUDIES,
               "sweep": ["sweep", "--machines", "6", "--scale", "0.1",
                         "--shard-size", "3"]}

    @pytest.mark.parametrize("argv", list(STUDIES.values()),
                             ids=list(STUDIES))
    def test_oracle_never_hits_a_store(self, argv, tmp_path, monkeypatch,
                                       capsys):
        from repro.fleet.queue import CHECKPOINT_ENV_VAR, ShardCheckpoint
        from repro.fleet.result_cache import CACHE_ENV_VAR, StudyResultCache
        from repro.obs.session import OBS_ENV_VAR

        cache, journal = tmp_path / "cache", tmp_path / "journal"
        monkeypatch.setenv(CACHE_ENV_VAR, str(cache))
        monkeypatch.setenv(CHECKPOINT_ENV_VAR, str(journal))
        monkeypatch.delenv(OBS_ENV_VAR, raising=False)
        assert main(argv + ["--workers", "2", "--compare-serial"]) == 0
        assert "serial-equivalence check: OK" in capsys.readouterr().out
        assert StudyResultCache(cache).stats()["hits"] == 0
        assert ShardCheckpoint(journal).stats()["hits"] == 0


class TestOracleEngine:
    """The trace-driven ``--compare-serial`` legs recompute on the
    reference interpreter, the one engine that shares no code with the
    cache pass and replay; the requested run stays compiled, and the
    environment is restored afterwards."""

    @pytest.mark.parametrize("study, argv", [
        ("repro.fleet.MicroFleetSweep",
         ["sweep", "--machines", "4", "--scale", "0.1"]),
        ("repro.scenarios.CallGraphScenario", TestScenarioCommands.CALLGRAPH),
        ("repro.scenarios.NoisyNeighborScenario", TestScenarioCommands.NOISY),
        ("repro.fleet.AblationStudy",
         ["ablation", "--mode", "hard", "--machines", "4", "--epochs", "3",
          "--warmup", "1"]),
        ("repro.fleet.RolloutStudy",
         ["rollout", "--machines", "4", "--epochs", "3", "--warmup", "1"]),
        ("repro.fleet.AblationStudy",
         ["ablation", "--mode", "hard", "--machines", "4", "--epochs", "3",
          "--warmup", "1", "--fault-plan", "seed=2;machine-crash:rate=0.3"]),
    ], ids=["sweep", "callgraph", "noisy", "ablation", "rollout", "chaos"])
    def test_oracle_runs_the_interpreter(self, study, argv, monkeypatch,
                                         capsys):
        """The oracle recomputes on the reference path: the interpreter
        for trace-driven studies, untaped arms for the fleet studies."""
        import importlib

        from repro.engine import SLOW_ENGINE_ENV, slow_engine_requested

        module, _, name = study.rpartition(".")
        cls = getattr(importlib.import_module(module), name)
        engines = []
        real_run = cls.run

        def recording_run(self, **kwargs):
            engines.append(slow_engine_requested())
            return real_run(self, **kwargs)

        monkeypatch.delenv(SLOW_ENGINE_ENV, raising=False)
        monkeypatch.setattr(cls, "run", recording_run)
        assert main(argv + ["--compare-serial"]) == 0
        assert "serial-equivalence check: OK" in capsys.readouterr().out
        assert engines == [False, True]
        assert SLOW_ENGINE_ENV not in os.environ


class TestParserImportCost:
    """Building the parser must not load the fleet package: commands
    that never touch the fleet (``daemon``, ``latency-curve``,
    ``microbench``) should not pay for importing it."""

    def test_cli_main_leaves_fleet_unloaded(self):
        env = {name: value for name, value in os.environ.items()
               if not name.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__)))
        probe = ("import sys\n"
                 "import repro.cli.main\n"
                 "print('repro.fleet' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False"]


class TestParserLoadsNoSimulator:
    """Building the parser must not load a simulator either: the cache
    simulator is only needed once a trace-driven study (or its
    ``--compare-serial`` oracle) runs, and the fleet model only once a
    fleet study does."""

    def test_cli_main_leaves_simulators_unloaded(self):
        env = {name: value for name, value in os.environ.items()
               if not name.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__)))
        probe = ("import sys\n"
                 "import repro.cli.main\n"
                 "print('repro.memsys.hierarchy' in sys.modules,\n"
                 "      'repro.fleet.cluster' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "False"]
