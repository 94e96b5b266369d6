"""Tests of the end-to-end benchmark harness itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``. The smoke
tests drive ``run.py --quick`` (reduced sizes, one round) through the
same code path as a full run.
"""

import dataclasses
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import compare
import run
import spans
import worker
from compare import describe, spread, verdict
from spans import LAYERS, Recorder, layer_table, self_times

E2E_DIR = pathlib.Path(__file__).resolve().parent
ROOT_INDEX = LAYERS.index("study")


def _span(layer, start, end, parent, run_index=0):
    return (LAYERS.index(layer), start, end, parent, run_index)


# --- self time ------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    synthetic = [
        _span("study", 0.0, 10.0, -1),             # 0
        _span("fleet.cluster", 1.0, 9.0, 0),       # 1
        _span("fleet.machine", 2.0, 6.0, 1),       # 2
        _span("fleet.socket", 2.5, 5.5, 2),        # 3
        _span("fleet.machine", 6.0, 8.0, 1),       # 4
    ]
    assert self_times(synthetic) == pytest.approx([2.0, 2.0, 1.0, 3.0, 2.0])


def test_layer_table_sums_per_run_and_takes_medians():
    synthetic = []
    for run_index, socket in enumerate((3.0, 5.0, 4.0)):
        base = len(synthetic)
        synthetic.append(_span("study", 0.0, 10.0, -1, run_index))
        synthetic.append(_span("fleet.socket", 0.0, socket, base, run_index))
        synthetic.append(_span("fleet.socket", 5.0, 6.0, base, run_index))
    table = layer_table(synthetic)
    assert table["fleet.socket"]["calls"] == 2
    assert table["fleet.socket"]["self_s"] == pytest.approx(5.0)
    assert table["fleet.socket"]["share"] == pytest.approx(0.5)
    assert table["study"]["self_s"] == pytest.approx(5.0)
    assert table["memsys.lockstep"] == {"self_s": 0.0, "calls": 0,
                                        "share": 0.0}


def test_same_layer_nesting_counts_each_call_once_in_time():
    synthetic = [_span("study", 0.0, 4.0, -1),
                 _span("merge", 0.0, 3.0, 0),
                 _span("merge", 1.0, 2.0, 1)]
    table = layer_table(synthetic)
    assert table["merge"]["self_s"] == pytest.approx(3.0)
    assert table["merge"]["calls"] == 2


# --- recorder ---------------------------------------------------------------------

def test_recorder_restores_attributes_and_keeps_staticmethods():
    from repro.fleet.scheduler import BandwidthAwareScheduler
    from repro.memsys import batched

    before_drain = vars(BandwidthAwareScheduler)["drain"]
    before_lockstep = batched.run_lockstep
    recorder = Recorder()
    with recorder.recording(0):
        assert isinstance(vars(BandwidthAwareScheduler)["drain"],
                          staticmethod)
        assert batched.run_lockstep is not before_lockstep
    assert vars(BandwidthAwareScheduler)["drain"] is before_drain
    assert batched.run_lockstep is before_lockstep


def test_recorder_spans_nest_and_count():
    from repro.core.controller import HardLimoncelloController

    recorder = Recorder()
    with recorder.recording(0):
        controller = HardLimoncelloController()
        controller.observe(0.0, 0.1)
    root, (layer, _, _, parent, _) = recorder.spans
    assert root[0] == ROOT_INDEX and root[3] == -1
    assert LAYERS[layer] == "core.controller" and parent == 0
    assert recorder.counts[0]["core.controller.flips"] == 0


def test_recorder_rejects_inherited_targets():
    probe = spans.Probe("repro.fleet.queue:ShardCheckpoint.load",
                        "fleet.queue")
    with pytest.raises(LookupError):
        with Recorder(probes=(probe,)).recording(0):
            pass


# --- statistics and verdicts ------------------------------------------------------

def test_describe_matches_statistics_quantiles():
    stats = describe([1.0, 2.0, 3.0, 4.0, 5.0])
    assert stats["median"] == 3.0
    assert (stats["q1"], stats["q3"]) == (1.5, 4.5)
    assert spread(stats) == pytest.approx(1.0)
    single = describe([7.0])
    assert single["q1"] == single["q3"] == single["median"] == 7.0


def _flat(value, n=9, jitter=0.01):
    return describe([value * (1 + jitter * (i - n // 2) / n)
                     for i in range(n)])


@pytest.mark.parametrize("a, b, better, expected", [
    (1.0, 1.2, "lower", "regressed"),
    (1.0, 0.8, "lower", "improved"),
    (1.0, 1.05, "lower", "unchanged"),
    (1.0, 0.8, "higher", "regressed"),
    (1.0, 1.2, "higher", "improved"),
])
def test_verdicts(a, b, better, expected):
    assert verdict(_flat(a), _flat(b), 0.1, better) == expected


def test_wide_spread_is_unresolved():
    wide = describe([0.5, 1.0, 1.5, 2.0])
    assert verdict(_flat(1.0), wide, 0.1, "lower") == "unresolved"


def test_host_drift_is_unresolved():
    assert verdict(_flat(1.0), _flat(1.5), 0.1, "lower",
                   calibration_drift=0.2) == "unresolved"


def test_wide_spread_but_every_run_better_is_improved():
    old = describe([1.0, 1.5, 2.0, 2.5])
    new = describe([0.2, 0.3, 0.4, 0.5])
    assert verdict(old, new, 0.1, "lower") == "improved"


def test_zero_bound_metric_regresses_on_any_increase():
    assert verdict(describe([0.0]), describe([0.1]), 0.0,
                   "lower") == "regressed"
    assert verdict(describe([0.0]), describe([0.0]), 0.0,
                   "lower") == "unchanged"


def _summary(study_s, cal=0.1, rss=50.0):
    return {"host_cal_s": cal, "workloads": {"w": {"metrics": {
        "study_s": {**_flat(study_s), "unit": "s", "better": "lower",
                    "bound": 0.1, "host_time": True},
        "peak_rss_mb": {**describe([rss]), "unit": "MB", "better": "lower",
                        "bound": 0.1, "host_time": False}}}}}


def test_host_drift_spares_memory_metrics():
    rows = compare.compare(_summary(1.0), _summary(1.0, cal=0.2))
    assert {row["metric"]: row["verdict"] for row in rows} == {
        "study_s": "unresolved", "peak_rss_mb": "unchanged"}


def test_compare_exit_codes(tmp_path):
    base, slow = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(_summary(1.0)))
    slow.write_text(json.dumps(_summary(1.5)))
    assert compare.main([str(base), str(base)]) == compare.EXIT_OK
    assert compare.main([str(base), str(slow)]) == compare.EXIT_REGRESSION
    assert compare.main([str(base), str(tmp_path / "missing.json")]) \
        == compare.EXIT_MISSING


# --- worker ---------------------------------------------------------------------------

def test_worker_env_clears_every_repro_variable(monkeypatch):
    for name in ("CACHE_DIR", "WORKERS", "BATCH", "SLOW_ENGINE",
                 "SLOW_BUILDER", "SLOW_INJECTOR", "TRACE_MEMO", "CHECKPOINT",
                 "OBS_DIR", "FAULT_PLAN", "QUEUE_ABORT_AFTER"):
        monkeypatch.setenv(f"REPRO_{name}", "junk")
    env = run.worker_env()
    assert {key for key in env if key.startswith("REPRO_")} == {
        "REPRO_WORKERS"}
    assert env["REPRO_WORKERS"] == "1"
    assert env["OMP_NUM_THREADS"] == env["OPENBLAS_NUM_THREADS"] \
        == env["MKL_NUM_THREADS"] == "1"
    assert env["PYTHONPATH"].split(os.pathsep)[0] == str(run.ROOT / "src")


def test_worker_rejects_a_wrong_digest():
    quick = worker.WorkloadWorker("noisy-hard", quick=True)
    quick.size = dataclasses.replace(quick.size, digest="0" * 64)
    with pytest.raises(worker.Mismatch):
        quick.run()


def test_silent_expected_layer_fails_loudly():
    quick = worker.WorkloadWorker("fleet-rollout", quick=True)
    quick.run(traced=True)
    assert quick.layers()["metrics"]["fleet.machine_epochs"] == 128
    quick.workload = dataclasses.replace(
        quick.workload, layers=quick.workload.layers + ("memsys.lockstep",))
    with pytest.raises(RuntimeError, match="memsys.lockstep"):
        quick.layers()


# --- smoke ----------------------------------------------------------------------------

def _run(*args):
    return subprocess.run([sys.executable, str(E2E_DIR / "run.py"), *args],
                          capture_output=True, text=True, timeout=300)


def test_quick_full_run(tmp_path):
    out = tmp_path / "summary.json"
    done = _run("--quick", "--seed", "3", "--out", str(out))
    assert done.returncode == 0, done.stderr
    summary = json.loads(out.read_text())
    assert set(summary["workloads"]) == set(run.WORKLOADS)
    for entry in summary["workloads"].values():
        assert entry["metrics"]["error_rate"]["median"] == 0, entry["errors"]
        assert entry["holdout_digest"]
        assert entry["per_layer"]["coverage"] > 0.5
    assert compare.main([str(out), str(out)]) == compare.EXIT_OK


@pytest.mark.parametrize("workload, trace, kind", [
    ("sweep-control", "0", "end_to_end"),
    ("ablation-journaled", "1", "per_layer"),
])
def test_quick_single_workload_prints_contract_line(workload, trace, kind):
    done = _run("--workload", workload, "--quick", "--seed", "4",
                "--seconds", "0", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in spec[kind]]
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "checkout"
    shutil.copytree(E2E_DIR, bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "noisy-hard",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
