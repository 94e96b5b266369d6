"""Faulted ablation studies: fail-safe incidents, crash counters, shard
equality, daemon faults on daemonless arms, metric merge algebra, and
serialization."""

import pytest

from repro.analysis.chaos import result_digest
from repro.errors import ConfigError, TraceError
from repro.faults import ChaosMetrics, FaultPlan
from repro.fleet import AblationResult, AblationStudy
from repro.serialization import (
    ablation_result_to_dict,
    chaos_metrics_from_dict,
    chaos_metrics_to_dict,
)
from repro.units import SECOND


def faulted_run(spec, mode="hard", workers=None, **kwargs):
    """A small faulted ablation, run; ``config`` defaults to the stock
    daemon configuration."""
    kwargs.setdefault("machines", 4)
    kwargs.setdefault("epochs", 30)
    kwargs.setdefault("warmup_epochs", 5)
    kwargs.setdefault("seed", 11)
    study = AblationStudy(mode=mode, fault_plan=FaultPlan.parse(spec),
                          **kwargs)
    return study.run(workers=workers, cache_dir="", checkpoint_dir="",
                     obs_dir="")


class TestChaosStudy:
    def test_blackout_triggers_failsafe_incident(self, hardened_config):
        """A telemetry blackout engages the hardened config's fail-safe
        no earlier than its deadline, and the incident lands in the
        merged chaos metrics."""
        chaos = faulted_run("seed=7;telemetry-blackout:start=120,duration=60",
                            config=hardened_config).chaos
        assert chaos.failsafe_engagements > 0
        assert chaos.incident_kinds.get("telemetry-blackout", 0) > 0
        assert chaos.recovered_incidents > 0
        # Detection happens at the fail-safe deadline, not before.
        deadline = hardened_config.telemetry_failsafe_deadline_ns
        blackout_count = chaos.incident_kinds["telemetry-blackout"]
        assert chaos.detection_latency_ns >= blackout_count * deadline
        assert chaos.mean_time_to_recovery_ns() is not None
        assert 0.0 < chaos.availability() < 1.0

    def test_machine_crashes_recorded(self, hardened_config):
        chaos = faulted_run(
            "seed=3;machine-crash:rate=0.05,outage=1,restart=enabled",
            config=hardened_config).chaos
        assert chaos.machine_crashes > 0
        assert chaos.machine_restarts > 0
        assert chaos.down_ticks > 0
        assert chaos.availability() < 1.0

    def test_serial_and_sharded_runs_are_bit_identical(self, hardened_config):
        spec = ("seed=5;telemetry-drop:rate=0.1;msr-transient:rate=0.2;"
                "machine-crash:rate=0.03,outage=1")
        serial = faulted_run(spec, shard_size=2, workers=1,
                             config=hardened_config)
        sharded = faulted_run(spec, shard_size=2, workers=2,
                              config=hardened_config)
        assert result_digest(serial) == result_digest(sharded)

    def test_baseline_is_fault_free(self, hardened_config):
        """A rate-zero clause injects nothing but still collects chaos
        metrics, so it serves as the fault-free baseline of a plan."""
        inert = faulted_run("seed=9;telemetry-drop:rate=0",
                            config=hardened_config).chaos
        assert inert is not None
        assert inert.dropouts == 0
        assert inert.incidents == 0
        assert inert.availability() == 1.0
        faulted = faulted_run("seed=9;telemetry-drop:rate=0.3",
                              config=hardened_config).chaos
        assert faulted.dropouts > 0


class TestDaemonlessArms:
    """Telemetry and MSR faults act on the daemons; an arm that runs
    none would inject nothing and report 100% availability."""

    @pytest.mark.parametrize("mode", ["off", "soft-only", "control"])
    @pytest.mark.parametrize("spec", ["seed=3;telemetry-drop:rate=0.3",
                                      "msr-transient:rate=0.2"])
    def test_daemon_faults_need_a_daemon_running_mode(self, mode, spec):
        with pytest.raises(ConfigError, match="daemon-running mode"):
            AblationStudy(mode=mode, machines=2, epochs=2, warmup_epochs=0,
                          fault_plan=FaultPlan.parse(spec))

    def test_machine_crash_runs_without_daemons(self):
        chaos = faulted_run("seed=2;machine-crash:rate=0.3", mode="off",
                            epochs=6, warmup_epochs=1).chaos
        assert chaos.machine_crashes > 0
        assert chaos.ticks == chaos.down_ticks == 0


def metrics(**kwargs):
    m = ChaosMetrics()
    for key, value in kwargs.items():
        setattr(m, key, value)
    return m


class TestChaosMetricsMerge:
    def test_merge_is_additive(self):
        a = metrics(ticks=10, available_ticks=8, dropouts=2, incidents=1,
                    incident_kinds={"telemetry-blackout": 1})
        b = metrics(ticks=5, available_ticks=5, incidents=2,
                    incident_kinds={"telemetry-blackout": 1,
                                    "machine-restart": 1})
        a.merge(b)
        assert a.ticks == 15
        assert a.available_ticks == 13
        assert a.dropouts == 2
        assert a.incidents == 3
        assert a.incident_kinds == {"telemetry-blackout": 2,
                                    "machine-restart": 1}

    def test_merge_is_associative(self):
        def fresh():
            return (metrics(ticks=3, down_ticks=1, recovery_time_ns=2.0,
                            recovered_incidents=1),
                    metrics(ticks=7, failsafe_engagements=2),
                    metrics(ticks=2, machine_crashes=1,
                            incident_kinds={"machine-restart": 1}))

        a, b, c = fresh()
        left = ChaosMetrics()
        left.merge(a)
        left.merge(b)
        left.merge(c)

        a, b, c = fresh()
        b.merge(c)
        right = ChaosMetrics()
        right.merge(a)
        right.merge(b)
        assert chaos_metrics_to_dict(left) == chaos_metrics_to_dict(right)

    def test_availability_and_mttr(self):
        m = metrics(ticks=90, available_ticks=90, down_ticks=10,
                    recovery_time_ns=60.0 * SECOND, recovered_incidents=3)
        assert m.availability() == pytest.approx(0.9)
        assert m.mean_time_to_recovery_ns() == pytest.approx(20.0 * SECOND)
        empty = ChaosMetrics()
        assert empty.availability() == 1.0
        assert empty.mean_time_to_recovery_ns() is None


class TestChaosSerialization:
    def test_roundtrip(self):
        m = metrics(ticks=20, available_ticks=18, dropouts=2,
                    invalid_samples=1, incidents=2, recovered_incidents=1,
                    detection_latency_ns=3.0 * SECOND,
                    recovery_time_ns=9.0 * SECOND,
                    failsafe_engagements=1, machine_crashes=1,
                    machine_restarts=1, down_ticks=4,
                    incident_kinds={"telemetry-blackout": 2})
        restored = chaos_metrics_from_dict(chaos_metrics_to_dict(m))
        assert chaos_metrics_to_dict(restored) == chaos_metrics_to_dict(m)

    def test_malformed_payload_rejected(self):
        with pytest.raises(TraceError):
            chaos_metrics_from_dict({"ticks": "many"})
        with pytest.raises(TraceError):
            chaos_metrics_from_dict([1, 2, 3])

    def test_ablation_result_roundtrip_with_chaos(self, hardened_config):
        result = faulted_run("seed=2;telemetry-drop:rate=0.2",
                             config=hardened_config)
        payload = result.to_dict()
        assert "chaos" in payload
        assert "chaos" in ablation_result_to_dict(result)
        restored = AblationResult.from_dict(payload)
        assert result_digest(restored) == result_digest(result)

    def test_ablation_result_roundtrip_without_chaos(self, hardened_config):
        result = faulted_run("seed=2;telemetry-drop:rate=0.2",
                             config=hardened_config)
        payload = result.to_dict()
        del payload["chaos"]
        restored = AblationResult.from_dict(payload)
        assert restored.chaos is None
