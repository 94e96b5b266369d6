"""Tests for the Limoncello control daemon."""

import random

import pytest

from repro.core import (
    CallbackActuator,
    LimoncelloConfig,
    LimoncelloDaemon,
    MSRPrefetcherActuator,
    SingleThresholdController,
)
from repro.faults import FaultyTelemetry
from repro.msr import FaultyMSRFile, INTEL_LIKE_MAP, MSRFile
from repro.telemetry import PerfBandwidthSampler, ScriptedBandwidthSource
from repro.units import SECOND


def scripted_daemon(profile, saturation=100.0, sustain=2.0 * SECOND,
                    dropout=0.0, msrs=None, rng=None):
    source = ScriptedBandwidthSource(profile, saturation_bandwidth=saturation)
    sampler = PerfBandwidthSampler(source)
    if dropout:
        sampler = FaultyTelemetry(sampler, rng or random.Random(0),
                                  drop_rate=dropout)
    msrs = msrs if msrs is not None else MSRFile()
    actuator = MSRPrefetcherActuator(msrs, INTEL_LIKE_MAP)
    config = LimoncelloConfig(sustain_duration_ns=sustain)
    return LimoncelloDaemon(sampler, actuator, config), msrs


class TestControlLoop:
    def test_high_load_disables_prefetchers_in_msrs(self):
        daemon, msrs = scripted_daemon([(0.0, 90.0)])
        daemon.run(10 * SECOND)
        assert INTEL_LIKE_MAP.all_disabled(msrs)

    def test_low_load_keeps_prefetchers_enabled(self):
        daemon, msrs = scripted_daemon([(0.0, 30.0)])
        daemon.run(10 * SECOND)
        assert INTEL_LIKE_MAP.all_enabled(msrs)
        assert daemon.report.transitions == 0

    def test_load_cycle_toggles_and_recovers(self):
        profile = [(0.0, 90.0), (10 * SECOND, 40.0)]
        daemon, msrs = scripted_daemon(profile)
        daemon.run(20 * SECOND)
        assert daemon.report.transitions == 2
        assert INTEL_LIKE_MAP.all_enabled(msrs)

    def test_report_series_lengths(self):
        daemon, _ = scripted_daemon([(0.0, 50.0)])
        report = daemon.run(5 * SECOND)
        assert report.samples == 5
        assert len(report.utilization) == 5
        assert len(report.prefetcher_state) == 5

    def test_duty_cycle(self):
        daemon, _ = scripted_daemon([(0.0, 90.0)], sustain=0.0)
        report = daemon.run(10 * SECOND)
        assert report.duty_cycle_disabled() == 1.0

    def test_negative_duration_rejected(self):
        daemon, _ = scripted_daemon([(0.0, 50.0)])
        with pytest.raises(ValueError):
            daemon.run(-1.0)


class TestFaultTolerance:
    def test_telemetry_dropouts_hold_state(self):
        daemon, msrs = scripted_daemon(
            [(0.0, 90.0)], dropout=0.3, rng=random.Random(5))
        report = daemon.run(60 * SECOND)
        assert report.dropouts > 0
        assert report.samples + report.dropouts == 60
        # Despite dropouts, sustained high load still disabled prefetchers.
        assert INTEL_LIKE_MAP.all_disabled(msrs)

    def test_failed_actuation_retried_next_tick(self):
        msrs = FaultyMSRFile(failure_rate=0.7, rng=random.Random(11))
        source = ScriptedBandwidthSource([(0.0, 90.0)],
                                         saturation_bandwidth=100.0)
        actuator = MSRPrefetcherActuator(msrs, INTEL_LIKE_MAP, retries=1)
        daemon = LimoncelloDaemon(
            PerfBandwidthSampler(source), actuator,
            LimoncelloConfig(sustain_duration_ns=0.0))
        daemon.run(30 * SECOND)
        # Eventually converges despite 70% write failure rate.
        assert INTEL_LIKE_MAP.all_disabled(msrs)

    def test_external_msr_perturbation_reconverged(self):
        """If firmware or an operator re-enables prefetchers behind the
        daemon's back, readback detects it and the daemon re-disables."""
        daemon, msrs = scripted_daemon([(0.0, 90.0)], sustain=0.0)
        daemon.step(0.0)
        assert INTEL_LIKE_MAP.all_disabled(msrs)
        INTEL_LIKE_MAP.enable_all(msrs)  # external interference
        daemon.step(1.0 * SECOND)
        assert INTEL_LIKE_MAP.all_disabled(msrs)


class TestCustomController:
    def test_daemon_accepts_alternative_controller(self):
        source = ScriptedBandwidthSource([(0.0, 90.0)],
                                         saturation_bandwidth=100.0)
        actuator = CallbackActuator(lambda e: None)
        daemon = LimoncelloDaemon(
            PerfBandwidthSampler(source), actuator,
            controller=SingleThresholdController(threshold=0.8))
        daemon.step(0.0)
        assert not actuator.is_enabled()
