"""Tests for repro.telemetry.sampler."""

import random

import pytest

from repro.errors import ConfigError, TelemetryError
from repro.faults import FaultPlan, FaultyTelemetry
from repro.telemetry import PerfBandwidthSampler, ScriptedBandwidthSource


class TestScriptedSource:
    def test_step_hold(self):
        source = ScriptedBandwidthSource(
            [(0.0, 10.0), (100.0, 50.0)], saturation_bandwidth=100.0)
        assert source.memory_bandwidth(0.0) == 10.0
        assert source.memory_bandwidth(99.0) == 10.0
        assert source.memory_bandwidth(100.0) == 50.0
        assert source.memory_bandwidth(1e9) == 50.0

    def test_before_first_breakpoint_holds_first(self):
        source = ScriptedBandwidthSource([(10.0, 5.0)], saturation_bandwidth=10.0)
        assert source.memory_bandwidth(0.0) == 5.0

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            ScriptedBandwidthSource([], saturation_bandwidth=10.0)

    def test_bad_saturation_rejected(self):
        with pytest.raises(ValueError):
            ScriptedBandwidthSource([(0.0, 1.0)], saturation_bandwidth=0.0)


class TestPerfSampler:
    def test_sample_utilization(self):
        source = ScriptedBandwidthSource([(0.0, 60.0)], saturation_bandwidth=100.0)
        sampler = PerfBandwidthSampler(source)
        sample = sampler.sample(5.0)
        assert sample.time_ns == 5.0
        assert sample.bandwidth == 60.0
        assert sample.utilization == pytest.approx(0.6)
        assert sampler.samples_taken == 1

    def test_dropouts_raise(self):
        source = ScriptedBandwidthSource([(0.0, 60.0)], saturation_bandwidth=100.0)
        inner = PerfBandwidthSampler(source)
        sampler = FaultyTelemetry(inner, random.Random(1), drop_rate=0.5)
        outcomes = []
        for t in range(200):
            try:
                sampler.sample(float(t))
                outcomes.append(True)
            except TelemetryError:
                outcomes.append(False)
        dropped = outcomes.count(False)
        assert 60 < dropped < 140  # roughly half
        assert sampler.dropped == dropped
        assert inner.samples_taken == 200 - dropped

    def test_bad_dropout_rate(self):
        with pytest.raises(ConfigError):
            FaultPlan.parse("telemetry-drop:rate=1.0")
