"""Failure injection: Limoncello must stay safe when the environment
misbehaves — dropped telemetry, flaky MSR writes, perturbed state.

The deployed system runs on tens of thousands of machines; partial
failure is the steady state, not the exception.
"""

import random

from repro.core import (
    LimoncelloConfig,
    LimoncelloDaemon,
    MSRPrefetcherActuator,
)
from repro.errors import TelemetryError
from repro.faults import FaultPlan, FaultyTelemetry
from repro.fleet import Fleet
from repro.msr import FaultyMSRFile, INTEL_LIKE_MAP
from repro.telemetry import PerfBandwidthSampler, ScriptedBandwidthSource
from repro.units import SECOND


class TestTelemetryDropouts:
    def test_fleet_with_dropouts_still_controls_prefetchers(self):
        """30% sample loss: the fleet's daemons still disable prefetchers
        on hot sockets and the run completes."""
        fleet = Fleet(machines=8, seed=3,
                      fault_plan=FaultPlan.parse("telemetry-drop:rate=0.3"))
        fleet.deploy_hard_limoncello()
        fleet.run(60)
        toggled = sum(socket.toggles for machine in fleet.machines
                      for socket in machine.sockets)
        dropouts = sum(d.report.dropouts for machine in fleet.machines
                       for d in machine.daemons)
        assert dropouts > 0
        assert toggled > 0

    def test_dropout_never_flips_state_by_itself(self):
        """A dropped sample leaves the actuated state untouched."""
        source = ScriptedBandwidthSource([(0.0, 90.0)],
                                         saturation_bandwidth=100.0)
        sampler = FaultyTelemetry(PerfBandwidthSampler(source),
                                  random.Random(1), drop_rate=0.999)
        msrs = FaultyMSRFile(failure_rate=0.0)
        daemon = LimoncelloDaemon(
            sampler, MSRPrefetcherActuator(msrs, INTEL_LIKE_MAP),
            LimoncelloConfig(sustain_duration_ns=0.0))
        for tick in range(50):
            daemon.step(tick * SECOND)
        # Nearly every sample dropped: either never actuated, or actuated
        # on the rare good sample — but dropouts themselves change nothing.
        assert daemon.report.dropouts >= 45
        assert (daemon.report.actuation_attempts
                <= daemon.report.samples)

    def test_total_telemetry_loss_is_inert(self):
        source = ScriptedBandwidthSource([(0.0, 90.0)],
                                         saturation_bandwidth=100.0)

        class DeadSampler:
            def sample(self, now_ns):
                raise TelemetryError("telemetry plane down")

        msrs = FaultyMSRFile(failure_rate=0.0)
        actuator = MSRPrefetcherActuator(msrs, INTEL_LIKE_MAP)
        daemon = LimoncelloDaemon(DeadSampler(), actuator)
        report = daemon.run(30 * SECOND)
        assert report.samples == 0
        assert report.dropouts == 30
        assert INTEL_LIKE_MAP.all_enabled(msrs)  # fail-safe: hardware default


class TestMSRFaults:
    def test_fleet_survives_flaky_wrmsr(self):
        """Transient wrmsr failures delay, but do not prevent, control."""
        fleet = Fleet(machines=6, seed=3)
        # Replace every socket's MSR file with a faulty one before the
        # daemons bind to it.
        for machine in fleet.machines:
            for socket in machine.sockets:
                faulty = FaultyMSRFile(failure_rate=0.4,
                                       rng=random.Random(socket.index))
                socket.msr_map.declare_registers(faulty)
                socket.msrs = faulty
        fleet.deploy_hard_limoncello()
        fleet.run(60)
        failures = sum(d.report.actuation_failures
                       for machine in fleet.machines
                       for d in machine.daemons)
        toggles = sum(socket.toggles for machine in fleet.machines
                      for socket in machine.sockets)
        assert toggles > 0, "control still effective despite faults"

    def test_daemon_reports_give_operators_visibility(self):
        source = ScriptedBandwidthSource([(0.0, 90.0)],
                                         saturation_bandwidth=100.0)
        msrs = FaultyMSRFile(failure_rate=0.9, rng=random.Random(3))
        daemon = LimoncelloDaemon(
            PerfBandwidthSampler(source),
            MSRPrefetcherActuator(msrs, INTEL_LIKE_MAP, retries=1),
            LimoncelloConfig(sustain_duration_ns=0.0))
        daemon.run(40 * SECOND)
        report = daemon.report
        # Failures are counted, not silently swallowed.
        assert report.actuation_failures > 0
        assert report.actuation_attempts >= report.actuation_failures


class TestStalenessAndPerturbation:
    def test_daemon_reconverges_after_operator_interference(self):
        """An operator re-enabling prefetchers mid-flight is detected by
        readback on the next tick and reverted while load stays high."""
        source = ScriptedBandwidthSource([(0.0, 95.0)],
                                         saturation_bandwidth=100.0)
        from repro.msr import MSRFile
        msrs = MSRFile()
        actuator = MSRPrefetcherActuator(msrs, INTEL_LIKE_MAP)
        daemon = LimoncelloDaemon(
            PerfBandwidthSampler(source), actuator,
            LimoncelloConfig(sustain_duration_ns=0.0))
        daemon.step(0.0)
        assert INTEL_LIKE_MAP.all_disabled(msrs)
        for tick in range(1, 20):
            if tick % 3 == 0:
                INTEL_LIKE_MAP.enable_all(msrs)  # interference
            daemon.step(tick * SECOND)
            assert INTEL_LIKE_MAP.all_disabled(msrs)

    def test_controller_survives_absurd_utilization_values(self):
        from repro.core import HardLimoncelloController
        controller = HardLimoncelloController()
        for tick, value in enumerate((0.0, 1e9, -5.0, float(10 ** 6), 0.7)):
            decision = controller.observe(tick * SECOND, value)
            assert decision.state is not None
