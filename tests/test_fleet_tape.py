"""The driver tape: sibling arms replay the first arm's fleet driver.

The oracle is the reference path (``reference_engine()``), where every
arm drives itself. Taped and untaped runs must agree to the bit: result
digests, event logs and every socket epoch.
"""

import gc
import random
import weakref
from array import array

import pytest

from repro.analysis.chaos import result_digest
from repro.core.controller import SingleThresholdController
from repro.engine import reference_engine
from repro.errors import ConfigError, ReproError
from repro.faults.plan import FaultPlan
from repro.fleet import AblationStudy, Fleet, RolloutStudy, rollout_digest
from repro.fleet.platform import PLATFORM_1
from repro.fleet.scheduler import BandwidthAwareScheduler
from repro.fleet.socket import SimulatedSocket
from repro.fleet.tape import DriverTape, new_tape
from repro.fleet.task import sample_task

SMALL = dict(machines=6, epochs=8, warmup_epochs=3)
SERIAL = dict(workers=1, cache_dir="", checkpoint_dir="", obs_dir="")
FAULTS = "seed=4;machine-crash:rate=0.1,outage=2;msr-transient:rate=0.3"
#: ``FAULTS`` plus a blackout long enough to engage the hardened
#: config's telemetry fail-safe.
BLACKOUT_FAULTS = FAULTS + ";telemetry-blackout:start=30,duration=60"
HARDENED = dict(machines=6, epochs=12, warmup_epochs=3)


def taped_and_reference(study_factory, digest, **run):
    """The study's digest on the taped path and on the reference path."""
    run = {**SERIAL, **run}
    taped = digest(study_factory().run(**run))
    with reference_engine():
        reference = digest(study_factory().run(**run))
    return taped, reference


class TestStudiesMatchTheReferencePath:
    @pytest.mark.parametrize("shard_size", [32, 3])
    def test_rollout(self, shard_size):
        taped, reference = taped_and_reference(
            lambda: RolloutStudy(seed=5, shard_size=shard_size, **SMALL), rollout_digest
        )
        assert taped == reference

    def test_faulted_rollout(self):
        plan = FaultPlan.parse(FAULTS)
        taped, reference = taped_and_reference(
            lambda: RolloutStudy(seed=5, fault_plan=plan, **SMALL), rollout_digest
        )
        assert taped == reference

    @pytest.mark.parametrize("mode", ["control", "off", "hard", "hard+soft", "soft-only"])
    def test_ablation_modes(self, mode):
        taped, reference = taped_and_reference(
            lambda: AblationStudy(mode=mode, seed=11, **SMALL), result_digest
        )
        assert taped == reference

    def test_faulted_sharded_ablation(self):
        plan = FaultPlan.parse(FAULTS)
        taped, reference = taped_and_reference(
            lambda: AblationStudy(mode="hard", seed=11, shard_size=3, fault_plan=plan, **SMALL),
            result_digest,
        )
        assert taped == reference

    def test_faulted_sharded_ablation_hardened(self, hardened_config):
        """The fail-safe and retry backoff change what the experiment
        arm does, so the hardened config is checked on its own."""
        plan = FaultPlan.parse(BLACKOUT_FAULTS)

        def factory():
            return AblationStudy(
                mode="hard",
                seed=11,
                shard_size=3,
                fault_plan=plan,
                config=hardened_config,
                **HARDENED,
            )

        result = factory().run(**SERIAL)
        assert result.chaos.failsafe_engagements > 0
        with reference_engine():
            reference = factory().run(**SERIAL)
        assert result_digest(result) == result_digest(reference)

    def test_ablation_on_another_platform(self):
        taped, reference = taped_and_reference(
            lambda: AblationStudy(mode="hard", seed=11, platform="gen-2014", **SMALL),
            result_digest,
        )
        assert taped == reference

    @pytest.mark.parametrize("study", ["ablation", "rollout"])
    def test_event_logs_are_byte_identical(self, study, tmp_path):
        def factory():
            if study == "ablation":
                return AblationStudy(
                    mode="hard", seed=11, fault_plan=FaultPlan.parse(FAULTS), **SMALL
                )
            return RolloutStudy(seed=5, **SMALL)

        factory().run(**{**SERIAL, "obs_dir": str(tmp_path / "taped")})
        with reference_engine():
            factory().run(**{**SERIAL, "obs_dir": str(tmp_path / "reference")})
        taped = (tmp_path / "taped" / "events.jsonl").read_bytes()
        assert taped
        assert taped == (tmp_path / "reference" / "events.jsonl").read_bytes()

    def test_hardened_event_logs_are_byte_identical(self, hardened_config, tmp_path):
        def factory():
            return AblationStudy(
                mode="hard",
                seed=11,
                fault_plan=FaultPlan.parse(BLACKOUT_FAULTS),
                config=hardened_config,
                **HARDENED,
            )

        factory().run(**{**SERIAL, "obs_dir": str(tmp_path / "taped")})
        with reference_engine():
            factory().run(**{**SERIAL, "obs_dir": str(tmp_path / "reference")})
        taped = (tmp_path / "taped" / "events.jsonl").read_bytes()
        assert b'"failsafe-engaged"' in taped
        assert taped == (tmp_path / "reference" / "events.jsonl").read_bytes()


def paired_fleets(taped, controller_factory=None, **fleet_kwargs):
    """A control fleet and a Hard Limoncello fleet from one seed, run
    12 epochs each; the experiment replays the control's tape when
    ``taped``, and its daemons run ``controller_factory``'s controllers
    when one is given."""
    control, experiment = (Fleet(machines=4, seed=3, **fleet_kwargs) for _ in range(2))
    if taped:
        tape = DriverTape()
        control.use_tape(tape)
        experiment.use_tape(tape, replay=True)
    experiment.deploy_hard_limoncello(controller_factory=controller_factory)
    return control, experiment, [fleet.run(12) for fleet in (control, experiment)]


class TestFleetReplay:
    def test_telemetry_dropout(self):
        plan = FaultPlan.parse("telemetry-drop:rate=0.3")
        _, experiment, taped = paired_fleets(True, fault_plan=plan)
        *_, reference = paired_fleets(False, fault_plan=plan)
        assert taped == reference
        daemons = [daemon for machine in experiment.machines for daemon in machine.daemons]
        assert sum(daemon.report.dropouts for daemon in daemons) > 0

    def test_a_non_stock_controller(self):
        factory = lambda ident: SingleThresholdController(threshold=0.6)
        _, experiment, taped = paired_fleets(True, factory)
        *_, reference = paired_fleets(False, factory)
        assert taped == reference
        sockets = [socket for machine in experiment.machines for socket in machine.sockets]
        assert sum(socket.toggles for socket in sockets) > 0

    def test_replay_draws_nothing_from_the_fleet_rng(self):
        control, experiment, _ = paired_fleets(True)
        assert Fleet(machines=4, seed=3).rng.getstate() == experiment.rng.getstate()
        assert control.rng.getstate() != experiment.rng.getstate()
        assert experiment.scheduler.rejections == control.scheduler.rejections
        assert experiment.scheduler.placements == control.scheduler.placements

    def test_socket_histories_match(self):
        _, taped, _ = paired_fleets(True)
        _, reference, _ = paired_fleets(False)
        for mine, theirs in zip(taped.machines, reference.machines):
            for socket, other in zip(mine.sockets, theirs.sockets):
                assert socket.history == other.history
                assert socket.toggles == other.toggles

    def test_a_prefetch_aware_scheduler_cannot_use_a_tape(self):
        fleet = Fleet(machines=2, scheduler=BandwidthAwareScheduler(prefetch_aware=True))
        with pytest.raises(ConfigError):
            fleet.use_tape(DriverTape())

    def test_a_tape_starts_with_the_first_epoch(self):
        fleet = Fleet(machines=2)
        fleet.run(1)
        with pytest.raises(ConfigError):
            fleet.use_tape(DriverTape(), replay=True)

    def test_a_replay_out_of_step_with_its_recording_fails(self):
        """A replaying machine that chaos takes down while the recorder's
        ran (or the reverse) cannot use the recorded draws."""
        tape = DriverTape()
        recorder = Fleet(machines=4, seed=3)
        recorder.use_tape(tape)
        recorder.run(6)
        crashing = Fleet(
            machines=4, seed=3, fault_plan=FaultPlan.parse("seed=1;machine-crash:rate=0.9")
        )
        crashing.use_tape(tape, replay=True)
        with pytest.raises(ReproError, match="out of step"):
            crashing.run(6)

    def test_the_reference_path_has_no_tape(self):
        assert isinstance(new_tape(), DriverTape)
        with reference_engine():
            assert new_tape() is None


def recorded_solve(hw_on=True, load=0.4):
    """A socket with three tasks; returns ``(its tasks, a solve log with
    one recorded solve)`` from start load ``load``."""
    rng = random.Random(8)
    recorder = SimulatedSocket(PLATFORM_1)
    for _ in range(3):
        recorder.add_task(sample_task(rng))
    recorder.force_prefetchers(hw_on)
    recorder._last_utilization = load
    solves = array("d")
    recorder.step(0.0, demand_factor=1.3, solves=solves)
    return recorder.tasks, solves


def replaying_socket(tasks, hw_on=True, load=0.4):
    socket = SimulatedSocket(PLATFORM_1)
    for task in tasks:
        socket.add_task(task)
    socket.force_prefetchers(hw_on)
    socket._last_utilization = load
    return socket


#: Written over a recorded solve, so a reuse shows in the epoch.
POISON = 1234.5


class TestSolveReuse:
    def poisoned(self, solves):
        solves[1] = solves[2] = solves[3] = POISON
        return solves

    def test_reused_when_inputs_match(self):
        tasks, solves = recorded_solve()
        socket = replaying_socket(tasks)
        epoch = socket.step(0.0, demand_factor=1.3, solves=self.poisoned(solves), at=0)
        assert epoch.latency_ns == epoch.qps == POISON

    def test_recorded_solve_equals_a_fresh_one(self):
        tasks, solves = recorded_solve()
        fresh = replaying_socket(tasks).step(0.0, demand_factor=1.3)
        replayed = replaying_socket(tasks).step(0.0, demand_factor=1.3, solves=solves, at=0)
        assert replayed == fresh

    def test_not_reused_with_prefetchers_off(self):
        tasks, solves = recorded_solve()
        fresh = replaying_socket(tasks, hw_on=False).step(0.0, demand_factor=1.3)
        socket = replaying_socket(tasks, hw_on=False)
        epoch = socket.step(0.0, demand_factor=1.3, solves=self.poisoned(solves), at=0)
        assert epoch == fresh

    def test_not_reused_from_another_start_load(self):
        tasks, solves = recorded_solve(load=0.4)
        fresh = replaying_socket(tasks, load=0.41).step(0.0, demand_factor=1.3)
        socket = replaying_socket(tasks, load=0.41)
        epoch = socket.step(0.0, demand_factor=1.3, solves=self.poisoned(solves), at=0)
        assert epoch == fresh

    def test_not_reused_when_the_recorder_ran_prefetchers_off(self):
        tasks, solves = recorded_solve(hw_on=False)
        assert solves[0] != solves[0]  # NaN start load
        fresh = replaying_socket(tasks).step(0.0, demand_factor=1.3)
        socket = replaying_socket(tasks)
        epoch = socket.step(0.0, demand_factor=1.3, solves=self.poisoned(solves), at=0)
        assert epoch == fresh

    def test_nan_start_load_never_matches(self):
        tasks, solves = recorded_solve()
        solves[0] = float("nan")
        socket = replaying_socket(tasks, load=float("nan"))
        epoch = socket.step(0.0, demand_factor=1.3, solves=self.poisoned(solves), at=0)
        assert epoch.latency_ns != POISON


class TestReclamation:
    def test_a_taped_fleet_is_freed_without_the_cycle_collector(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            control, experiment, _ = paired_fleets(True)
            tape = control._tape
            refs = [weakref.ref(obj) for obj in (control, experiment, tape)]
            del control, experiment, tape
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("faults", [None, FAULTS])
    def test_each_rollout_arm_frees_its_fleet_before_the_next_starts(self, monkeypatch, faults):
        """Refcounting alone frees an arm's fleet when the arm ends, so a
        serial rollout never holds two arms' fleets at once."""
        build = RolloutStudy._build
        refs = []
        alive = []

        def tracked(study, *args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            fleet = build(study, *args, **kwargs)
            refs.append(weakref.ref(fleet))
            return fleet

        monkeypatch.setattr(RolloutStudy, "_build", tracked)
        plan = FaultPlan.parse(faults) if faults else None
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            result = RolloutStudy(seed=5, fault_plan=plan, **SMALL).run(**SERIAL)
        finally:
            if was_enabled:
                gc.enable()
        assert alive == [0, 0, 0, 0]
        assert (result.chaos is not None) == (plan is not None)
