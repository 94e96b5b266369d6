"""Bit-identity and cache tests for the socket epoch solve.

``SimulatedSocket.step`` evaluates the per-task speed and offered
bandwidth inline, from rows built once per epoch, and caches its task
sums and its prefetcher state. ``ReferenceSocket`` keeps the per-task
loop that the inline solve replaced, verbatim, as the oracle: every
epoch either socket solves must agree to the last bit.
"""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actuator import MSRPrefetcherActuator
from repro.errors import MSRAccessError
from repro.fleet import PLATFORM_1, PLATFORM_CATALOG, Fleet, SimulatedSocket, SocketEpoch, Task
from repro.fleet.calibration import FunctionResponse, ResponseTable
from repro.msr import FaultyMSRFile, MSRFile
from repro.units import SECOND
from repro.workloads.base import FunctionCategory
from tests.hypothesis_profiles import scaled

#: One socket per MSR layout: amd-like (two registers, 48 cores) and
#: intel-like (one register, 32 cores).
PLATFORMS = (PLATFORM_1, PLATFORM_CATALOG[4])

ACTIONS = (
    "none",
    "enable",
    "disable",
    "disable-one",
    "actuate-on",
    "actuate-off",
    "soft",
    "add",
    "remove",
)


class ReferenceSocket(SimulatedSocket):
    """The per-task fixed point, with the uncached state reads it made."""

    @property
    def hw_prefetchers_on(self) -> bool:
        return not self.msr_map.all_disabled(self.msrs)

    @property
    def saturation_bandwidth(self) -> float:
        return self._dram.config.max_utilization * self.platform.saturation_bandwidth

    @property
    def cores_used(self) -> float:
        return sum(task.cores for task in self.tasks)

    def step(self, now_ns, duration_ns=SECOND, demand_factor=1.0):
        hw_on = self.hw_prefetchers_on
        load = self._last_utilization  # fraction of raw capacity
        capacity = self.platform.saturation_bandwidth
        bandwidth = 0.0
        for _ in range(self.ITERATIONS):
            latency_ratio = self.latency_at(load) / self._unloaded_latency
            bandwidth = demand_factor * sum(
                task.offered_bandwidth(task.speed(latency_ratio, hw_on, self.soft_deployed), hw_on)
                for task in self.tasks
            )
            load += self.DAMPING * (bandwidth / capacity - load)
        bandwidth = load * capacity

        latency_ns = self.latency_at(load)
        latency_ratio = latency_ns / self._unloaded_latency
        qps = sum(
            task.base_qps * task.speed(latency_ratio, hw_on, self.soft_deployed)
            for task in self.tasks
        ) * (duration_ns / SECOND)
        if self._last_hw_state is not None and hw_on != self._last_hw_state:
            self.toggles += 1
            qps *= 1.0 - self.TOGGLE_PENALTY
        self._last_hw_state = hw_on
        epoch = SocketEpoch(
            time_ns=now_ns,
            bandwidth=bandwidth,
            utilization=bandwidth / self.saturation_bandwidth,
            latency_ns=latency_ns,
            qps=qps,
            cores_used=self.cores_used,
            hw_prefetchers_on=hw_on,
        )
        self.history.append(epoch)
        self._last_bandwidth = bandwidth
        self._last_utilization = load
        return epoch


def response_table(penalties, overfetches, recoveries):
    """Synthetic functions; penalties far below zero push a slowdown
    under the 1e-6 clamp."""
    return ResponseTable(
        FunctionResponse(
            name=f"f{index}",
            category=FunctionCategory.NON_TAX,
            cycle_share=0.1,
            cycle_penalty_off=penalty,
            soft_recovery=recovery,
            mpki_on=1.0,
            mpki_off=2.0,
            overfetch=overfetch,
        )
        for index, (penalty, overfetch, recovery) in enumerate(
            zip(penalties, overfetches, recoveries)
        )
    )


def make_task(name, table, cores=2.0, bandwidth=30.0, boundedness=0.5, shares=None):
    return Task(
        name=name,
        cores=cores,
        base_qps=100.0 * cores,
        bandwidth_demand=bandwidth,
        memory_boundedness=boundedness,
        function_shares=shares or {function: 1.0 for function in table.names()},
        noise_sigma=0.0,
        responses=table,
    )


@st.composite
def tasks(draw, table, name):
    names = draw(st.lists(st.sampled_from(table.names()), min_size=1, unique=True))
    return make_task(
        name,
        table,
        cores=draw(st.floats(0.1, 2.5)),
        bandwidth=draw(st.floats(0.0, 90.0)),
        boundedness=draw(st.floats(0.0, 1.0)),
        shares={function: draw(st.floats(0.01, 1.0)) for function in names},
    )


@st.composite
def scenarios(draw):
    functions = draw(st.integers(1, 4))
    table = response_table(
        draw(st.lists(st.floats(-6.0, 3.0), min_size=functions, max_size=functions)),
        draw(st.lists(st.floats(0.0, 1.0), min_size=functions, max_size=functions)),
        draw(st.lists(st.floats(0.0, 1.05), min_size=functions, max_size=functions)),
    )
    placed = [draw(tasks(table, f"t{index}")) for index in range(draw(st.integers(0, 12)))]
    epochs = []
    for index in range(draw(st.integers(1, 6))):
        epochs.append(
            (
                draw(st.sampled_from(ACTIONS)),
                draw(tasks(table, f"spare{index}")),
                draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1.0, 8.0))),
                draw(st.sampled_from((SECOND, 0.25 * SECOND, 3 * SECOND))),
                draw(st.lists(st.floats(0.05, 4.0), min_size=20, max_size=20)),
            )
        )
    return (
        draw(st.sampled_from(PLATFORMS)),
        placed,
        draw(st.booleans()),
        draw(st.booleans()),
        draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0))),
        epochs,
    )


def apply(socket, action, spare):
    """One between-epoch event, the same on the reference and the socket."""
    if action == "enable":
        socket.force_prefetchers(True)
    elif action == "disable":
        socket.force_prefetchers(False)
    elif action == "disable-one":
        socket.msr_map.disable_one(socket.msrs, socket.msr_map.controls[0].name)
    elif action in ("actuate-on", "actuate-off"):
        MSRPrefetcherActuator(socket.msrs, socket.msr_map).set_enabled(action == "actuate-on")
    elif action == "soft":
        socket.soft_deployed = not socket.soft_deployed
    elif action == "add" and socket.cores_free >= spare.cores:
        socket.add_task(spare)
    elif action == "remove" and socket.tasks:
        socket.remove_task(socket.tasks[0])


def paired(platform, placed, hw_on=True, soft=False, load=0.0):
    pair = (ReferenceSocket(platform), SimulatedSocket(platform))
    for socket in pair:
        for task in placed:
            socket.add_task(task)
        socket.force_prefetchers(hw_on)
        socket.soft_deployed = soft
        socket._last_utilization = load
    return pair


def assert_same_state(reference, socket):
    assert socket._last_utilization == reference._last_utilization
    assert socket._last_bandwidth == reference._last_bandwidth
    assert socket.toggles == reference.toggles
    assert socket.cores_used == reference.cores_used


class TestBitIdentity:
    @given(scenario=scenarios())
    @settings(max_examples=scaled(100), deadline=None)
    def test_every_epoch_matches_the_per_task_loop(self, scenario):
        platform, placed, hw_on, soft, load, epochs = scenario
        reference, socket = paired(platform, placed, hw_on, soft, load)
        for tick, (action, spare, demand, duration, noises) in enumerate(epochs):
            for side in (reference, socket):
                apply(side, action, spare)
            for task, noise in zip(reference.tasks, noises):
                task.noise = noise
            expected = reference.step(tick * SECOND, duration, demand)
            actual = socket.step(tick * SECOND, duration, demand)
            assert actual == expected
            assert_same_state(reference, socket)

    @pytest.mark.parametrize("hw_on", [True, False])
    def test_overloaded_socket_past_max_utilization(self, hw_on):
        table = response_table([0.4], [0.2], [0.9])
        placed = [make_task(f"t{index}", table, bandwidth=60.0) for index in range(8)]
        reference, socket = paired(PLATFORM_1, placed, hw_on=hw_on, load=2.5)
        for tick in range(4):
            expected = reference.step(tick * SECOND, demand_factor=3.0)
            assert socket.step(tick * SECOND, demand_factor=3.0) == expected
            assert expected.utilization > 1.0
            assert_same_state(reference, socket)

    def test_slowdown_clamp(self):
        """A penalty below -1 drives the prefetchers-off slowdown under
        zero, so both solves clamp it at 1e-6."""
        table = response_table([-6.0], [0.1], [0.0])
        placed = [make_task("t", table, bandwidth=1e-7, boundedness=0.0)]
        reference, socket = paired(PLATFORM_1, placed, hw_on=False)
        assert socket.step(0.0) == reference.step(0.0)
        assert_same_state(reference, socket)

    def test_down_machine_epoch(self):
        """``demand_factor=0.0``, the chaos crash path, drains load to zero
        alike."""
        table = response_table([0.4], [0.2], [0.9])
        placed = [make_task("t", table)]
        reference, socket = paired(PLATFORM_1, placed, load=0.8)
        for tick in range(3):
            expected = reference.step(tick * SECOND, demand_factor=0.0)
            assert socket.step(tick * SECOND, demand_factor=0.0) == expected
            assert_same_state(reference, socket)

    def test_nan_load_propagates_alike(self):
        """The inline curve keeps ``max``/``min``'s NaN behaviour."""
        table = response_table([0.4], [0.2], [0.9])
        reference, socket = paired(PLATFORM_1, [make_task("t", table)], load=float("nan"))
        assert repr(socket.step(0.0)) == repr(reference.step(0.0))

    def test_empty_socket(self):
        reference, socket = paired(PLATFORM_1, [])
        assert socket.step(0.0) == reference.step(0.0)
        assert socket.cores_used == 0


class TestAdmissionSums:
    def test_sums_follow_add_and_remove(self):
        table = response_table([0.4], [0.3], [0.9])
        socket = SimulatedSocket(PLATFORM_1)
        placed = [
            make_task(f"t{index}", table, cores=1.5 + index, bandwidth=7.0 * index)
            for index in range(5)
        ]

        def check():
            assert socket.cores_used == sum(task.cores for task in socket.tasks)
            assert socket.cores_free == socket.cores - socket.cores_used
            assert socket.estimated_bandwidth() == sum(
                task.estimated_bandwidth(True) for task in socket.tasks
            )
            socket.force_prefetchers(False)
            assert socket.estimated_bandwidth(prefetch_aware=True) == sum(
                task.estimated_bandwidth(False) for task in socket.tasks
            )
            assert socket.estimated_bandwidth() == sum(
                task.estimated_bandwidth(True) for task in socket.tasks
            )
            socket.force_prefetchers(True)

        check()
        for task in placed:
            socket.add_task(task)
            check()
        socket.remove_task(placed[2])
        check()
        for task in list(socket.tasks):
            socket.remove_task(task)
            check()
        assert socket.cores_used == 0
        assert socket.estimated_bandwidth() == 0

    def test_full_socket_rejects_a_task(self):
        table = response_table([0.4], [0.3], [0.9])
        socket = SimulatedSocket(PLATFORM_1)
        socket.add_task(make_task("big", table, cores=float(socket.cores)))
        assert socket.cores_free == 0
        with pytest.raises(Exception, match="free cores"):
            socket.add_task(make_task("one", table, cores=1.0))
        assert len(socket.tasks) == 1


class TestPrefetcherStateCache:
    @pytest.mark.parametrize("platform", PLATFORMS, ids=lambda p: p.vendor)
    def test_force_prefetchers(self, platform):
        socket = SimulatedSocket(platform)
        assert socket.hw_prefetchers_on
        socket.force_prefetchers(False)
        assert not socket.hw_prefetchers_on
        socket.force_prefetchers(True)
        assert socket.hw_prefetchers_on

    def test_actuator_wrmsr(self):
        socket = SimulatedSocket(PLATFORM_1)
        actuator = MSRPrefetcherActuator(socket.msrs, socket.msr_map)
        assert socket.hw_prefetchers_on
        assert actuator.set_enabled(False)
        assert not socket.hw_prefetchers_on
        assert actuator.set_enabled(True)
        assert socket.hw_prefetchers_on

    def test_partial_disable_keeps_prefetchers_on(self):
        socket = SimulatedSocket(PLATFORM_1)
        assert socket.hw_prefetchers_on
        socket.msr_map.disable_one(socket.msrs, socket.msr_map.controls[0].name)
        assert socket.hw_prefetchers_on
        for control in socket.msr_map.controls[1:]:
            socket.msr_map.disable_one(socket.msrs, control.name)
        assert not socket.hw_prefetchers_on

    def test_failed_write_leaves_state_and_stamp(self):
        class AlwaysFail(random.Random):
            def random(self):
                return 0.0

        socket = SimulatedSocket(PLATFORM_1)
        faulty = FaultyMSRFile(failure_rate=0.5, rng=AlwaysFail())
        socket.msr_map.declare_registers(faulty)
        socket.msrs = faulty
        assert socket.hw_prefetchers_on
        with pytest.raises(MSRAccessError):
            socket.force_prefetchers(False)
        assert faulty.failed_writes == 1
        assert faulty.write_count == 0
        assert socket.hw_prefetchers_on

    def test_reassigned_msr_file_is_reread(self):
        """A new register file with the same ``write_count`` as the old
        one: only the identity half of the stamp can tell them apart."""
        socket = SimulatedSocket(PLATFORM_1)
        assert socket.hw_prefetchers_on
        disabled = MSRFile()
        for register in socket.msr_map.registers:
            disabled.declare(register, reset_value=socket.msr_map.register_mask(register))
        assert disabled.write_count == socket.msrs.write_count == 0
        socket.msrs = disabled
        assert not socket.hw_prefetchers_on
        socket.force_prefetchers(True)
        assert socket.hw_prefetchers_on

    def test_redeclared_registers_are_reread(self):
        """Re-declaring a register overwrites its value, so it moves
        ``write_count``: the socket's and the actuator's cached readbacks
        both follow it."""
        socket = SimulatedSocket(PLATFORM_1)
        actuator = MSRPrefetcherActuator(socket.msrs, socket.msr_map)
        assert socket.hw_prefetchers_on
        assert actuator.is_enabled()
        for register in socket.msr_map.registers:
            socket.msrs.declare(register, reset_value=socket.msr_map.register_mask(register))
        assert not socket.hw_prefetchers_on
        assert not actuator.is_enabled()


class TestReclamation:
    def test_stepped_fleet_is_freed_without_the_cycle_collector(self):
        """No reference cycle keeps a finished fleet alive: with the
        cyclic collector off, dropping the last reference frees it."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            fleet = Fleet(machines=3, seed=4)
            fleet.deploy_hard_limoncello()
            fleet.run(4)
            socket = fleet.machines[0].sockets[0]
            assert socket.history
            fleet_ref, socket_ref = weakref.ref(fleet), weakref.ref(socket)
            del fleet, socket
            assert fleet_ref() is None
            assert socket_ref() is None
        finally:
            if was_enabled:
                gc.enable()
