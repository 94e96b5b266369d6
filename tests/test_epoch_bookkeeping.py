"""The fleet epoch's bookkeeping around its compiled kernels.

* ``Machine._draw_noise`` draws each task's lognormal with the stdlib's
  code inline; ``ReferenceMachine`` keeps the ``rng.lognormvariate``
  loop it replaced, verbatim, as the oracle.
* A socket's admission sums (cores and estimated bandwidth, which
  ``Machine.cpu_utilization`` adds up) are cached by ``_retotal``; every
  change to a socket's tasks, drains and chaos restarts included, must
  show in them.
* ``SocketEpoch``, ``BandwidthSample`` and ``Decision`` are named
  tuples; they keep the fields, keyword construction, properties,
  equality and immutability of the frozen dataclasses they replaced.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LimoncelloConfig
from repro.core.controller import (
    ControllerState,
    Decision,
    HardLimoncelloController,
    SingleThresholdController,
)
from repro.faults.plan import FaultPlan
from repro.fleet import PLATFORM_1, Fleet, Machine, SocketEpoch, Task
from repro.fleet.scheduler import BandwidthAwareScheduler
from repro.telemetry.sampler import BandwidthSample
from tests.hypothesis_profiles import scaled


class ReferenceMachine(Machine):
    """The noise draw before it was inlined."""

    def _draw_noise(self, rng: random.Random) -> float:
        lognormvariate = rng.lognormvariate
        for socket in self.sockets:
            for task in socket.tasks:
                sigma = task.noise_sigma
                task.noise = lognormvariate(0.0, sigma) if sigma > 0 else 1.0
        if self.demand_noise_sigma > 0:
            rho = self.demand_noise_rho
            innovation_sigma = self.demand_noise_sigma * (1 - rho * rho) ** 0.5
            self._log_demand_noise = rho * self._log_demand_noise + rng.gauss(
                0.0, innovation_sigma
            )
            return math.exp(self._log_demand_noise)
        return 1.0


def make_task(name: str, sigma: float = 0.1, cores: float = 1.0, qps: float = 100.0) -> Task:
    return Task(
        name=name,
        cores=cores,
        base_qps=qps,
        bandwidth_demand=5.0,
        memory_boundedness=0.3,
        function_shares={"memcpy": 0.4, "pointer_chase": 0.6},
        noise_sigma=sigma,
    )


#: Zero, subnormal and tiny sigmas (``z * sigma`` can round to a signed
#: zero), ordinary ones, and large ones short of overflowing ``exp``.
SIGMAS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1e-12, 0.1, 0.12]),
    st.floats(min_value=0.0, max_value=50.0),
)


class TestInlineNoise:
    @settings(max_examples=scaled(150))
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        mixes=st.lists(st.lists(SIGMAS, max_size=6), min_size=1, max_size=3),
        demand_sigma=st.sampled_from([0.0, 0.12, 1.5]),
        draws=st.integers(min_value=1, max_value=4),
    )
    def test_matches_lognormvariate(self, seed, mixes, demand_sigma, draws):
        machines = []
        for cls in (Machine, ReferenceMachine):
            machine = cls("m", PLATFORM_1, sockets=len(mixes), demand_noise_sigma=demand_sigma)
            for socket, sigmas in zip(machine.sockets, mixes):
                for index, sigma in enumerate(sigmas):
                    socket.add_task(make_task(f"s{socket.index}t{index}", sigma))
            machines.append(machine)
        fast_rng, slow_rng = random.Random(seed), random.Random(seed)
        fast, slow = machines
        for _ in range(draws):
            assert repr(fast._draw_noise(fast_rng)) == repr(slow._draw_noise(slow_rng))
            assert [repr(task.noise) for task in fast.tasks] == [
                repr(task.noise) for task in slow.tasks
            ]
            assert fast_rng.getstate() == slow_rng.getstate()


def cached_totals(machine: Machine):
    return [machine.cpu_utilization] + [
        (socket.cores_used, socket.estimated_bandwidth(), socket._estimated_off)
        for socket in machine.sockets
    ]


def fresh_totals(machine: Machine):
    cores = sum(sum([task.cores for task in socket.tasks]) for socket in machine.sockets)
    return [cores / machine.total_cores] + [
        (
            sum([task.cores for task in socket.tasks]),
            sum([task.estimated_bandwidth(True) for task in socket.tasks]),
            sum([task.estimated_bandwidth(False) for task in socket.tasks]),
        )
        for socket in machine.sockets
    ]


OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "drain", "read"]),
        st.integers(min_value=0, max_value=2**16),
        st.floats(min_value=0.5, max_value=6.0),
        st.floats(min_value=0.0, max_value=1e4),
    ),
    max_size=40,
)


class TestAdmissionTotals:
    @settings(max_examples=scaled(100))
    @given(operations=OPERATIONS, sockets=st.integers(min_value=1, max_value=3))
    def test_sums_track_every_task_change(self, operations, sockets):
        machine = Machine("m", PLATFORM_1, sockets=sockets)
        rng = random.Random(0)
        assert repr(cached_totals(machine)) == repr(fresh_totals(machine))
        for step, (kind, pick, cores, qps) in enumerate(operations):
            socket = machine.sockets[pick % sockets]
            if kind == "add" and cores <= socket.cores_free:
                socket.add_task(make_task(f"t{step}", cores=cores, qps=qps))
            elif kind == "remove" and socket.tasks:
                socket.remove_task(socket.tasks[pick % len(socket.tasks)])
            elif kind == "drain":
                BandwidthAwareScheduler.drain_sockets([machine], pick % 4, rng)
            assert repr(cached_totals(machine)) == repr(fresh_totals(machine))

    def test_sums_hold_through_chaos_restarts(self):
        plan = FaultPlan.parse("machine-crash:rate=0.3,outage=1,restart=disabled", seed=4)
        fleet = Fleet(machines=6, seed=11, fault_plan=plan)
        fleet.deploy_hard_limoncello()
        checked = []

        def check(now_ns, machines, rng):
            for machine in machines:
                assert repr(cached_totals(machine)) == repr(fresh_totals(machine))
            checked.append(now_ns)

        fleet.run(30, observers=[check])
        assert len(checked) == 30
        assert sum(machine.restarts for machine in fleet.machines) > 0
        assert fleet.scheduler.placements > 0


def socket_epoch(**changes):
    fields = dict(
        time_ns=1.0,
        bandwidth=80.0,
        utilization=0.96,
        latency_ns=120.0,
        qps=3.5,
        cores_used=12.0,
        hw_prefetchers_on=True,
    )
    fields.update(changes)
    return SocketEpoch(**fields)


def decisions():
    """One decision from every producer, each flipping the state."""
    config = LimoncelloConfig(sustain_duration_ns=0.0)
    hard = HardLimoncelloController(config)
    single = SingleThresholdController(threshold=0.8)
    return [controller.observe(5.0, 0.99) for controller in (hard, single)]


class TestRecords:
    def test_socket_epoch_fields_and_property(self):
        epoch = socket_epoch()
        assert SocketEpoch._fields == (
            "time_ns",
            "bandwidth",
            "utilization",
            "latency_ns",
            "qps",
            "cores_used",
            "hw_prefetchers_on",
        )
        assert epoch.saturated
        assert not socket_epoch(utilization=0.5).saturated
        assert epoch == socket_epoch()
        assert epoch != socket_epoch(qps=3.6)

    def test_bandwidth_sample_fields(self):
        sample = BandwidthSample(time_ns=2.0, bandwidth=40.0, utilization=0.5)
        assert BandwidthSample._fields == ("time_ns", "bandwidth", "utilization")
        assert sample == BandwidthSample(time_ns=2.0, bandwidth=40.0, utilization=0.5)
        assert sample != BandwidthSample(time_ns=2.0, bandwidth=41.0, utilization=0.5)

    def test_every_decision_producer(self):
        assert Decision._fields == ("time_ns", "utilization", "state", "changed")
        for decision in decisions():
            assert type(decision) is Decision
            assert decision.changed and not decision.prefetchers_enabled
            assert decision == Decision(
                time_ns=5.0, utilization=0.99, state=decision.state, changed=True
            )
            assert decision != decision._replace(changed=False)
        on = Decision(time_ns=0.0, utilization=0.1, state=ControllerState.OVERLOADED, changed=False)
        assert on.prefetchers_enabled

    @pytest.mark.parametrize(
        "record, field",
        [
            (socket_epoch(), "qps"),
            (BandwidthSample(time_ns=0.0, bandwidth=1.0, utilization=0.1), "utilization"),
            (decisions()[0], "state"),
        ],
        ids=["socket-epoch", "bandwidth-sample", "decision"],
    )
    def test_records_are_immutable(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
        with pytest.raises(AttributeError):
            record.extra = 1
