"""Tests for the scheduler and the traffic model."""

import random

import pytest

from repro.errors import ConfigError, SchedulingError
from repro.fleet import (
    BandwidthAwareScheduler,
    DiurnalTraffic,
    Machine,
    PLATFORM_1,
    Task,
)


def task(cores=8.0, bandwidth=30.0, name="t"):
    return Task(name=name, cores=cores, base_qps=100.0,
                bandwidth_demand=bandwidth, memory_boundedness=0.4,
                function_shares={"memcpy": 1.0}, noise_sigma=0.0)


class TestScheduler:
    def test_places_on_least_loaded_socket(self):
        machine = Machine("m", PLATFORM_1, sockets=2)
        machine.sockets[0].add_task(task(name="existing", bandwidth=50.0))
        scheduler = BandwidthAwareScheduler()
        chosen = scheduler.try_place(task(name="new"), [machine])
        assert chosen is machine.sockets[1]

    def test_respects_cpu_capacity(self):
        machine = Machine("m", PLATFORM_1, sockets=1)
        scheduler = BandwidthAwareScheduler()
        big = task(cores=float(machine.sockets[0].cores), bandwidth=10.0)
        assert scheduler.try_place(big, [machine]) is not None
        assert scheduler.try_place(task(cores=1.0, bandwidth=1.0),
                                   [machine]) is None

    def test_respects_bandwidth_headroom(self):
        machine = Machine("m", PLATFORM_1, sockets=1)
        scheduler = BandwidthAwareScheduler(bandwidth_headroom=0.5)
        limit = 0.5 * machine.sockets[0].saturation_bandwidth
        hog = task(cores=4.0, bandwidth=limit * 2)
        assert scheduler.try_place(hog, [machine]) is None
        assert scheduler.rejections == 1

    def test_place_raises_when_impossible(self):
        machine = Machine("m", PLATFORM_1, sockets=1)
        scheduler = BandwidthAwareScheduler(bandwidth_headroom=0.01)
        with pytest.raises(SchedulingError):
            scheduler.place(task(), [machine])

    def test_prefetch_awareness_frees_capacity(self):
        """With prefetchers disabled, a prefetch-aware scheduler admits
        work an unaware one rejects — the Figure 19 mechanism."""
        def loaded_machine():
            machine = Machine("m", PLATFORM_1, sockets=1)
            machine.force_prefetchers(False)
            return machine

        incoming = task(cores=4.0,
                        bandwidth=0.16 * PLATFORM_1.saturation_bandwidth)
        filler = task(cores=4.0, name="filler",
                      bandwidth=0.75 * PLATFORM_1.saturation_bandwidth
                      * 0.9 / 1.11)

        unaware_machine = loaded_machine()
        unaware_machine.sockets[0].add_task(filler)
        unaware = BandwidthAwareScheduler(prefetch_aware=False)
        aware_machine = loaded_machine()
        aware_machine.sockets[0].add_task(filler)
        aware = BandwidthAwareScheduler(prefetch_aware=True)

        unaware_ok = unaware.try_place(incoming, [unaware_machine])
        aware_ok = aware.try_place(incoming, [aware_machine])
        assert aware_ok is not None
        assert unaware_ok is None

    def test_drain_removes_tasks(self):
        machine = Machine("m", PLATFORM_1, sockets=1)
        for i in range(4):
            machine.sockets[0].add_task(task(cores=4.0, name=f"t{i}"))
        removed = BandwidthAwareScheduler.drain([machine], 2,
                                                random.Random(0))
        assert len(removed) == 2
        assert machine.cores_used == 8.0

    def test_bad_headroom(self):
        with pytest.raises(SchedulingError):
            BandwidthAwareScheduler(bandwidth_headroom=0.0)


class TestDiurnalTraffic:
    def test_oscillates_around_mean(self):
        traffic = DiurnalTraffic(mean=0.6, amplitude=0.2, noise=0.0,
                                 period_ns=100.0)
        values = [traffic.target(t) for t in range(0, 100, 5)]
        assert max(values) > 0.7
        assert min(values) < 0.5
        assert abs(sum(values) / len(values) - 0.6) < 0.05

    def test_clamped_to_unit_interval(self):
        traffic = DiurnalTraffic(mean=0.7, amplitude=0.3, noise=0.2,
                                 rng=random.Random(1))
        for t in range(100):
            assert 0.0 <= traffic.target(float(t)) <= 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            DiurnalTraffic(mean=1.5)
        with pytest.raises(ConfigError):
            DiurnalTraffic(mean=0.9, amplitude=0.3)
        with pytest.raises(ConfigError):
            DiurnalTraffic(period_ns=0.0)

