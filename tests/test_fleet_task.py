"""Tests for the fleet task model."""

import random

import pytest

from repro.errors import ConfigError
from repro.fleet import Task, TaskTemplate, sample_task


def make_task(**overrides):
    params = dict(
        name="t", cores=4.0, base_qps=400.0, bandwidth_demand=20.0,
        memory_boundedness=0.4,
        function_shares={"memcpy": 0.3, "pointer_chase": 0.7},
    )
    params.update(overrides)
    return Task(**params)


class TestValidation:
    def test_shares_normalized(self):
        task = make_task(function_shares={"memcpy": 2.0, "hash": 2.0})
        assert task.function_shares == {"memcpy": 0.5, "hash": 0.5}

    def test_bad_cores(self):
        with pytest.raises(ConfigError):
            make_task(cores=0)

    def test_bad_boundedness(self):
        with pytest.raises(ConfigError):
            make_task(memory_boundedness=1.5)

    def test_empty_shares(self):
        with pytest.raises(ConfigError):
            make_task(function_shares={})


class TestSpeed:
    def test_full_speed_when_unloaded_and_prefetching(self):
        task = make_task()
        assert task.speed(1.0, True, False) == pytest.approx(1.0)

    def test_latency_slows_in_proportion_to_boundedness(self):
        light = make_task(memory_boundedness=0.1)
        heavy = make_task(memory_boundedness=0.6)
        assert light.speed(2.0, True, False) > heavy.speed(2.0, True, False)

    def test_prefetchers_off_adds_penalty(self):
        task = make_task()
        assert task.speed(1.0, False, False) < task.speed(1.0, True, False)

    def test_soft_limoncello_recovers_most_of_penalty(self):
        task = make_task(function_shares={"memcpy": 1.0})
        plain_off = task.speed(1.0, False, False)
        soft_off = task.speed(1.0, False, True)
        on = task.speed(1.0, True, False)
        assert plain_off < soft_off <= on * 1.001
        assert (on - soft_off) < 0.2 * (on - plain_off)

    def test_irregular_task_gains_when_prefetchers_off(self):
        task = make_task(function_shares={"pointer_chase": 1.0})
        assert task.speed(1.0, False, False) >= task.speed(1.0, True, False)


class TestBandwidth:
    def test_prefetchers_add_overfetch_traffic(self):
        task = make_task()
        on = task.offered_bandwidth(1.0, True)
        off = task.offered_bandwidth(1.0, False)
        assert on > off == pytest.approx(20.0)

    def test_bandwidth_scales_with_speed(self):
        task = make_task()
        assert task.offered_bandwidth(0.5, False) \
            == pytest.approx(0.5 * task.offered_bandwidth(1.0, False))

    def test_noise_applies(self):
        task = make_task(noise_sigma=0.5)
        task.resample_noise(random.Random(3))
        assert task.noise != 1.0
        assert task.offered_bandwidth(1.0, False) \
            == pytest.approx(20.0 * task.noise)

    def test_zero_sigma_no_noise(self):
        task = make_task(noise_sigma=0.0)
        task.resample_noise(random.Random(3))
        assert task.noise == 1.0

    def test_estimate_state_dependence(self):
        task = make_task()
        assert task.estimated_bandwidth(True) > task.estimated_bandwidth(False)
        assert task.estimated_bandwidth(False) == pytest.approx(20.0)


class TestSampling:
    def test_sampled_tasks_within_template_ranges(self):
        template = TaskTemplate(name="svc", function_shares={"memcpy": 1.0},
                                cores_range=(2.0, 4.0))
        rng = random.Random(5)
        for _ in range(50):
            task = sample_task(rng, template)
            assert 2.0 <= task.cores <= 4.0
            low, high = template.memory_boundedness_range
            assert low <= task.memory_boundedness <= high
            median, sigma, lo, hi = template.bandwidth_per_core
            assert lo * task.cores <= task.bandwidth_demand <= hi * task.cores

    def test_default_template_uses_fleet_shares(self):
        task = sample_task(random.Random(1))
        assert "memcpy" in task.function_shares
        assert "pointer_chase" in task.function_shares

    def test_default_shares_are_the_roster_cycle_shares(self):
        """The fleet reads the roster's shares off the response table, so
        the two tables must agree in names, order and values."""
        from repro.fleet.task import _FLEET_SHARES, DEFAULT_TEMPLATE
        from repro.workloads.functions import FUNCTION_ROSTER

        roster = [(name, profile.cycle_share)
                  for name, profile in FUNCTION_ROSTER.items()]
        assert list(_FLEET_SHARES.items()) == roster
        assert DEFAULT_TEMPLATE.function_shares is None
        task = sample_task(random.Random(1))
        assert list(task.function_shares) == [name for name, _ in roster]

    def test_names_unique(self):
        rng = random.Random(1)
        names = {sample_task(rng).name for _ in range(20)}
        assert len(names) == 20

    def test_deterministic_given_rng(self):
        a = sample_task(random.Random(9))
        b = sample_task(random.Random(9))
        assert a.cores == b.cores
        assert a.bandwidth_demand == b.bandwidth_demand
