"""Tests for target identification and the distance/degree tuner."""

import pytest

from repro.core import PrefetchDescriptor, PrefetchTuner, identify_targets
from repro.core.soft.targets import selected_functions
from repro.errors import ConfigError
from repro.memsys.stats import FunctionStats
from repro.workloads import FunctionCategory


def stats(instructions=10_000, compute=10_000, stall=5_000.0, misses=100):
    return FunctionStats(instructions=instructions, compute_cycles=compute,
                         stall_cycles=stall, llc_misses=misses)


class TestIdentifyTargets:
    def make_profiles(self):
        control = {
            "memcpy": stats(stall=5_000.0, misses=100),
            "pointer_chase": stats(stall=50_000.0, misses=1_000),
            "cold_fn": FunctionStats(instructions=10, compute_cycles=10,
                                     stall_cycles=5.0, llc_misses=1),
        }
        experiment = {
            "memcpy": stats(stall=25_000.0, misses=500),       # regressed
            "pointer_chase": stats(stall=45_000.0, misses=990),  # improved
            "cold_fn": FunctionStats(instructions=10, compute_cycles=10,
                                     stall_cycles=50.0, llc_misses=10),
        }
        return control, experiment

    def test_regressing_hot_function_selected(self):
        control, experiment = self.make_profiles()
        selections = identify_targets(control, experiment)
        by_name = {s.function: s for s in selections}
        assert by_name["memcpy"].selected
        assert by_name["memcpy"].cycle_delta > 0
        assert by_name["memcpy"].mpki_delta > 0

    def test_improving_function_not_selected(self):
        control, experiment = self.make_profiles()
        by_name = {s.function: s for s in identify_targets(control, experiment)}
        assert not by_name["pointer_chase"].selected
        assert by_name["pointer_chase"].reason == "no cycle regression"

    def test_cold_function_not_selected_even_if_regressing(self):
        control, experiment = self.make_profiles()
        by_name = {s.function: s for s in identify_targets(control, experiment)}
        assert not by_name["cold_fn"].selected
        assert by_name["cold_fn"].reason == "too cold"

    def test_sorted_by_regression(self):
        control, experiment = self.make_profiles()
        selections = identify_targets(control, experiment)
        deltas = [s.cycle_delta for s in selections]
        assert deltas == sorted(deltas, reverse=True)

    def test_selected_functions_helper(self):
        control, experiment = self.make_profiles()
        assert selected_functions(identify_targets(control, experiment)) \
            == ["memcpy"]

    def test_function_missing_from_experiment_skipped(self):
        control = {"memcpy": stats()}
        assert identify_targets(control, {}) == []

    def test_empty_control_rejected(self):
        with pytest.raises(ConfigError):
            identify_targets({}, {})

    def test_categories_attached(self):
        control, experiment = self.make_profiles()
        by_name = {s.function: s for s in identify_targets(control, experiment)}
        assert by_name["memcpy"].category is FunctionCategory.DATA_MOVEMENT
        assert by_name["memcpy"].is_tax
        assert by_name["pointer_chase"].category is FunctionCategory.NON_TAX


class TestTuner:
    @staticmethod
    def quadratic_bench(best_distance=512, best_degree=256):
        """A synthetic response surface peaking at (best_distance, best_degree)."""
        def bench(descriptor):
            d_penalty = abs(descriptor.distance_bytes - best_distance) / 1024
            g_penalty = abs(descriptor.degree_bytes - best_degree) / 1024
            return 0.5 - d_penalty - g_penalty
        return bench

    def test_finds_peak_of_grid(self):
        bench = self.quadratic_bench()
        tuner = PrefetchTuner(microbenchmark=bench, loadtest=bench)
        result = tuner.tune(PrefetchDescriptor("memcpy"),
                            distances=[64, 128, 256, 512, 1024],
                            degrees=[64, 128, 256, 512])
        assert result.succeeded
        assert result.chosen.distance_bytes == 512
        assert result.chosen.degree_bytes == 256
        assert len(result.sweep) == 20

    def test_loadtest_veto_falls_back_to_next_candidate(self):
        micro = self.quadratic_bench()

        def loadtest(descriptor):
            # The microbench winner (512/256) fails under load.
            if descriptor.distance_bytes == 512 and descriptor.degree_bytes == 256:
                return -0.1
            return micro(descriptor)

        tuner = PrefetchTuner(microbenchmark=micro, loadtest=loadtest)
        result = tuner.tune(PrefetchDescriptor("memcpy"),
                            distances=[256, 512], degrees=[128, 256])
        assert result.succeeded
        assert (result.chosen.distance_bytes, result.chosen.degree_bytes) \
            != (512, 256)
        assert len(result.rejected) == 1

    def test_all_negative_fails(self):
        tuner = PrefetchTuner(microbenchmark=lambda d: -0.2,
                              loadtest=lambda d: -0.2)
        result = tuner.tune(PrefetchDescriptor("memcpy"),
                            distances=[64], degrees=[64])
        assert not result.succeeded
        assert result.chosen is None

    def test_candidate_budget_respected(self):
        calls = []

        def loadtest(descriptor):
            calls.append(descriptor)
            return -1.0  # everything fails under load

        tuner = PrefetchTuner(microbenchmark=lambda d: 0.5,
                              loadtest=loadtest, max_candidates=3)
        result = tuner.tune(PrefetchDescriptor("memcpy"),
                            distances=[64, 128, 256, 512],
                            degrees=[64, 128])
        assert not result.succeeded
        assert len(calls) == 3

    def test_best_by_distance_projection(self):
        bench = self.quadratic_bench()
        tuner = PrefetchTuner(microbenchmark=bench, loadtest=bench)
        result = tuner.tune(PrefetchDescriptor("memcpy"),
                            distances=[128, 512], degrees=[64, 256])
        projection = result.best_by_distance()
        assert set(projection) == {128, 512}
        assert projection[512].speedup >= projection[128].speedup

    def test_empty_grid_rejected(self):
        tuner = PrefetchTuner(lambda d: 0, lambda d: 0)
        with pytest.raises(ConfigError):
            tuner.tune(PrefetchDescriptor("f"), distances=[], degrees=[64])

    def test_bad_max_candidates(self):
        with pytest.raises(ConfigError):
            PrefetchTuner(lambda d: 0, lambda d: 0, max_candidates=0)
