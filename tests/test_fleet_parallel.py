"""Tests for parallel sharded execution: worker resolution, the pool
runner, and — the engine's core guarantee — parallel results identical
to serial results for the same seed."""

import concurrent.futures
import dataclasses
import pickle

import pytest

from repro.core.config import LimoncelloConfig, RetryPolicy
from repro.errors import ConfigError, QueueInterrupted
from repro.faults.plan import FaultPlan
from repro.analysis import result_digest
from repro.fleet import AblationStudy, RolloutStudy, StudyResultCache
from repro.fleet.parallel import (
    WORKERS_ENV_VAR,
    resolve_workers,
    run_sharded,
)
from repro.fleet.study import run_traced
from repro.serialization import (
    ablation_result_to_dict,
    fleet_metrics_to_dict,
    profile_data_to_dict,
)


def _square(value):
    """Module-level worker so the process pool can pickle it."""
    return value * value


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_workers(None) == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "7")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        assert resolve_workers(None) == 5

    def test_zero_means_all_cpus(self):
        assert resolve_workers(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            resolve_workers(-2)

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "many")
        with pytest.raises(ConfigError, match=WORKERS_ENV_VAR):
            resolve_workers(None)

    def test_env_zero_rejected(self, monkeypatch):
        # Explicit workers=0 means "all CPUs", but a 0 in the
        # environment is far more likely a broken export than a request
        # for full parallelism — reject it loudly, naming the variable.
        monkeypatch.setenv(WORKERS_ENV_VAR, "0")
        with pytest.raises(ConfigError, match=WORKERS_ENV_VAR):
            resolve_workers(None)

    def test_env_negative_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "-3")
        with pytest.raises(ConfigError, match=WORKERS_ENV_VAR):
            resolve_workers(None)

    def test_config_error_is_a_value_error(self, monkeypatch):
        # Callers that predate ConfigError catch ValueError; keep both
        # spellings working.
        monkeypatch.setenv(WORKERS_ENV_VAR, "zero")
        with pytest.raises(ValueError):
            resolve_workers(None)


class TestRunSharded:
    def test_serial_preserves_order(self):
        assert run_sharded(_square, [3, 1, 2], workers=1) == [9, 1, 4]

    def test_parallel_preserves_order(self):
        values = list(range(16))
        assert (run_sharded(_square, values, workers=4)
                == [v * v for v in values])

    def test_parallel_equals_serial(self):
        values = [5, 8, 13]
        assert (run_sharded(_square, values, workers=3)
                == run_sharded(_square, values, workers=1))

    def test_single_spec_runs_inline(self):
        assert run_sharded(_square, [6], workers=8) == [36]


def _no_pool(*args, **kwargs):
    raise OSError("no process semaphores here")


class _InlinePool:
    """A process-pool stand-in that runs each task at submit time, so a
    test can count worker calls in-process."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


class TestRunShardedPoolFailure:
    """A pool that cannot start degrades to the serial path; a failing
    ``on_result`` callback is never mistaken for a pool failure."""

    @pytest.fixture
    def calls(self):
        return []

    @pytest.fixture
    def counted_square(self, calls):
        def worker(value):
            calls.append(value)
            return value * value
        return worker

    def test_results_in_spec_order(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _no_pool)
        assert run_sharded(_square, [3, 1, 2], workers=2) == [9, 1, 4]

    def test_on_result_fires_once_per_spec(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _no_pool)
        seen = []
        results = run_sharded(_square, [3, 1, 2], workers=2,
                              on_result=lambda i, r: seen.append((i, r)))
        assert results == [9, 1, 4]
        assert sorted(seen) == [(0, 9), (1, 1), (2, 4)]

    def test_callback_interrupt_propagates_without_fallback(
            self, monkeypatch, calls, counted_square):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _no_pool)
        stop = QueueInterrupted("stop after the first shard")

        def interrupt(index, result):
            raise stop

        with pytest.raises(QueueInterrupted) as excinfo:
            run_sharded(counted_square, [3, 1, 2], workers=2,
                        on_result=interrupt)
        assert excinfo.value is stop
        assert calls == [3]

    def test_callback_os_error_under_a_pool_is_not_a_pool_failure(
            self, monkeypatch, calls, counted_square):
        """A journal write failing inside the pool loop propagates; it
        does not send the map to the serial fallback."""
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _InlinePool)
        disk_full = OSError("disk full")

        def journal(index, result):
            raise disk_full

        with pytest.raises(OSError) as excinfo:
            run_sharded(counted_square, [3, 1, 2], workers=2,
                        on_result=journal)
        assert excinfo.value is disk_full
        assert calls == [3, 1, 2]


def _ablation_dict(study, workers):
    return ablation_result_to_dict(study.run(workers=workers))


class TestShardedAblation:
    def test_shard_specs_cover_population(self):
        study = AblationStudy(mode="off", machines=50, epochs=10,
                              warmup_epochs=2, seed=7, shard_size=16)
        specs = study.shard_specs()
        assert sum(spec.machines for spec in specs) == 50
        assert specs[0].seed == 7  # shard 0 keeps the master seed
        assert len({spec.seed for spec in specs}) == len(specs)

    def test_sharded_serial_merges_all_shards(self):
        study = AblationStudy(mode="off", machines=24, epochs=8,
                              warmup_epochs=2, seed=7, shard_size=8)
        merged = study.run()
        parts = [run_traced(shard)[0] for shard in study.shard_specs()]
        total_epochs = sum(part.control.epochs for part in parts)
        assert merged.control.epochs == total_epochs
        assert len(merged.control.socket_bandwidth) == sum(
            len(part.control.socket_bandwidth) for part in parts)

    def test_parallel_equals_serial_bit_for_bit(self):
        """The tentpole guarantee: worker count cannot change results."""
        make = lambda: AblationStudy(mode="off", machines=24, epochs=8,
                                     warmup_epochs=2, seed=7, shard_size=6)
        serial = _ablation_dict(make(), workers=1)
        parallel = _ablation_dict(make(), workers=4)
        assert serial == parallel

    def test_single_shard_matches_unsharded_engine(self):
        """Populations at or under the shard size reproduce the
        pre-sharding engine exactly (shard 0 keeps the master seed)."""
        study = AblationStudy(mode="off", machines=8, epochs=10,
                              warmup_epochs=3, seed=9)
        sharded = study.run()
        unsharded = AblationStudy(mode="off", machines=8, epochs=10,
                                  warmup_epochs=3, seed=9)._run_single()
        assert (ablation_result_to_dict(sharded)
                == ablation_result_to_dict(unsharded))

    @pytest.mark.parametrize("platform, digest", [
        ("gen-2020",
         "38bfddc0d50ccc7a674e80f447325dcbb0cd961078b8a596c047e2643efdbe3a"),
        ("gen-2022",
         "2373e1011758b78d51dc637380f3e1e1c03364354c4d016643ff0c765ecfc4f6"),
    ], ids=["gen-2020", "gen-2022"])
    def test_platform_study(self, platform, digest):
        """A catalog platform reproduces the Table 1 fleet of that
        generation; the pinned digests are those of a hand-built
        ``Fleet(machines=6, platform=..., seed=11)`` pair."""
        kw = dict(mode="off", machines=6, epochs=8, warmup_epochs=2, seed=11)
        study = AblationStudy(platform=platform, **kw)
        assert result_digest(study.run(cache_dir="")) == digest
        assert study.cache_key_material()["platform"] == platform
        # An unset platform keeps the key every earlier revision wrote.
        assert StudyResultCache("unused").key_for(
            AblationStudy(**kw).cache_key_material()) == (
            "469e33e8fbb3a2c28d193fa9f10fd9532a12e9a1a299a91efd6b5dcc203d93b6")

    def test_unknown_platform_rejected(self):
        with pytest.raises(ConfigError):
            AblationStudy(platform="gen-1999")

    def test_shards_cross_the_pool_whole(self):
        """A shard is a copy of its study: every field a hardened,
        faulted, non-default-platform study holds must survive the trip
        to a pool worker, and no copy may share mutable state with it."""
        config = LimoncelloConfig(
            lower_threshold=0.5, upper_threshold=0.7,
            retry_policy=RetryPolicy(max_attempts=3, initial_backoff_ns=2e9),
            telemetry_failsafe_deadline_ns=4e9)
        plan = FaultPlan.parse("seed=2;telemetry-blackout:start=3,duration=4;"
                               "machine-crash:rate=0.05")
        make = lambda: AblationStudy(
            mode="hard", platform="gen-2022", config=config, fault_plan=plan,
            machines=8, epochs=10, warmup_epochs=3, seed=4, shard_size=3)
        study = make()
        shards = study.shard_specs()
        assert [shard.shard_index for shard in shards] == [0, 1, 2]
        for shard in shards:
            assert type(shard) is AblationStudy
            restored = pickle.loads(pickle.dumps(shard))
            assert type(restored) is AblationStudy
            assert vars(restored) == vars(shard)
            for name, value in vars(shard).items():
                if value is vars(study).get(name):
                    assert value is None or isinstance(
                        value, (int, float, str)) or (
                        dataclasses.is_dataclass(value)
                        and value.__dataclass_params__.frozen), name
        serial = make().run(workers=1, cache_dir="")
        assert serial.chaos is not None and serial.chaos.ticks > 0
        assert result_digest(make().run(workers=2, cache_dir="")) == (
            result_digest(serial))


class TestShardedRollout:
    def test_parallel_equals_serial(self):
        make = lambda: RolloutStudy(machines=18, epochs=8, warmup_epochs=2,
                                    seed=5, shard_size=6)
        serial = make().run(workers=1)
        parallel = make().run(workers=4)
        assert (fleet_metrics_to_dict(serial.full, include_samples=True)
                == fleet_metrics_to_dict(parallel.full,
                                         include_samples=True))
        assert (profile_data_to_dict(serial.full_profile)
                == profile_data_to_dict(parallel.full_profile))

    def test_sharded_study_still_reproduces_paper_shape(self):
        result = RolloutStudy(machines=18, epochs=20, warmup_epochs=8,
                              seed=5, shard_size=6).run()
        shares = result.tax_cycle_shares()
        assert (shares["hard"]["all targeted DC tax"]
                > shares["none"]["all targeted DC tax"])


@pytest.mark.parametrize("study", [AblationStudy, RolloutStudy],
                         ids=["ablation", "rollout"])
@pytest.mark.parametrize("bad", [
    dict(shard_size=0), dict(shard_size=-1), dict(epochs=0),
    dict(warmup_epochs=-1),
], ids=["shard_size=0", "shard_size=-1", "epochs=0", "warmup=-1"])
def test_analytic_study_validation(study, bad):
    with pytest.raises(ConfigError):
        study(**bad)
