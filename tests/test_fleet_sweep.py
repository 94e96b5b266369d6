"""The micro-fleet sweep study and its batching plumbing.

Covers the determinism contract (serial == sharded == the reference
interpreter, proven by digest), the result cache (the worker count is
excluded from the key), chaos arms inside batches, the fault-plan
bridge, and the absence of any batch-size knob.
"""

import pytest

from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.fleet import (
    MicroFleetSweep,
    MicroSweepResult,
    sweep_digest,
)
from repro.fleet.sweep import background_load, crashed
from repro.memsys.hierarchy import reference_engine
from repro.scenarios import CallGraphScenario, NoisyNeighborScenario

SCALE = 0.05  # tiny shared traces keep each sweep run fast
#: Downs roughly 40% of the arms (the sweep takes only this clause).
CRASH_40 = FaultPlan.parse("machine-crash:rate=0.4")


def small_sweep(**overrides):
    kwargs = dict(mode="off", machines=9, seed=3, scale=SCALE, shard_size=4)
    kwargs.update(overrides)
    return MicroFleetSweep(**kwargs)


class TestDeterminism:
    def test_serial_equals_sharded(self):
        serial = small_sweep().run(workers=1)
        sharded = small_sweep().run(workers=2)
        assert sweep_digest(serial) == sweep_digest(sharded)

    def test_batched_equals_scalar(self):
        """The whole point: the lockstep engine never changes a digest
        the reference interpreter computes."""
        batched = small_sweep().run(workers=1)
        with reference_engine():
            scalar = small_sweep().run(workers=1)
        assert batched.occupancy.batched_arms == 9
        assert scalar.occupancy.reasons == {"slow-engine": 9}
        assert sweep_digest(batched) == sweep_digest(scalar)

    def test_modes_differ(self):
        off = small_sweep(mode="off").run(workers=1)
        control = small_sweep(mode="control").run(workers=1)
        assert sweep_digest(off) != sweep_digest(control)

    def test_rows_are_plan_ordered(self):
        result = small_sweep().run(workers=1)
        assert [arm["machine"] for arm in result.arms] == (
            [f"s0/m{i}" for i in range(3)]
            + [f"s1/m{i}" for i in range(3)]
            + [f"s2/m{i}" for i in range(3)]
        )


class TestChaosArms:
    def test_crash_rate_downs_deterministic_arms(self):
        first = small_sweep(fault_plan=CRASH_40).run(workers=1)
        second = small_sweep(fault_plan=CRASH_40).run(workers=1)
        assert sweep_digest(first) == sweep_digest(second)
        assert 0 < first.down < first.machines
        downed = [arm for arm in first.arms if arm["down"]]
        assert len(downed) == first.down
        for arm in downed:  # down rows present but zeroed
            assert arm["elapsed_ns"] == 0.0
            assert arm["llc_misses"] == 0

    def test_chaos_arms_inside_batches_keep_digest(self):
        """Crashing arms out of a shard reshapes the surviving lockstep
        groups; results must not notice."""
        batched = small_sweep(fault_plan=CRASH_40).run(workers=1)
        with reference_engine():
            scalar = small_sweep(fault_plan=CRASH_40).run(workers=1)
        assert sweep_digest(batched) == sweep_digest(scalar)

    def test_crash_rate_from_fault_plan(self):
        plan = FaultPlan.parse("seed=2;machine-crash:rate=0.5")
        assert small_sweep(fault_plan=plan).crash_rate == 0.5
        assert small_sweep().crash_rate == 0.0

    @pytest.mark.parametrize("crash_rate", [0.0, 0.25])
    def test_daemon_fault_kinds_are_rejected(self, crash_rate):
        """The sweep runs no daemon, so a telemetry or MSR clause would
        silently inject nothing, whatever the plan's crash rate."""
        plan = FaultPlan.parse(f"seed=2;telemetry-drop:rate=0.5;machine-crash:rate={crash_rate}")
        with pytest.raises(ConfigError, match="telemetry-drop"):
            small_sweep(fault_plan=plan)

    def test_draws_are_per_arm_stable(self):
        assert background_load(3, 0, "m1") == background_load(3, 0, "m1")
        assert background_load(3, 0, "m1") != background_load(3, 1, "m1")
        assert crashed(3, 0, "m1", 0.0) is False


class TestResultCache:
    def test_cache_roundtrip(self, tmp_path, monkeypatch):
        first = small_sweep().run(workers=1, cache_dir=str(tmp_path))
        # A cached re-run must not recompute: poison the study's worker.
        def boom(spec):
            raise AssertionError("cache miss: shard recomputed")

        monkeypatch.setattr(MicroFleetSweep, "worker", staticmethod(boom))
        study = small_sweep()
        second = study.run(workers=1, cache_dir=str(tmp_path))
        assert study.queue_stats is None  # a whole-study cache hit
        assert sweep_digest(first) == sweep_digest(second)

    def test_key_excludes_batch_size_and_workers(self, tmp_path):
        """An entry written by two workers is hit by one: a hit carries
        no engine occupancy, because no engine ran."""
        written = small_sweep().run(workers=2, cache_dir=str(tmp_path))
        material = small_sweep().cache_key_material()
        assert "batch_size" not in material
        assert "workers" not in material
        hit = small_sweep().run(workers=1, cache_dir=str(tmp_path))
        assert written.occupancy is not None
        assert hit.occupancy is None
        assert sweep_digest(hit) == sweep_digest(written)

    def test_key_includes_the_physics(self):
        base = small_sweep().cache_key_material()
        assert small_sweep(seed=4).cache_key_material() != base
        assert small_sweep(fault_plan=CRASH_40).cache_key_material() != base
        assert small_sweep(mode="control").cache_key_material() != base


class TestResultObject:
    def test_roundtrip_is_digest_exact(self):
        result = small_sweep(fault_plan=CRASH_40).run(workers=1)
        clone = MicroSweepResult.from_dict(result.to_dict())
        assert sweep_digest(clone) == sweep_digest(result)

    def test_merge_concatenates(self):
        a = MicroSweepResult(
            mode="off",
            machines=1,
            down=0,
            arms=[{"machine": "s0/m0", "down": False, "elapsed_ns": 2.0}],
        )
        b = MicroSweepResult(
            mode="off",
            machines=2,
            down=1,
            arms=[
                {"machine": "s1/m0", "down": True, "elapsed_ns": 0.0},
                {"machine": "s1/m1", "down": False, "elapsed_ns": 4.0},
            ],
        )
        merged = a.merge(b)
        assert merged is a
        assert merged.machines == 3 and merged.down == 1
        assert merged.total("elapsed_ns") == 6.0
        assert merged.mean_elapsed_ns() == 3.0

    def test_merge_rejects_mode_mismatch(self):
        a = MicroSweepResult(mode="off")
        with pytest.raises(ConfigError):
            a.merge(MicroSweepResult(mode="control"))

    def test_validation(self):
        with pytest.raises(ConfigError):
            MicroFleetSweep(mode="on")
        with pytest.raises(ConfigError):
            MicroFleetSweep(machines=0)
        with pytest.raises(ConfigError):
            MicroFleetSweep(scale=0.0)
        with pytest.raises(ConfigError):  # the plan rejects the rate
            MicroFleetSweep(fault_plan=FaultPlan.parse("machine-crash:rate=1.0"))


class TestBatchPlumbing:
    """The lockstep batch size is gone: every cold group runs whole."""

    def test_resolve_explicit(self):
        """No trace-driven study takes a batch size, and no shard spec
        carries one."""
        for study in (MicroFleetSweep, CallGraphScenario, NoisyNeighborScenario):
            with pytest.raises(TypeError):
                study(batch_size=4)
            assert not any(hasattr(spec, "batch_size") for spec in study().shard_specs())

    def test_resolve_env(self, monkeypatch):
        """A stale ``$REPRO_BATCH`` — even junk, even the old ``0`` — is
        never read: the sweep still batches each shard's group whole."""
        baseline = small_sweep().run(workers=1)
        for value in ("lots", "0"):
            monkeypatch.setenv("REPRO_BATCH", value)
            result = small_sweep().run(workers=1)
            assert result.occupancy.to_dict() == {
                "batched_arms": 9,
                "scalar_arms": 0,
                "groups": 3,
                "fallback_reasons": {},
            }
            assert sweep_digest(result) == sweep_digest(baseline)
