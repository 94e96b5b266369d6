"""The observability determinism contract: worker count is invisible.

For the same study parameters, a serial run and a sharded parallel run
must write byte-identical ``events.jsonl`` files and manifests whose
deterministic ``run`` blocks digest equal. The wall-clock ``execution``
overlay is the only part allowed to differ.
"""

from tests.hypothesis_profiles import scaled
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fleet import AblationStudy, RolloutStudy
from repro.obs import (
    EVENTS_NAME,
    manifest_run_digest,
    read_events_jsonl,
    read_manifest,
)


def _run_ablation(out_dir, workers, machines, seed, mode="hard"):
    AblationStudy(mode=mode, machines=machines, epochs=6, warmup_epochs=2,
                  seed=seed, shard_size=3).run(workers=workers,
                                               obs_dir=str(out_dir))
    return out_dir


class TestSerialEqualsSharded:
    @settings(max_examples=scaled(5), deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(machines=st.integers(min_value=4, max_value=9),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_ablation_logs_byte_identical(self, tmp_path, machines, seed):
        serial = _run_ablation(tmp_path / f"s-{machines}-{seed}",
                               workers=1, machines=machines, seed=seed)
        parallel = _run_ablation(tmp_path / f"p-{machines}-{seed}",
                                 workers=3, machines=machines, seed=seed)
        assert ((serial / EVENTS_NAME).read_bytes()
                == (parallel / EVENTS_NAME).read_bytes())
        assert (manifest_run_digest(read_manifest(serial))
                == manifest_run_digest(read_manifest(parallel)))

    def test_rollout_logs_byte_identical(self, tmp_path):
        def run(out_dir, workers):
            RolloutStudy(machines=8, epochs=6, warmup_epochs=2, seed=5,
                         shard_size=3).run(workers=workers,
                                           obs_dir=str(out_dir))
            return out_dir

        serial = run(tmp_path / "serial", workers=1)
        parallel = run(tmp_path / "parallel", workers=4)
        assert ((serial / EVENTS_NAME).read_bytes()
                == (parallel / EVENTS_NAME).read_bytes())
        assert (manifest_run_digest(read_manifest(serial))
                == manifest_run_digest(read_manifest(parallel)))

    def test_merged_log_validates_and_orders_shards(self, tmp_path):
        run_dir = _run_ablation(tmp_path / "run", workers=2, machines=7,
                                seed=11)
        events = read_events_jsonl(run_dir / EVENTS_NAME)  # validates
        assert [event["seq"] for event in events] == list(range(len(events)))
        shard_sequence = [event["shard"] for event in events
                          if event["shard"] is not None]
        # Shard events appear as contiguous plan-order blocks.
        assert shard_sequence == sorted(shard_sequence)
        starts = [event for event in events
                  if event["kind"] == "shard-start"]
        assert [event["index"] for event in starts] == [0, 1, 2]
        assert sum(event["machines"] for event in starts) == 7

    def test_seed_changes_the_log(self, tmp_path):
        first = _run_ablation(tmp_path / "a", workers=1, machines=6, seed=1)
        second = _run_ablation(tmp_path / "b", workers=1, machines=6, seed=2)
        assert (manifest_run_digest(read_manifest(first))
                != manifest_run_digest(read_manifest(second)))

    def test_execution_overlay_may_differ(self, tmp_path):
        serial = _run_ablation(tmp_path / "s", workers=1, machines=6, seed=3)
        parallel = _run_ablation(tmp_path / "p", workers=2, machines=6,
                                 seed=3)
        assert read_manifest(serial)["execution"]["workers"] == 1
        assert read_manifest(parallel)["execution"]["workers"] == 2


class TestEngineOverlay:
    """The memsys engine is invisible to the ``run`` digest too: the
    merged engine occupancy lands in the ``execution`` overlay, where a
    compiled run and a reference-interpreter run differ."""

    @staticmethod
    def _manifest(out_dir, workers):
        from repro.scenarios import CallGraphScenario

        CallGraphScenario(requests=8, seed=21, mode="control").run(
            workers=workers, cache_dir="", checkpoint_dir="",
            obs_dir=str(out_dir))
        return read_manifest(out_dir)

    def test_run_digest_equal_overlay_shows_engine(self, tmp_path):
        from repro.memsys.hierarchy import reference_engine

        compiled = self._manifest(tmp_path / "compiled", workers=1)
        sharded = self._manifest(tmp_path / "sharded", workers=2)
        with reference_engine():
            interpreted = self._manifest(tmp_path / "interpreted", workers=1)

        assert manifest_run_digest(compiled) == manifest_run_digest(sharded)
        # The run block names the process's engine and nothing else
        # about it: every other field, events digest included, agrees.
        assert compiled["run"]["engine"] == "compiled"
        assert interpreted["run"]["engine"] == "interpreter"
        assert (manifest_run_digest({"run": {**interpreted["run"],
                                             "engine": "compiled"}})
                == manifest_run_digest(compiled))

        occupancy = compiled["execution"]["occupancy"]
        assert occupancy["batched_arms"] > 0
        assert occupancy["fallback_reasons"] == {}
        assert sharded["execution"]["occupancy"] == occupancy
        arms = occupancy["batched_arms"] + occupancy["scalar_arms"]
        assert interpreted["execution"]["occupancy"] == {
            "batched_arms": 0, "scalar_arms": arms, "groups": 0,
            "fallback_reasons": {"slow-engine": arms}}

    def test_analytic_study_has_no_occupancy(self, tmp_path):
        run_dir = _run_ablation(tmp_path / "run", workers=1, machines=4,
                                seed=3)
        assert read_manifest(run_dir)["execution"]["occupancy"] is None


class TestChaosObservability:
    def test_chaos_run_writes_incident_events(self, tmp_path,
                                              hardened_config):
        from repro.faults import FaultPlan
        from repro.fleet import AblationStudy

        plan = FaultPlan.parse(
            "seed=2;telemetry-blackout:start=200,duration=80")
        AblationStudy(mode="hard", machines=4, epochs=30, warmup_epochs=5,
                      seed=11, fault_plan=plan, config=hardened_config,
                      ).run(obs_dir=str(tmp_path / "run"))
        events = read_events_jsonl(tmp_path / "run" / EVENTS_NAME)
        kinds = {event["kind"] for event in events}
        assert "failsafe-engaged" in kinds
        assert "incident-open" in kinds
        manifest = read_manifest(tmp_path / "run")
        assert manifest["run"]["fault_plan"] is not None

    def test_chaos_serial_equals_sharded(self, tmp_path, hardened_config):
        from repro.faults import FaultPlan
        from repro.fleet import AblationStudy

        def run(out_dir, workers):
            plan = FaultPlan.parse(
                "seed=3;telemetry-drop:rate=0.1;msr-transient:rate=0.3")
            AblationStudy(mode="hard", machines=6, epochs=20,
                          warmup_epochs=5, seed=7, shard_size=3,
                          fault_plan=plan, config=hardened_config,
                          ).run(workers=workers, obs_dir=str(out_dir))
            return out_dir

        serial = run(tmp_path / "serial", workers=1)
        parallel = run(tmp_path / "parallel", workers=2)
        assert ((serial / EVENTS_NAME).read_bytes()
                == (parallel / EVENTS_NAME).read_bytes())
