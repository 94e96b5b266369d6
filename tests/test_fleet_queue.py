"""Tests for the checkpointed shard work-queue.

The tentpole invariant under test: a study interrupted at *any* point
and resumed against the same checkpoint directory produces results
bit-identical to a fresh uninterrupted serial run, at any worker count.
Interruption is deterministic (``REPRO_QUEUE_ABORT_AFTER``), so the
kill-and-resume tests are golden tests, not races.
"""

import json

import pytest
from tests.hypothesis_profiles import scaled
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, QueueInterrupted
from repro.fleet import (
    AblationStudy,
    MicroFleetSweep,
    QueueStats,
    RolloutStudy,
    ShardCheckpoint,
    queue_status,
    run_checkpointed,
    shard_task_material,
    sweep_digest,
)
from repro.fleet.ablation import run_ablation_shard
from repro.fleet.queue import (
    ABORT_ENV_VAR,
    CHECKPOINT_ENV_VAR,
    QUEUE_SCHEMA_VERSION,
    resolve_abort_after,
    resolve_checkpoint_dir,
)
from repro.serialization import (
    ablation_result_to_dict,
    canonical_json,
    rollout_result_to_dict,
)


def double(value):
    """Toy shard worker for the queue-mechanics tests."""
    return {"value": value * 2}


def materials_for(values):
    return [shard_task_material("toy", {"value": v, "shard_index": i})
            for i, v in enumerate(values)]


class TestResolvers:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(CHECKPOINT_ENV_VAR, raising=False)
        assert resolve_checkpoint_dir(None) is None

    def test_env_var_enables(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CHECKPOINT_ENV_VAR, str(tmp_path))
        assert resolve_checkpoint_dir(None) == str(tmp_path)

    def test_explicit_arg_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CHECKPOINT_ENV_VAR, "/somewhere/else")
        assert resolve_checkpoint_dir(tmp_path) == str(tmp_path)

    def test_empty_string_disables_despite_env(self, monkeypatch, tmp_path):
        """The CLI comparison legs pass '' to force a real recompute."""
        monkeypatch.setenv(CHECKPOINT_ENV_VAR, str(tmp_path))
        assert resolve_checkpoint_dir("") is None

    def test_abort_unset_means_never(self, monkeypatch):
        monkeypatch.delenv(ABORT_ENV_VAR, raising=False)
        assert resolve_abort_after(None) is None

    def test_abort_env_parsed(self, monkeypatch):
        monkeypatch.setenv(ABORT_ENV_VAR, "3")
        assert resolve_abort_after(None) == 3

    @pytest.mark.parametrize("junk", ["zero", "1.5", "0", "-2"])
    def test_abort_junk_rejected(self, monkeypatch, junk):
        monkeypatch.setenv(ABORT_ENV_VAR, junk)
        with pytest.raises(ConfigError):
            resolve_abort_after(None)

    def test_abort_explicit_nonpositive_rejected(self):
        with pytest.raises(ConfigError):
            resolve_abort_after(0)


class TestRunCheckpointed:
    def _run(self, values, checkpoint, **kwargs):
        return run_checkpointed(
            double, values, materials_for(values),
            checkpoint=checkpoint, to_payload=lambda r: r,
            from_payload=lambda p: p, **kwargs)

    def test_spec_and_material_counts_must_match(self, tmp_path):
        with pytest.raises(ConfigError):
            run_checkpointed(double, [1, 2], materials_for([1]),
                             checkpoint=ShardCheckpoint(tmp_path),
                             to_payload=lambda r: r,
                             from_payload=lambda p: p)

    def test_no_checkpoint_computes_everything(self):
        outputs, stats = run_checkpointed(double, [1, 2, 3],
                                          materials_for([1, 2, 3]))
        assert outputs == [{"value": 2}, {"value": 4}, {"value": 6}]
        assert stats == QueueStats(total=3, restored=0, computed=3,
                                   journaled=0)

    def test_second_run_restores_everything(self, tmp_path):
        checkpoint = ShardCheckpoint(tmp_path)
        first, _ = self._run([1, 2, 3], checkpoint)
        second, stats = self._run([1, 2, 3], checkpoint)
        assert second == first
        assert stats.restored == 3 and stats.computed == 0
        assert stats.restored_indexes == (0, 1, 2)

    def test_abort_after_keeps_journaled_progress(self, tmp_path):
        checkpoint = ShardCheckpoint(tmp_path)
        with pytest.raises(QueueInterrupted):
            self._run([1, 2, 3], checkpoint, abort_after=2)
        outputs, stats = self._run([1, 2, 3], checkpoint)
        assert stats.restored == 2 and stats.computed == 1
        assert outputs == [{"value": 2}, {"value": 4}, {"value": 6}]

    def test_restored_shards_do_not_count_toward_abort(self, tmp_path):
        """A resumed run under the same abort knob makes fresh progress
        instead of dying at the same shard forever."""
        checkpoint = ShardCheckpoint(tmp_path)
        with pytest.raises(QueueInterrupted):
            self._run([1, 2, 3], checkpoint, abort_after=1)
        with pytest.raises(QueueInterrupted):
            self._run([1, 2, 3], checkpoint, abort_after=1)
        _, stats = self._run([1, 2, 3], checkpoint)
        assert stats.restored == 2 and stats.computed == 1

    def test_abort_without_checkpoint_raises_up_front(self):
        """No journal means no progress to keep: fail before wasting
        compute on shards the interruption will throw away."""
        with pytest.raises(QueueInterrupted):
            run_checkpointed(double, [1, 2, 3], materials_for([1, 2, 3]),
                             abort_after=2)

    def test_abort_env_var_honoured(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ABORT_ENV_VAR, "1")
        with pytest.raises(QueueInterrupted):
            self._run([1, 2], ShardCheckpoint(tmp_path))

    def test_corrupt_journal_entry_recomputed(self, tmp_path):
        checkpoint = ShardCheckpoint(tmp_path)
        self._run([1, 2], checkpoint)
        for path in tmp_path.glob("*.json"):
            if path.name != "_stats":
                path.write_text(path.read_text()[:20])
        outputs, stats = self._run([1, 2], checkpoint)
        assert outputs == [{"value": 2}, {"value": 4}]
        assert stats.restored == 0 and stats.computed == 2

    def test_undeserializable_payload_treated_as_miss(self, tmp_path):
        checkpoint = ShardCheckpoint(tmp_path)
        self._run([1], checkpoint)

        def strict_from_payload(payload):
            raise ValueError("payload layout drift")

        outputs, stats = run_checkpointed(
            double, [1], materials_for([1]), checkpoint=checkpoint,
            to_payload=lambda r: r, from_payload=strict_from_payload)
        assert outputs == [{"value": 2}]
        assert stats.restored == 0 and stats.computed == 1

    def test_journal_failure_propagates(self, tmp_path):
        """Silently not checkpointing would break the resume promise."""
        checkpoint = ShardCheckpoint(tmp_path)

        def broken_journal(material, payload):
            raise OSError("disk full")

        checkpoint.journal = broken_journal
        with pytest.raises(OSError):
            self._run([1], checkpoint)


class TestSweepKillAndResume:
    """Golden kill-and-resume tests: digest equality with a fresh run."""

    KW = dict(mode="off", machines=9, seed=17, shard_size=3)

    @pytest.mark.parametrize("abort_after", [1, 2])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_resumed_digest_matches_fresh_run(self, tmp_path, monkeypatch,
                                              abort_after, workers):
        fresh = sweep_digest(MicroFleetSweep(**self.KW).run())
        monkeypatch.setenv(ABORT_ENV_VAR, str(abort_after))
        with pytest.raises(QueueInterrupted):
            MicroFleetSweep(**self.KW).run(
                workers=workers, checkpoint_dir=str(tmp_path))
        monkeypatch.delenv(ABORT_ENV_VAR)
        sweep = MicroFleetSweep(**self.KW)
        resumed = sweep.run(workers=workers, checkpoint_dir=str(tmp_path))
        assert sweep_digest(resumed) == fresh
        assert sweep.queue_stats.restored == abort_after
        assert sweep.queue_stats.computed == 3 - abort_after

    def test_double_interruption_then_resume(self, tmp_path, monkeypatch):
        """Progress accumulates across several kills."""
        fresh = sweep_digest(MicroFleetSweep(**self.KW).run())
        monkeypatch.setenv(ABORT_ENV_VAR, "1")
        for _ in range(2):
            with pytest.raises(QueueInterrupted):
                MicroFleetSweep(**self.KW).run(
                    checkpoint_dir=str(tmp_path))
        monkeypatch.delenv(ABORT_ENV_VAR)
        sweep = MicroFleetSweep(**self.KW)
        resumed = sweep.run(checkpoint_dir=str(tmp_path))
        assert sweep_digest(resumed) == fresh
        assert sweep.queue_stats.restored == 2

    def test_checkpointed_run_identical_to_plain_run(self, tmp_path):
        plain = sweep_digest(MicroFleetSweep(**self.KW).run())
        checkpointed = sweep_digest(MicroFleetSweep(**self.KW).run(
            checkpoint_dir=str(tmp_path)))
        assert checkpointed == plain

    def test_batch_size_excluded_from_task_key(self, tmp_path):
        """No engine setting enters a shard key — there is no batch size,
        and the engine cannot change shard results — so a journal the
        reference interpreter wrote restores under the compiled engine."""
        from repro.memsys.hierarchy import reference_engine

        materials = MicroFleetSweep(**self.KW).shard_task_materials()
        assert not any("batch_size" in repr(material)
                       for material in materials)
        with reference_engine():
            journaled = MicroFleetSweep(**self.KW).run(
                checkpoint_dir=str(tmp_path))
        sweep = MicroFleetSweep(**self.KW)
        restored = sweep.run(checkpoint_dir=str(tmp_path))
        assert sweep.queue_stats.restored == 3
        assert sweep_digest(restored) == sweep_digest(journaled)


class TestAblationKillAndResume:
    KW = dict(mode="off", machines=8, epochs=10, warmup_epochs=3, seed=3,
              shard_size=4)

    def test_resumed_result_matches_fresh_run(self, tmp_path, monkeypatch):
        fresh = canonical_json(ablation_result_to_dict(
            AblationStudy(**self.KW).run()))
        monkeypatch.setenv(ABORT_ENV_VAR, "1")
        with pytest.raises(QueueInterrupted):
            AblationStudy(**self.KW).run(checkpoint_dir=str(tmp_path))
        monkeypatch.delenv(ABORT_ENV_VAR)
        study = AblationStudy(**self.KW)
        resumed = study.run(workers=2, checkpoint_dir=str(tmp_path))
        assert canonical_json(ablation_result_to_dict(resumed)) == fresh
        assert study.queue_stats.restored == 1

    def test_different_mode_does_not_hit_other_modes_journal(self, tmp_path):
        AblationStudy(**self.KW).run(checkpoint_dir=str(tmp_path))
        other = AblationStudy(**{**self.KW, "mode": "hard"})
        other.run(checkpoint_dir=str(tmp_path))
        assert other.queue_stats.restored == 0

    def test_schema_1_journal_entry_recomputed(self, tmp_path):
        """Schema 1 journaled a bare result dict, keyed apart for traced
        and plain shards; schema 2 journals ``{result, events, wall}``
        and must never restore the older entries."""
        assert QUEUE_SCHEMA_VERSION == 2
        study = AblationStudy(**self.KW)
        journal = ShardCheckpoint(tmp_path)
        materials = study.shard_task_materials()
        for spec, material in zip(study.shard_specs(), materials):
            old = {**material, "queue_schema": 1,
                   "spec": {**material["spec"], "traced": False}}
            journal.journal(old, run_ablation_shard(spec)[0].to_dict())
        study.run(checkpoint_dir=str(tmp_path))
        assert study.queue_stats.restored == 0
        assert study.queue_stats.computed == len(materials)
        for material in materials:
            assert set(journal.load(material)) == {"result", "events", "wall"}


class TestRolloutKillAndResume:
    KW = dict(machines=8, epochs=10, warmup_epochs=3, seed=5)

    def test_resumed_result_matches_fresh_run(self, tmp_path, monkeypatch):
        fresh = canonical_json(rollout_result_to_dict(
            RolloutStudy(**self.KW).run()))
        monkeypatch.setenv(ABORT_ENV_VAR, "1")
        with pytest.raises(QueueInterrupted):
            RolloutStudy(**self.KW).run(checkpoint_dir=str(tmp_path))
        monkeypatch.delenv(ABORT_ENV_VAR)
        study = RolloutStudy(**self.KW)
        resumed = study.run(checkpoint_dir=str(tmp_path))
        assert canonical_json(rollout_result_to_dict(resumed)) == fresh
        assert study.queue_stats.restored == 1


class TestQueueStatus:
    def test_groups_by_study(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ABORT_ENV_VAR, raising=False)
        MicroFleetSweep(mode="off", machines=9, seed=17, shard_size=3).run(
            checkpoint_dir=str(tmp_path))
        AblationStudy(mode="off", machines=8, epochs=10, warmup_epochs=3,
                      seed=3, shard_size=4).run(
                          checkpoint_dir=str(tmp_path))
        status = queue_status(ShardCheckpoint(tmp_path))
        assert status["corrupt"] == 0
        assert status["shard_tasks"] == 5
        assert status["studies"]["micro-sweep"]["shards"] == 3
        assert status["studies"]["micro-sweep"]["shard_indexes"] == [0, 1, 2]
        assert status["studies"]["ablation"]["shards"] == 2

    def test_counts_stale_entries_apart_from_corrupt(self, tmp_path):
        """An entry written under an older entry schema is stale: it is
        recomputed, and `repro queue` does not report it as bit-rot."""
        from repro.fleet.result_cache import SCHEMA_VERSION

        study = AblationStudy(mode="off", machines=8, epochs=10,
                              warmup_epochs=3, seed=3, shard_size=4)
        study.run(checkpoint_dir=str(tmp_path))
        for entry in tmp_path.glob("*.json"):
            entry.write_text(entry.read_text().replace(
                f'"schema":{SCHEMA_VERSION}', '"schema":2'))
        status = queue_status(ShardCheckpoint(tmp_path))
        assert (status["valid"], status["stale"], status["corrupt"]) == (
            0, 2, 0)
        assert status["shard_tasks"] == 0
        study.run(checkpoint_dir=str(tmp_path))
        assert study.queue_stats.restored == 0
        status = queue_status(ShardCheckpoint(tmp_path))
        assert (status["valid"], status["stale"]) == (2, 0)

    def test_counts_corrupt_entries(self, tmp_path):
        checkpoint = ShardCheckpoint(tmp_path)
        checkpoint.journal(shard_task_material("toy", {"shard_index": 0}),
                           {"value": 1})
        entry = next(p for p in tmp_path.glob("*.json")
                     if p.name != "_stats")
        entry.write_text("garbage")
        status = queue_status(checkpoint)
        assert status["corrupt"] == 1
        assert status["stale"] == 0
        assert status["shard_tasks"] == 0


# A throwaway cache purely for key computation; key_for never touches
# the filesystem.
_PROBE = ShardCheckpoint("key-probe-never-written")

_field_names = st.text(
    st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1, max_size=8)
_field_values = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e6, max_value=1e6),
    st.text(max_size=12),
    st.booleans(),
)
_spec_materials = st.dictionaries(_field_names, _field_values,
                                  min_size=1, max_size=6)


class TestShardTaskKeyProperties:
    """The content-addressing contract: equal key material means equal
    key; any perturbation of the material means a different key."""

    @settings(max_examples=scaled(100), deadline=None)
    @given(_spec_materials)
    def test_equal_material_equal_key(self, spec):
        a = shard_task_material("ablation", dict(spec))
        reordered = {name: spec[name] for name in reversed(list(spec))}
        b = shard_task_material("ablation", reordered)
        assert _PROBE.key_for(a) == _PROBE.key_for(b)

    @settings(max_examples=scaled(100), deadline=None)
    @given(_spec_materials, st.data())
    def test_any_field_perturbation_changes_key(self, spec, data):
        base_key = _PROBE.key_for(shard_task_material("ablation", spec))
        field = data.draw(st.sampled_from(sorted(spec)))
        perturbed = dict(spec)
        # Wrapping in a list differs from every primitive the strategy
        # can generate, including the original value itself.
        perturbed[field] = [perturbed[field]]
        perturbed_key = _PROBE.key_for(
            shard_task_material("ablation", perturbed))
        assert perturbed_key != base_key

    @settings(max_examples=scaled(100), deadline=None)
    @given(_spec_materials, _field_names)
    def test_added_field_changes_key(self, spec, extra):
        base_key = _PROBE.key_for(shard_task_material("ablation", spec))
        grown = dict(spec)
        grown[extra + "x"] = "added"
        assert _PROBE.key_for(
            shard_task_material("ablation", grown)) != base_key

    @settings(max_examples=scaled(50), deadline=None)
    @given(_spec_materials)
    def test_study_kind_is_part_of_the_key(self, spec):
        assert (_PROBE.key_for(shard_task_material("ablation", spec))
                != _PROBE.key_for(shard_task_material("micro-sweep", spec)))

    def test_real_study_materials_are_all_distinct(self):
        """Every shard of every study variant gets its own key."""
        kw = dict(machines=8, epochs=10, warmup_epochs=3, seed=3,
                  shard_size=4)
        materials = (
            AblationStudy(mode="off", **kw).shard_task_materials()
            + AblationStudy(mode="hard", **kw).shard_task_materials()
            + AblationStudy(mode="off", seed=4, **{k: v for k, v
                            in kw.items() if k != "seed"}
                            ).shard_task_materials()
            + MicroFleetSweep(mode="off", machines=9, seed=17,
                              shard_size=3).shard_task_materials()
            + RolloutStudy(machines=8, epochs=10, warmup_epochs=3,
                           seed=5).shard_task_materials()
        )
        keys = [_PROBE.key_for(m) for m in materials]
        assert len(set(keys)) == len(keys)
        assert len(set(json.dumps(m, sort_keys=True)
                       for m in materials)) == len(materials)
