"""Tests for the on-disk study result cache and its corruption guard."""

import hashlib
import json

import pytest

from repro.fleet import AblationStudy, StudyResultCache, study_cache
from repro.fleet.result_cache import CACHE_ENV_VAR, KEY_VERSION, SCHEMA_VERSION
from repro.serialization import ablation_result_to_dict, canonical_json

MATERIAL = {"study": "demo", "machines": 4, "seed": 1}
PAYLOAD = {"answer": 42, "rows": [1.5, 2.5]}


@pytest.fixture
def cache(tmp_path):
    return StudyResultCache(tmp_path / "cache")


class TestRawStore:
    def test_miss_on_empty_cache(self, cache):
        assert cache.load(MATERIAL) is None

    def test_round_trip(self, cache):
        cache.store(MATERIAL, PAYLOAD)
        assert cache.load(MATERIAL) == PAYLOAD

    def test_different_material_different_key(self, cache):
        cache.store(MATERIAL, PAYLOAD)
        assert cache.load({**MATERIAL, "seed": 2}) is None
        assert cache.key_for(MATERIAL) != cache.key_for(
            {**MATERIAL, "seed": 2})

    def test_key_ignores_dict_ordering(self, cache):
        reordered = {"seed": 1, "machines": 4, "study": "demo"}
        assert cache.key_for(MATERIAL) == cache.key_for(reordered)

    def test_overwrite(self, cache):
        cache.store(MATERIAL, PAYLOAD)
        cache.store(MATERIAL, {"answer": 43})
        assert cache.load(MATERIAL) == {"answer": 43}


class TestCorruptionGuard:
    def test_truncated_entry_is_a_miss(self, cache):
        path = cache.store(MATERIAL, PAYLOAD)
        path.write_text(path.read_text()[:25])
        assert cache.load(MATERIAL) is None

    def test_tampered_payload_fails_digest(self, cache):
        path = cache.store(MATERIAL, PAYLOAD)
        entry = json.loads(path.read_text())
        entry["payload"]["answer"] = 41  # bit-rot / manual edit
        path.write_text(json.dumps(entry))
        assert cache.load(MATERIAL) is None

    def test_stale_schema_is_a_miss(self, cache):
        path = cache.store(MATERIAL, PAYLOAD)
        entry = json.loads(path.read_text())
        entry["schema"] = SCHEMA_VERSION - 1
        path.write_text(json.dumps(entry))
        assert cache.load(MATERIAL) is None

    def test_old_schema_entry_is_a_miss(self, cache):
        """An entry written by the previous schema (one JSON object,
        payload last, digest over the payload's re-encoding) is a miss,
        and so is a current-layout entry that claims an old schema."""
        path = cache.path_for(MATERIAL)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "schema": 1, "key": cache.key_for(MATERIAL),
            "digest": hashlib.sha256(
                canonical_json(PAYLOAD).encode()).hexdigest(),
            "payload": PAYLOAD}))
        assert cache.load(MATERIAL) is None
        cache.store(MATERIAL, PAYLOAD)
        text = path.read_text()
        schema = f'"schema":{SCHEMA_VERSION}'
        assert text.count(schema) == 1
        path.write_text(text.replace(schema, '"schema":1'))
        assert cache.load(MATERIAL) is None
        assert cache.scan()["stale"] == 1

    def test_schema_2_entry_is_a_miss(self, cache):
        """Schema 2 had today's layout but stored samples as JSON float
        lists with the derived summaries; its entries verify under their
        own digest, and still miss and count as stale, not corrupt."""
        assert SCHEMA_VERSION == 3
        payload = {"mode": "off", "control": {
            "samples": {"socket_bandwidth": [1.5, 2.25]},
            "bandwidth": {"p50": 1.875}}}
        text = canonical_json(payload)
        path = cache.path_for(MATERIAL)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"payload":' + text + "," + canonical_json({
            "schema": 2, "key": cache.key_for(MATERIAL),
            "digest": hashlib.sha256(text.encode()).hexdigest()})[1:])
        assert json.loads(path.read_text())["payload"] == payload
        assert cache.load(MATERIAL) is None
        assert cache.scan() == {"entries": 1, "bytes": path.stat().st_size,
                                "valid": 0, "stale": 1, "corrupt": 0}
        cache.store(MATERIAL, PAYLOAD)
        assert cache.load(MATERIAL) == PAYLOAD
        assert cache.scan()["valid"] == 1

    def test_any_flipped_payload_byte_is_a_miss(self, cache):
        path = cache.store(MATERIAL, PAYLOAD)
        text = path.read_text()
        payload_text = canonical_json(PAYLOAD)
        start = text.index(payload_text)
        for offset in range(start, start + len(payload_text)):
            flipped = chr(ord(text[offset]) ^ 0x01)
            path.write_text(text[:offset] + flipped + text[offset + 1:])
            assert cache.load(MATERIAL) is None, offset
        path.write_text(text)
        assert cache.load(MATERIAL) == PAYLOAD

    def test_load_does_not_reencode_the_payload(self, cache, monkeypatch):
        """A load verifies the payload by hashing its stored bytes: the
        only value it encodes is the key material, never the payload."""
        from repro.fleet import result_cache

        cache.store(MATERIAL, PAYLOAD)
        encoded = []

        def spy(obj):
            encoded.append(obj)
            return canonical_json(obj)

        monkeypatch.setattr(result_cache, "canonical_json", spy)
        assert cache.load(MATERIAL) == PAYLOAD
        assert encoded
        assert all(obj == {"schema": KEY_VERSION, "material": MATERIAL}
                   for obj in encoded)

    def test_entry_under_wrong_name_is_a_miss(self, cache):
        """An entry copied to another key's filename is detected."""
        source = cache.store(MATERIAL, PAYLOAD)
        target = cache.path_for({**MATERIAL, "seed": 2})
        target.write_text(source.read_text())
        assert cache.load({**MATERIAL, "seed": 2}) is None

    def test_non_dict_entry_is_a_miss(self, cache):
        path = cache.path_for(MATERIAL)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(["not", "an", "entry"]))
        assert cache.load(MATERIAL) is None

    def test_recompute_overwrites_corrupt_entry(self, cache):
        path = cache.store(MATERIAL, PAYLOAD)
        path.write_text("garbage")
        assert cache.load(MATERIAL) is None
        cache.store(MATERIAL, PAYLOAD)
        assert cache.load(MATERIAL) == PAYLOAD


class TestEviction:
    def test_prune_keeps_newest(self, tmp_path):
        cache = StudyResultCache(tmp_path, max_entries=3)
        import os
        for i in range(5):
            path = cache.store({"i": i}, {"value": i})
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
        cache.prune()
        assert cache.load({"i": 0}) is None
        assert cache.load({"i": 1}) is None
        for i in (2, 3, 4):
            assert cache.load({"i": i}) == {"value": i}


class TestStudyCacheResolution:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert study_cache(None) is None

    def test_env_var_enables(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        cache = study_cache(None)
        assert cache is not None
        assert cache.root == tmp_path

    def test_explicit_dir_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV_VAR, "/nonexistent/elsewhere")
        cache = study_cache(tmp_path)
        assert cache.root == tmp_path


class TestAblationStudyCaching:
    def _study(self):
        return AblationStudy(mode="off", machines=6, epochs=8,
                             warmup_epochs=2, seed=3)

    def test_second_run_hits_cache(self, tmp_path):
        first = self._study().run(cache_dir=tmp_path)
        entries = list(tmp_path.glob("*.json"))
        assert len(entries) == 1
        before = entries[0].read_text()
        second = self._study().run(cache_dir=tmp_path)
        assert entries[0].read_text() == before  # untouched, not rewritten
        assert (ablation_result_to_dict(first)
                == ablation_result_to_dict(second))

    def test_cached_result_reproduces_every_view(self, tmp_path):
        first = self._study().run(cache_dir=tmp_path)
        second = self._study().run(cache_dir=tmp_path)
        assert second.bandwidth_reduction() == first.bandwidth_reduction()
        assert second.function_cycle_deltas() == first.function_cycle_deltas()
        assert second.throughput_change() == first.throughput_change()

    def test_corrupt_entry_recomputed_not_crashed(self, tmp_path):
        first = self._study().run(cache_dir=tmp_path)
        entry = next(tmp_path.glob("*.json"))
        entry.write_text(entry.read_text()[:50])  # truncated write
        recomputed = self._study().run(cache_dir=tmp_path)
        assert (ablation_result_to_dict(recomputed)
                == ablation_result_to_dict(first))
        # and the entry was healed for the next reader
        cache = StudyResultCache(tmp_path)
        material = self._study().cache_key_material()
        assert cache.load(material) is not None

    @pytest.mark.parametrize("arm, column, value", [
        ("control", "socket_bandwidth", "not base64!"),
        ("experiment", "socket_latency", "AAAAAAAAAAAAAA=="),  # 10 bytes
        ("experiment", "socket_utilization", "AAAAAAAA"),  # 6 bytes
        ("control", "machine_points",
         "AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA"),  # 3 floats, not 4
    ])
    def test_undecodable_column_is_recomputed(self, tmp_path, arm, column,
                                              value):
        """A packed column that fails to decode makes a stale payload:
        the study recomputes and heals the entry instead of crashing."""
        study = self._study()
        first = study.run(cache_dir=tmp_path)
        cache = StudyResultCache(tmp_path)
        material = study.cache_key_material()
        payload = cache.load(material)
        payload[arm]["samples"][column] = value
        cache.store(material, payload)  # re-digested: the entry verifies
        assert cache.load_ablation(material) is None
        recomputed = self._study().run(cache_dir=tmp_path)
        assert (canonical_json(ablation_result_to_dict(recomputed))
                == canonical_json(ablation_result_to_dict(first)))
        assert cache.load_ablation(material) is not None

    def test_typed_entry_points_use_the_stored_form(self, tmp_path):
        study = self._study()
        result = study.run()
        cache = StudyResultCache(tmp_path)
        material = study.cache_key_material()
        cache.store_ablation(material, result)
        assert cache.load(material) == result.to_dict()
        restored = cache.load_ablation(material)
        assert (canonical_json(ablation_result_to_dict(restored))
                == canonical_json(ablation_result_to_dict(result)))

    def test_semantically_broken_payload_is_recomputed(self, tmp_path):
        study = self._study()
        first = study.run(cache_dir=tmp_path)
        cache = StudyResultCache(tmp_path)
        material = study.cache_key_material()
        payload = cache.load(material)
        del payload["control"]  # valid JSON + digest, wrong shape
        cache.store(material, payload)
        recomputed = self._study().run(cache_dir=tmp_path)
        assert (ablation_result_to_dict(recomputed)
                == ablation_result_to_dict(first))

    def test_key_excludes_workers(self):
        """Worker count cannot appear in the key: results are identical
        at any parallelism, so a serial run must hit a parallel run's
        cache entry."""
        material = self._study().cache_key_material()
        assert "workers" not in json.dumps(material)

    def test_different_mode_different_entry(self, tmp_path):
        self._study().run(cache_dir=tmp_path)
        AblationStudy(mode="hard", machines=6, epochs=8, warmup_epochs=2,
                      seed=3).run(cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == 2


class TestStatsSidecar:
    def test_counters_accumulate(self, cache):
        cache.store(MATERIAL, PAYLOAD)          # store
        cache.load(MATERIAL)                    # hit
        cache.load({**MATERIAL, "seed": 99})    # miss
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1}

    def test_miss_before_first_store_is_not_recorded(self, cache):
        """Counters are best-effort and never create the cache
        directory: probing a cache that was never written leaves no
        trace on disk."""
        cache.load(MATERIAL)
        assert not cache.root.exists()
        assert cache.stats() == {"hits": 0, "misses": 0, "stores": 0}

    def test_counters_survive_reopen(self, cache):
        cache.store(MATERIAL, PAYLOAD)
        cache.load(MATERIAL)
        reopened = StudyResultCache(cache.root)
        assert reopened.stats() == {"hits": 1, "misses": 0, "stores": 1}

    def test_sidecar_is_not_an_entry(self, cache):
        """The stats file must never be scanned, pruned, or restored as
        if it were a cached result."""
        cache.store(MATERIAL, PAYLOAD)
        cache.load(MATERIAL)
        scan = cache.scan()
        assert scan["entries"] == 1 and scan["corrupt"] == 0
        cache.prune(0)
        assert cache.stats()["stores"] == 1  # sidecar survived the prune

    def test_missing_sidecar_reads_as_zero(self, cache):
        assert cache.stats() == {"hits": 0, "misses": 0, "stores": 0}


class TestScan:
    def test_empty_directory(self, cache):
        assert cache.scan() == {"entries": 0, "bytes": 0, "valid": 0,
                                "stale": 0, "corrupt": 0}
        assert not cache.root.exists()

    def test_counts_valid_and_corrupt(self, cache):
        """Garbage and digest failures are corrupt; a well-formed entry
        written under another schema, in either older layout, is stale."""
        good = cache.store(MATERIAL, PAYLOAD)
        bad = cache.store({**MATERIAL, "seed": 2}, PAYLOAD)
        bad.write_text("garbage")
        tampered = cache.store({**MATERIAL, "seed": 3}, PAYLOAD)
        tampered.write_text(tampered.read_text().replace("42", "41"))
        old = cache.store({**MATERIAL, "seed": 4}, PAYLOAD)
        old.write_text(old.read_text().replace(
            f'"schema":{SCHEMA_VERSION}', '"schema":2'))
        older = cache.path_for({**MATERIAL, "seed": 5})
        older.write_text(json.dumps({"schema": 1, "key": "k",
                                     "digest": "d", "payload": PAYLOAD}))
        unversioned = cache.path_for({**MATERIAL, "seed": 6})
        unversioned.write_text(json.dumps({"payload": PAYLOAD}))
        scan = cache.scan()
        assert scan["entries"] == 6
        assert scan["valid"] == 1
        assert scan["stale"] == 2
        assert scan["corrupt"] == 3
        assert scan["bytes"] >= good.stat().st_size


class TestEvictionControls:
    def test_max_entries_none_never_evicts(self, tmp_path):
        cache = StudyResultCache(tmp_path, max_entries=None)
        for i in range(300):
            cache.store({"i": i}, {"value": i})
        cache.prune()
        assert cache.scan()["entries"] == 300

    def test_prune_call_level_override(self, tmp_path):
        import os
        cache = StudyResultCache(tmp_path, max_entries=None)
        for i in range(5):
            path = cache.store({"i": i}, {"value": i})
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
        removed = cache.prune(2)
        assert removed == 3
        assert cache.scan()["entries"] == 2
        assert cache.load({"i": 4}) == {"value": 4}


class TestEmbeddedMaterial:
    def test_store_embeds_material_on_request(self, cache):
        path = cache.store(MATERIAL, PAYLOAD, embed_material=True)
        entry = json.loads(path.read_text())
        assert entry["material"] == MATERIAL
        assert cache.load(MATERIAL) == PAYLOAD

    def test_default_store_omits_material(self, cache):
        path = cache.store(MATERIAL, PAYLOAD)
        assert "material" not in json.loads(path.read_text())
