"""Tests for trace and result serialization."""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests.hypothesis_profiles import scaled

from repro.access import AccessKind, MemoryAccess, Trace
from repro.access.trace import software_prefetch
from repro.errors import TraceError
from repro.memsys import MemoryHierarchy, PrefetcherBank
from repro.serialization import (
    access_from_dict,
    access_to_dict,
    load_trace_jsonl,
    run_result_to_dict,
    save_run_result,
    save_trace_jsonl,
)
from repro.workloads import memcpy_trace


def sample_trace():
    return (memcpy_trace(0x1000, 0x9000, 512)
            + Trace([software_prefetch(0x2000, size=128, pc=3,
                                       function="memcpy"),
                     MemoryAccess(address=0x3000, size=4096,
                                  kind=AccessKind.STREAM_HINT,
                                  function="memcpy")]))


class TestAccessRoundTrip:
    def test_dict_round_trip_preserves_everything(self):
        for record in sample_trace():
            restored = access_from_dict(access_to_dict(record))
            assert restored == record

    def test_defaults_filled(self):
        record = access_from_dict({"address": 64})
        assert record.size == 8
        assert record.kind is AccessKind.LOAD
        assert record.function == ""

    def test_malformed_rejected(self):
        with pytest.raises(TraceError):
            access_from_dict({})
        with pytest.raises(TraceError):
            access_from_dict({"address": 0, "kind": "warp_drive"})
        with pytest.raises(TraceError):
            access_from_dict({"address": -5})


class TestTraceRoundTrip:
    def test_jsonl_round_trip(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.jsonl"
        save_trace_jsonl(trace, path)
        assert load_trace_jsonl(path) == trace

    def test_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"address": 64}\n\n{"address": 128}\n')
        assert len(load_trace_jsonl(path)) == 2

    def test_jsonl_reports_bad_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"address": 64}\nnot json\n')
        with pytest.raises(TraceError, match="2"):
            load_trace_jsonl(path)

    def test_replay_of_loaded_trace_matches_original(self, tmp_path):
        """A saved-and-reloaded trace simulates identically."""
        trace = memcpy_trace(0x10000, 0x90000, 8192)
        path = tmp_path / "trace.jsonl"
        save_trace_jsonl(trace, path)
        original = MemoryHierarchy(prefetchers=PrefetcherBank([])).run(trace)
        replayed = MemoryHierarchy(prefetchers=PrefetcherBank([])).run(
            load_trace_jsonl(path))
        assert replayed.elapsed_ns == original.elapsed_ns
        assert replayed.total.llc_misses == original.total.llc_misses


class TestResultSerialization:
    def test_run_result_dict_contents(self):
        trace = memcpy_trace(0x10000, 0x90000, 4096)
        result = MemoryHierarchy(prefetchers=PrefetcherBank([])).run(trace)
        data = run_result_to_dict(result)
        assert data["elapsed_ns"] == result.elapsed_ns
        assert data["total"]["llc_mpki"] == result.total.llc_mpki
        assert "memcpy" in data["functions"]
        json.dumps(data)  # JSON-safe

    def test_save_run_result(self, tmp_path):
        trace = memcpy_trace(0x10000, 0x90000, 1024)
        result = MemoryHierarchy(prefetchers=PrefetcherBank([])).run(trace)
        path = tmp_path / "result.json"
        save_run_result(result, path)
        loaded = json.loads(path.read_text())
        assert loaded["dram_demand_fills"] == result.dram_demand_fills


class TestFleetMetricsSerialization:
    @pytest.fixture(scope="class")
    def metrics(self):
        from repro.fleet import Fleet
        return Fleet(machines=4, seed=2).run(10)

    def test_summary_contents(self, metrics):
        from repro.serialization import fleet_metrics_to_dict
        data = fleet_metrics_to_dict(metrics)
        assert data["epochs"] == 10
        assert data["bandwidth"]["mean"] == pytest.approx(
            metrics.bandwidth_summary().mean)
        assert data["normalized_throughput"] == pytest.approx(
            metrics.normalized_throughput)
        assert "samples" not in data
        json.dumps(data)

    def test_samples_optional(self, metrics):
        from repro.serialization import fleet_metrics_to_dict
        data = fleet_metrics_to_dict(metrics, include_samples=True)
        assert (len(data["samples"]["socket_bandwidth"])
                == len(metrics.socket_bandwidth))

    def test_save_fleet_metrics(self, metrics, tmp_path):
        from repro.serialization import save_fleet_metrics
        path = tmp_path / "metrics.json"
        save_fleet_metrics(metrics, path)
        loaded = json.loads(path.read_text())
        assert loaded["epochs"] == 10

    def test_round_trip_is_lossless(self, metrics):
        from repro.serialization import (fleet_metrics_from_payload,
                                         fleet_metrics_to_dict,
                                         fleet_metrics_to_payload)
        payload = json.loads(json.dumps(fleet_metrics_to_payload(metrics)))
        restored = fleet_metrics_from_payload(payload)
        assert restored.socket_bandwidth == metrics.socket_bandwidth
        assert restored.machine_points == metrics.machine_points
        assert restored.total_qps == metrics.total_qps
        assert (fleet_metrics_to_dict(restored, include_samples=True)
                == fleet_metrics_to_dict(metrics, include_samples=True))

    def test_summary_only_dict_rejected(self, metrics):
        from repro.serialization import (fleet_metrics_from_payload,
                                         fleet_metrics_to_dict)
        with pytest.raises(TraceError):
            fleet_metrics_from_payload(fleet_metrics_to_dict(metrics))


class TestStudyResultSerialization:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.fleet import AblationStudy
        return AblationStudy(mode="off", machines=4, epochs=8,
                             warmup_epochs=2, seed=3).run()

    def test_function_stats_round_trip(self, result):
        from repro.serialization import (function_stats_from_dict,
                                         function_stats_to_dict)
        for name, stats in result.control_profile:
            restored = function_stats_from_dict(
                function_stats_to_dict(stats))
            assert restored == stats, name

    def test_profile_round_trip(self, result):
        from repro.serialization import (profile_data_from_dict,
                                         profile_data_to_dict)
        data = json.loads(json.dumps(
            profile_data_to_dict(result.control_profile)))
        restored = profile_data_from_dict(data)
        assert restored.samples == result.control_profile.samples
        assert restored.as_mapping() == result.control_profile.as_mapping()

    def test_ablation_result_round_trip(self, result):
        from repro.fleet import AblationResult
        from repro.serialization import ablation_result_to_dict
        payload = json.loads(json.dumps(result.to_dict()))
        restored = AblationResult.from_dict(payload)
        assert restored.mode == result.mode
        assert (restored.bandwidth_reduction()
                == result.bandwidth_reduction())
        assert (restored.function_cycle_deltas()
                == result.function_cycle_deltas())
        assert (ablation_result_to_dict(restored)
                == ablation_result_to_dict(result))

    def test_malformed_records_rejected(self):
        from repro.fleet import AblationResult
        from repro.serialization import profile_data_from_dict
        with pytest.raises(TraceError):
            profile_data_from_dict({"functions": "nope"})
        with pytest.raises(TraceError):
            AblationResult.from_dict({"mode": "off"})


class TestAtomicWriteText:
    def test_writes_and_returns_path(self, tmp_path):
        from repro.serialization import atomic_write_text
        target = tmp_path / "out.json"
        assert atomic_write_text(target, '{"a": 1}') == target
        assert target.read_text() == '{"a": 1}'

    def test_replaces_existing_content(self, tmp_path):
        from repro.serialization import atomic_write_text
        target = tmp_path / "out.json"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_leaves_no_temp_files(self, tmp_path):
        from repro.serialization import atomic_write_text
        atomic_write_text(tmp_path / "out.json", "data")
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failed_write_preserves_previous_content(self, tmp_path):
        """The atomicity promise: a reader never sees a torn file."""
        from repro.serialization import atomic_write_text

        target = tmp_path / "out.json"
        atomic_write_text(target, "intact")
        with pytest.raises(TypeError):
            atomic_write_text(target, object())  # not a str: write fails
        assert target.read_text() == "intact"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


class TestRolloutResultRoundTrip:
    def test_round_trip_is_lossless(self):
        from repro.fleet import RolloutResult, RolloutStudy
        from repro.serialization import rollout_result_to_dict
        result = RolloutStudy(machines=4, epochs=8, warmup_epochs=2,
                              seed=5).run()
        restored = RolloutResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert (rollout_result_to_dict(restored)
                == rollout_result_to_dict(result))

    def test_malformed_dict_rejected(self):
        from repro.fleet import RolloutResult
        with pytest.raises(TraceError):
            RolloutResult.from_dict({"not": "a rollout result"})


#: Every double, by bit pattern: NaNs with any payload and sign, signed
#: zeros, infinities and subnormals all occur.
_any_double = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
_edge_doubles = st.sampled_from([
    0.0, -0.0, float("inf"), float("-inf"), float("nan"), -float("nan"),
    5e-324, -5e-324, 2.2250738585072009e-308,
] + [struct.unpack("<d", bytes.fromhex(bits))[0] for bits in (
    "010000000000f87f",   # quiet NaN, payload 1
    "010000000000f07f",   # signalling NaN
    "efbeadde0000f8ff",   # negative NaN, payload 0xdeadbeef
)])


def _bits(values):
    return [struct.pack("<d", value) for value in values]


class TestPackedColumns:
    """The stored form packs each sample column as base64 doubles."""

    @settings(max_examples=scaled(200), deadline=None)
    @given(st.lists(st.one_of(_any_double, _edge_doubles,
                              st.floats(allow_nan=True)), max_size=40))
    def test_round_trip_is_bit_exact(self, values):
        from repro.serialization import pack_floats, unpack_floats
        restored = unpack_floats(pack_floats(values))
        assert _bits(restored) == _bits(values)

    def test_empty_column(self):
        from repro.serialization import pack_floats, unpack_floats
        assert pack_floats([]) == ""
        assert unpack_floats("") == []

    def test_little_endian_layout(self):
        import base64

        from repro.serialization import pack_floats
        assert base64.b64decode(pack_floats([1.0, -2.5])) == (
            struct.pack("<d", 1.0) + struct.pack("<d", -2.5))

    @pytest.mark.parametrize("text", [
        "not base64!",       # outside the alphabet
        "AAAAAAAA!AAA=",     # one stray byte a lenient decoder skips
        "AAAAAAAAAA",        # bad padding
        "AAAAAAAA",          # 6 bytes: not a whole double
        "AAAAAAAAAAAAAAAAAAAA",  # 15 bytes
        "\u00e9AAA",          # not ASCII
        ["AAAA"],            # not a string
    ])
    def test_malformed_column_rejected(self, text):
        from repro.serialization import unpack_floats
        with pytest.raises(TraceError):
            unpack_floats(text)

    def test_points_must_be_whole(self):
        from repro.serialization import pack_floats, unpack_points
        assert unpack_points(pack_floats([1.0, 2.0, 3.0, 4.0])) == [
            (1.0, 2.0, 3.0, 4.0)]
        with pytest.raises(TraceError):
            unpack_points(pack_floats([1.0, 2.0, 3.0]))


class TestStoredForm:
    """``to_payload`` is the cache/journal form; it rebuilds a result
    whose digest form is byte-identical to the original's."""

    @pytest.fixture(scope="class")
    def ablation(self):
        from repro.fleet import AblationStudy
        return AblationStudy(mode="hard", machines=4, epochs=8,
                             warmup_epochs=2, seed=3).run()

    @pytest.fixture(scope="class")
    def rollout(self):
        from repro.fleet import RolloutStudy
        return RolloutStudy(machines=4, epochs=8, warmup_epochs=2,
                            seed=5).run()

    def test_ablation_digest_survives_the_stored_form(self, ablation):
        from repro.serialization import (ablation_result_from_payload,
                                         ablation_result_to_dict,
                                         ablation_result_to_payload,
                                         canonical_json)
        text = canonical_json(ablation_result_to_payload(ablation))
        restored = ablation_result_from_payload(json.loads(text))
        assert (canonical_json(ablation_result_to_dict(restored))
                == canonical_json(ablation_result_to_dict(ablation)))
        assert ablation.to_dict() == json.loads(text)

    def test_rollout_digest_survives_the_stored_form(self, rollout):
        from repro.fleet import rollout_digest
        from repro.serialization import (canonical_json,
                                         rollout_result_from_payload,
                                         rollout_result_to_payload)
        text = canonical_json(rollout_result_to_payload(rollout))
        restored = rollout_result_from_payload(json.loads(text))
        assert rollout_digest(restored) == rollout_digest(rollout)
        assert rollout.to_dict() == json.loads(text)

    def test_stored_metrics_hold_no_summaries(self, ablation):
        from repro.serialization import fleet_metrics_to_payload
        data = fleet_metrics_to_payload(ablation.control)
        assert set(data) == {"epochs", "rejections", "total_qps",
                             "ideal_qps", "samples"}
        assert all(isinstance(column, str)
                   for column in data["samples"].values())

    def test_stored_form_is_smaller(self, ablation):
        from repro.serialization import (ablation_result_to_dict,
                                         ablation_result_to_payload,
                                         canonical_json)
        stored = canonical_json(ablation_result_to_payload(ablation))
        digest = canonical_json(ablation_result_to_dict(ablation))
        assert len(stored) < 0.75 * len(digest)

    def test_digest_form_is_not_a_payload(self, ablation):
        """The two forms are distinct: ``to_dict()`` is the stored form,
        not :func:`ablation_result_to_dict`, and the stored-form decoder
        rejects the digest form's samples."""
        from repro.fleet import AblationResult
        from repro.serialization import ablation_result_to_dict
        digest_form = ablation_result_to_dict(ablation)
        assert ablation.to_dict() != digest_form
        with pytest.raises(TraceError):
            AblationResult.from_dict(digest_form)
