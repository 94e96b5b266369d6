"""Scenario subsystem tests: call graphs, noisy neighbors, determinism.

The scenario studies ride the same sharded/cached/checkpointed rails as
the fleet studies, so the same invariants must hold: results are
bit-identical across worker counts, shard sizes, and engines (proven by
digests), merges are associative, per-tenant attribution sums exactly
to the socket totals, and cache/checkpoint round-trips replay rather
than recompute.
"""

import copy
import hashlib
import re

import pytest
from tests.hypothesis_profiles import scaled
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.scenarios import (CallGraphResult, CallGraphScenario,
                             DEFAULT_SERVICES, DEFAULT_TENANTS,
                             NoisyNeighborScenario, ServiceSpec,
                             TenantSpec, WORKLOAD_KINDS, callgraph_digest,
                             noisy_digest, parse_services, parse_tenants,
                             run_noisy_shard, scenario_seed)
from repro.serialization import canonical_json

#: A small two-level graph cheap enough for determinism legs.
SMALL_SERVICES = "edge:mixed:2:8>leaf*2;leaf:random:1:6"
SMALL_TENANTS = "lat:stream:6,bat:random:10"


def small_callgraph(**overrides):
    kwargs = dict(services=SMALL_SERVICES, requests=6, seed=5, mode="off")
    kwargs.update(overrides)
    return CallGraphScenario(**kwargs)


def small_noisy(**overrides):
    kwargs = dict(tenants=SMALL_TENANTS, machines=3, epochs=4, seed=7,
                  mode="hard", sustain_ns=20_000.0)
    kwargs.update(overrides)
    return NoisyNeighborScenario(**kwargs)


class TestScenarioSeed:
    def test_stable_and_distinct(self):
        assert scenario_seed(3, "request", "auth", 0) == scenario_seed(
            3, "request", "auth", 0)
        assert scenario_seed(3, "request", "auth", 0) != scenario_seed(
            3, "request", "auth", 1)
        assert scenario_seed(3, "load", "auth", 0) != scenario_seed(
            3, "request", "auth", 0)


class TestParseServices:
    def test_default_topology(self):
        services = parse_services(DEFAULT_SERVICES)
        assert [s.name for s in services] == ["frontend", "auth", "cache",
                                              "storage"]
        frontend = services[0]
        assert frontend.calls == (("auth", 1), ("cache", 2))
        assert frontend.kind == "mixed"
        assert frontend.replicas == 2

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigError):
            parse_services("a:stream:2")

    def test_bad_fanout_edge_rejected(self):
        with pytest.raises(ConfigError):
            parse_services("a:stream:1:8>b")

    @pytest.mark.parametrize("text", ["a:stream:1:4>b*x;b:stream:1:4",
                                      "a:stream:1:4>b*;b:stream:1:4"])
    def test_non_integer_fanout_count_rejected(self, text):
        edge = text.split(">")[1].split(";")[0]
        with pytest.raises(ConfigError, match=re.escape(repr(edge))):
            parse_services(text)

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            parse_services("a:swizzle:1:8")

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            parse_services(" ; ")

    def test_unknown_child_rejected(self):
        with pytest.raises(ConfigError):
            CallGraphScenario(services="a:stream:1:8>ghost*1")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            CallGraphScenario(services="a:stream:1:8;a:random:1:8")

    def test_cycle_rejected(self):
        with pytest.raises(ConfigError) as excinfo:
            CallGraphScenario(
                services="a:stream:1:8>b*1;b:random:1:8>a*1")
        assert "cycle" in str(excinfo.value)

    def test_nonpositive_fields_rejected(self):
        with pytest.raises(ConfigError):
            ServiceSpec(name="a", kind="stream", replicas=0)
        with pytest.raises(ConfigError):
            ServiceSpec(name="a", kind="stream", request_lines=0)
        with pytest.raises(ConfigError):
            ServiceSpec(name="a", kind="stream", calls=(("b", 0),))


class TestParseTenants:
    def test_default_pair(self):
        tenants = parse_tenants(DEFAULT_TENANTS)
        assert [t.name for t in tenants] == ["latency", "batch"]
        assert tenants[0].kind == "stream"
        assert tenants[1].lines == 96
        assert all(t.throttle == 1.0 for t in tenants)

    def test_throttle_parsed_and_applied(self):
        tenant, = parse_tenants("bat:random:40:0.25")
        assert tenant.throttle == 0.25
        assert tenant.effective_lines == 10

    def test_throttle_floor_is_one_line(self):
        assert TenantSpec("t", "random", lines=4,
                          throttle=0.1).effective_lines == 1

    def test_bad_specs_rejected(self):
        for text in ("bat", "bat:random", "bat:random:x",
                     "bat:swizzle:8", ""):
            with pytest.raises(ConfigError):
                parse_tenants(text)

    def test_throttle_bounds_rejected(self):
        for throttle in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                TenantSpec("t", "random", lines=8, throttle=throttle)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            NoisyNeighborScenario(tenants="a:stream:4,a:random:4")


class TestCallGraphDeterminism:
    def test_serial_equals_sharded_workers(self):
        serial = small_callgraph().run(workers=1)
        sharded = small_callgraph().run(workers=2)
        assert callgraph_digest(serial) == callgraph_digest(sharded)

    def test_batched_equals_scalar(self):
        from repro.memsys.hierarchy import reference_engine

        batched = small_callgraph().run()
        with reference_engine():
            scalar = small_callgraph().run()
        assert batched.occupancy.batched_arms > 0
        assert scalar.occupancy.batched_arms == 0
        assert callgraph_digest(batched) == callgraph_digest(scalar)

    def test_seed_changes_result(self):
        assert callgraph_digest(small_callgraph().run()) != callgraph_digest(
            small_callgraph(seed=6).run())

    def test_merge_mismatch_rejected(self):
        result = small_callgraph().run()
        other = copy.deepcopy(result)
        other.mode = "control"
        with pytest.raises(ConfigError):
            result.merge(other)

    def test_row_order_is_plan_order(self):
        result = small_callgraph().run(workers=2)
        assert [row["service"] for row in result.rows] == (
            ["edge"] * 2 + ["leaf"])


class TestCallGraphSLO:
    def test_end_to_end_assembly(self):
        scenario = small_callgraph()
        result = scenario.run()
        e2e = scenario.end_to_end_latencies(result)
        assert len(e2e) == scenario.requests
        edge_rows = [row for row in result.rows if row["service"] == "edge"]
        leaf_rows = [row for row in result.rows if row["service"] == "leaf"]
        for index in range(scenario.requests):
            own = edge_rows[index % 2]["request_latency_ns"][index]
            child = leaf_rows[0]["request_latency_ns"][index]
            expected = own + 2 * (scenario.rpc_overhead_ns + child)
            assert e2e[index] == pytest.approx(expected, rel=1e-12)

    def test_slo_summary_percentiles_ordered(self):
        scenario = small_callgraph()
        slo = scenario.slo_summary(scenario.run())
        assert 0 < slo.p50 <= slo.p90 <= slo.p99 <= slo.peak

    def test_all_down_service_fails_fast(self):
        # A hand-built result with the leaf entirely down: the edge
        # still pays the RPC overhead, the leaf contributes zero own
        # latency.
        scenario = small_callgraph(requests=2)
        result = scenario.run()
        for row in result.rows:
            if row["service"] == "leaf":
                row["down"] = True
        e2e = scenario.end_to_end_latencies(result)
        edge_rows = [row for row in result.rows if row["service"] == "edge"]
        for index in range(2):
            own = edge_rows[index % 2]["request_latency_ns"][index]
            assert e2e[index] == pytest.approx(
                own + 2 * scenario.rpc_overhead_ns, rel=1e-12)

    def test_service_summary_none_when_all_down(self):
        result = CallGraphResult(mode="off", requests=1, replicas=1,
                                 down=1, rows=[{
                                     "service": "a", "replica": "a/r0",
                                     "external_load": 0.0, "down": True,
                                     "elapsed_ns": 0.0, "llc_misses": 0,
                                     "dram_demand_bytes": 0,
                                     "dram_wait_ns": 0.0,
                                     "request_latency_ns": []}])
        assert result.service_summary("a") is None

    def test_fault_plan_supplies_crash_rate(self):
        plan = FaultPlan.parse("seed=3;machine-crash:rate=0.5")
        scenario = small_callgraph(fault_plan=plan)
        assert scenario.crash_rate == 0.5
        assert small_callgraph().crash_rate == 0.0

    def test_daemon_fault_kinds_are_rejected(self):
        plan = FaultPlan.parse("seed=3;msr-transient:rate=0.5")
        with pytest.raises(ConfigError, match="msr-transient"):
            small_callgraph(fault_plan=plan)


class TestNoisyFaultPlan:
    def test_fault_plan_supplies_crash_rate(self):
        plan = FaultPlan.parse("seed=3;machine-crash:rate=0.5")
        assert small_noisy(fault_plan=plan).crash_rate == 0.5
        assert small_noisy().crash_rate == 0.0

    def test_daemon_fault_kinds_are_rejected(self):
        """The scenario injects only machine crashes, so a telemetry
        clause would silently inject nothing."""
        plan = FaultPlan.parse("seed=3;telemetry-blackout:start=1,duration=2")
        with pytest.raises(ConfigError, match="telemetry-blackout"):
            small_noisy(fault_plan=plan)


class TestNoisyDeterminism:
    def test_shard_size_invariance(self):
        whole = small_noisy(shard_size=32).run()
        split = small_noisy(shard_size=1).run()
        assert noisy_digest(whole) == noisy_digest(split)

    def test_worker_invariance(self):
        serial = small_noisy(shard_size=1).run(workers=1)
        parallel = small_noisy(shard_size=1).run(workers=2)
        assert noisy_digest(serial) == noisy_digest(parallel)

    def test_cache_round_trip(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = small_noisy()
        digest = noisy_digest(first.run(cache_dir=cache_dir))
        second = small_noisy()
        replayed = second.run(cache_dir=cache_dir)
        assert noisy_digest(replayed) == digest
        assert second.queue_stats is None  # whole-study cache hit

    def test_checkpoint_restores_all_shards(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        first = small_noisy(shard_size=1)
        digest = noisy_digest(first.run(checkpoint_dir=checkpoint))
        assert first.queue_stats.computed == 3
        second = small_noisy(shard_size=1)
        replayed = second.run(checkpoint_dir=checkpoint)
        assert noisy_digest(replayed) == digest
        assert second.queue_stats.restored == 3
        assert second.queue_stats.computed == 0

    def test_obs_session_is_deterministic(self, tmp_path):
        import pathlib
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        small_noisy(shard_size=1).run(workers=1, obs_dir=str(serial_dir))
        small_noisy(shard_size=1).run(workers=2, obs_dir=str(parallel_dir))

        def events(root):
            run_dir = pathlib.Path(root)
            assert (run_dir / "manifest.json").exists()
            return (run_dir / "events.jsonl").read_text()

        assert events(serial_dir) == events(parallel_dir)

    def test_mode_changes_result(self):
        assert noisy_digest(small_noisy().run()) != noisy_digest(
            small_noisy(mode="enabled").run())

    def test_baseline_twin_is_enabled_same_traffic(self):
        scenario = small_noisy()
        twin = scenario.baseline_twin()
        assert twin.mode == "enabled"
        assert twin.seed == scenario.seed
        assert twin.tenants == scenario.tenants

    def test_the_removed_policy_mode_is_unknown(self):
        with pytest.raises(ConfigError):
            small_noisy(mode="policy")
        material = small_noisy(mode="single-threshold").cache_key_material()
        assert material["mode"] == "single-threshold"
        assert "policy" not in material

    def test_single_threshold_mode_flips_where_hysteresis_holds(self):
        straw_man = small_noisy(mode="single-threshold", upper=0.5,
                                lower=0.25).run()
        hysteresis = small_noisy(upper=0.5, lower=0.25).run()
        assert straw_man.machines == 3
        assert straw_man.transitions() > hysteresis.transitions()
        assert 0.0 < straw_man.duty_cycle_disabled() <= 1.0

    @pytest.mark.parametrize("kwargs, expected", [
        (dict(seed=23, machines=6, epochs=12, shard_size=3),
         "c7be1cb1c4630d8c1401d754d61fbf9b37901393d3f5216df57c2a02d48e531f"),
        (dict(machines=4, epochs=8, shard_size=2,
              fault_plan=FaultPlan.parse("machine-crash:rate=0.25")),
         "7e6587b2701d3461102630fbb5fb2bdc42bbc249c04f2d7bec6a0a970473c4bc"),
    ], ids=["default", "crashes"])
    def test_single_threshold_rows_are_pinned(self, kwargs, expected):
        """Pinned from the pre-removal policy path (a single-threshold
        policy behind its daemon adapter), so the direct controller
        reproduces the rows it gave; only ``mode`` differs."""
        result = NoisyNeighborScenario(mode="single-threshold",
                                       **kwargs).run()
        data = result.to_dict()
        data.pop("mode")
        assert hashlib.sha256(
            canonical_json(data).encode()).hexdigest() == expected


class TestNoisyInterference:
    def test_hard_mode_helps_hostile_hurts_streaming(self):
        # The headline tension at the default scale: the socket-level
        # disable slows the streaming tenant's P99 and does not slow the
        # random-lookup antagonist.
        scenario = NoisyNeighborScenario(machines=4, epochs=8, seed=23,
                                         mode="hard", sustain_ns=20_000.0)
        result = scenario.run()
        assert result.duty_cycle_disabled() > 0.0
        assert result.transitions() > 0
        baseline = scenario.baseline_twin().run()
        comparison = scenario.compare_to_baseline(result, baseline)
        assert comparison["latency"]["p99"] > 0.0
        assert comparison["batch"]["p99"] <= 0.0

    def test_throttle_reduces_antagonist_share(self):
        full = small_noisy(mode="enabled").run()
        throttled = small_noisy(tenants="lat:stream:6,bat:random:10:0.4",
                                mode="enabled").run()
        assert (throttled.bandwidth_shares()["bat"]
                < full.bandwidth_shares()["bat"])

    def test_disabled_mode_has_full_duty_cycle(self):
        result = small_noisy(mode="disabled").run()
        assert result.duty_cycle_disabled() == 1.0
        assert result.transitions() == 0


# --- hypothesis properties -------------------------------------------------------

tenant_kind = st.sampled_from(WORKLOAD_KINDS)
tenant_lines = st.integers(min_value=1, max_value=12)


def build_tenants(kinds_and_lines):
    return tuple(TenantSpec(name=f"t{index}", kind=kind, lines=lines)
                 for index, (kind, lines) in enumerate(kinds_and_lines))


class TestTenantAttributionProperties:
    @settings(max_examples=scaled(10), deadline=None)
    @given(st.lists(st.tuples(tenant_kind, tenant_lines),
                    min_size=2, max_size=3),
           st.sampled_from(("enabled", "disabled", "hard")),
           st.integers(min_value=0, max_value=2 ** 20))
    def test_tenant_bytes_sum_exactly_to_socket_total(
            self, kinds_and_lines, mode, seed):
        """Per-tenant demand bytes are an exact partition of the socket
        total under co-location — attribution never loses or invents a
        byte, in any controller mode."""
        scenario = NoisyNeighborScenario(
            tenants=build_tenants(kinds_and_lines), machines=2, epochs=3,
            seed=seed, mode=mode, sustain_ns=15_000.0)
        result = scenario.run()
        total = result.total_demand_bytes()
        attributed = sum(result.tenant_demand_bytes(name)
                         for name in result.tenant_names)
        assert attributed == total  # exact ints, no tolerance
        shares = result.bandwidth_shares()
        if total:
            assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)
        else:
            assert all(value == 0.0 for value in shares.values())


@pytest.fixture(scope="module")
def noisy_shards():
    """Four single-machine shard results from one scenario, simulated
    once and deep-copied per example."""
    scenario = NoisyNeighborScenario(
        tenants=SMALL_TENANTS, machines=4, epochs=3, seed=11,
        mode="hard", sustain_ns=15_000.0, shard_size=1)
    return [run_noisy_shard(spec) for spec in scenario.shard_specs()]


class TestNoisyMergeProperties:
    @settings(max_examples=scaled(20), deadline=None)
    @given(st.integers(min_value=1, max_value=3))
    def test_merge_associative_at_any_split(self, noisy_shards, split):
        """``(a+b)+c == a+(b+c)`` for any grouping of the shard stream —
        the algebra that makes serial == sharded bit-identical."""
        shards = [copy.deepcopy(shard) for shard in noisy_shards]
        left = shards[0]
        for shard in shards[1:split]:
            left.merge(shard)
        rest = shards[split]
        for shard in shards[split + 1:]:
            rest.merge(shard)
        grouped = left.merge(rest)

        flat = copy.deepcopy(noisy_shards[0])
        for shard in noisy_shards[1:]:
            flat.merge(copy.deepcopy(shard))
        assert noisy_digest(grouped) == noisy_digest(flat)

    def test_merged_equals_serial_run(self, noisy_shards):
        scenario = NoisyNeighborScenario(
            tenants=SMALL_TENANTS, machines=4, epochs=3, seed=11,
            mode="hard", sustain_ns=15_000.0, shard_size=32)
        flat = copy.deepcopy(noisy_shards[0])
        for shard in noisy_shards[1:]:
            flat.merge(copy.deepcopy(shard))
        assert noisy_digest(scenario.run()) == noisy_digest(flat)
