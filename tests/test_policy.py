"""The policy protocol: serialization, the daemon adapter, baselines.

The headline invariants: every policy round-trips byte-identically
through canonical JSON, and a fleet running either policy kind is
numerically indistinguishable from the same controller deployed
directly — :class:`HysteresisPolicy` from the stock Hard Limoncello
deployment, :class:`SingleThresholdPolicy` from
:class:`~repro.core.controller.SingleThresholdController` — so the
policy layer is a refactor seam, not a behavior change.
"""

import json

import pytest

from repro.core.config import LimoncelloConfig
from repro.core.controller import SingleThresholdController
from repro.errors import ConfigError, TelemetryError
from repro.fleet import AblationStudy, Fleet
from repro.policy import (DEFAULT_PREFETCHERS, HysteresisPolicy,
                          PolicyController, PolicyMetrics,
                          SingleThresholdPolicy, policy_digest,
                          policy_from_dict, policy_from_spec)
from repro.serialization import (ablation_result_from_dict,
                                 ablation_result_to_dict, canonical_json,
                                 fleet_metrics_to_dict)
from repro.units import SECOND


class TestSerialization:
    @pytest.mark.parametrize("policy", [
        HysteresisPolicy(),
        HysteresisPolicy(LimoncelloConfig.from_percent(50, 90)),
        SingleThresholdPolicy(threshold=0.7),
        SingleThresholdPolicy(threshold=0.6,
                              prefetchers=("l2_stream", "l1_stride")),
    ])
    def test_round_trip_byte_identical(self, policy):
        payload = policy.to_dict()
        clone = policy_from_dict(payload)
        assert canonical_json(clone.to_dict()) == canonical_json(payload)
        assert policy_digest(clone) == policy_digest(policy)

    def test_from_spec_accepts_policy_dict_and_json(self):
        policy = SingleThresholdPolicy(threshold=0.65)
        for spec in (policy, policy.to_dict(),
                     canonical_json(policy.to_dict())):
            rebuilt = policy_from_spec(spec)
            assert rebuilt is not policy
            assert rebuilt.to_dict() == policy.to_dict()

    def test_from_spec_clones(self):
        """Shared specs must never share mutable state across sockets:
        a clone's hysteresis timer runs without touching the original's."""
        policy = HysteresisPolicy()
        clone = policy_from_spec(policy)
        for step in range(6):
            clone.decide(step * SECOND, 0.95)
        assert not any(clone.decide(6 * SECOND, 0.95).values())
        assert all(policy.decide(0.0, 0.95).values())
        assert policy.to_dict() == clone.to_dict()  # config-only form

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown policy kind"):
            policy_from_dict({"schema": 1, "kind": "nope"})

    def test_schema_mismatch_rejected(self):
        payload = SingleThresholdPolicy().to_dict()
        payload["schema"] = 99
        with pytest.raises(ConfigError, match="schema"):
            policy_from_dict(payload)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ConfigError):
            SingleThresholdPolicy(threshold=0.0)
        with pytest.raises(ConfigError):
            SingleThresholdPolicy(threshold=1.5)


class TestPolicyController:
    def test_single_threshold_flips_immediately(self):
        controller = PolicyController(SingleThresholdPolicy(threshold=0.8))
        assert controller.observe(0.0, 0.5).prefetchers_enabled
        decision = controller.observe(1 * SECOND, 0.9)
        assert not decision.prefetchers_enabled
        assert decision.changed
        assert controller.observe(2 * SECOND, 0.5).prefetchers_enabled

    def test_time_moving_backwards_rejected(self):
        controller = PolicyController(SingleThresholdPolicy())
        controller.observe(2 * SECOND, 0.5)
        with pytest.raises(TelemetryError):
            controller.observe(1 * SECOND, 0.5)

    def test_metrics_accumulate(self):
        config = LimoncelloConfig()
        controller = PolicyController(
            SingleThresholdPolicy(threshold=config.upper_threshold),
            config=config)
        controller.observe(0.0, 0.9)          # out of band, disabled: OK
        controller.observe(1 * SECOND, 0.3)   # out of band, enabled: OK
        metrics = controller.policy_metrics
        assert metrics.samples == 2
        assert metrics.disabled_samples == 1
        assert metrics.band_samples == 2
        assert metrics.band_mismatches == 0
        assert metrics.duty_cycle_error() == 0.0
        for name in DEFAULT_PREFETCHERS:
            assert metrics.prefetcher_disabled[name] == 1

    def test_reset_restores_boot_state_keeps_metrics(self):
        controller = PolicyController(SingleThresholdPolicy(threshold=0.5))
        controller.observe(0.0, 0.9)
        assert not controller.prefetchers_enabled
        controller.reset()
        assert controller.prefetchers_enabled
        assert all(controller.prefetcher_decisions.values())
        assert controller.policy_metrics.samples == 1
        # time may restart from zero after a machine restart
        controller.observe(0.0, 0.2)


class TestMetricsMerge:
    def test_merge_is_additive(self):
        left = PolicyMetrics(samples=4, disabled_samples=1,
                             band_mismatches=1, band_samples=3,
                             transitions=2,
                             prefetcher_disabled={"l1_stride": 1})
        right = PolicyMetrics(samples=6, disabled_samples=2,
                              band_mismatches=0, band_samples=5,
                              transitions=1,
                              prefetcher_disabled={"l1_stride": 2,
                                                   "l2_stream": 1})
        left.merge(right)
        assert left.samples == 10
        assert left.band_samples == 8
        assert left.duty_cycle_error() == pytest.approx(1 / 8)
        assert left.prefetcher_disabled == {"l1_stride": 3, "l2_stream": 1}


class TestHysteresisEquivalence:
    def test_policy_fleet_matches_stock_hard_deployment(self):
        """HysteresisPolicy is the stock controller behind the adapter:
        same config, same fleet, same numbers."""
        config = LimoncelloConfig(sample_period_ns=10 * SECOND,
                                  sustain_duration_ns=30 * SECOND)
        stock = AblationStudy(mode="hard", machines=6, epochs=12,
                              warmup_epochs=3, seed=7, config=config).run()
        via_policy = AblationStudy(
            mode="hard", machines=6, epochs=12, warmup_epochs=3, seed=7,
            config=config, policy=HysteresisPolicy(config)).run()
        assert via_policy.throughput_change() == stock.throughput_change()
        assert via_policy.bandwidth_reduction() == stock.bandwidth_reduction()
        assert via_policy.latency_reduction() == stock.latency_reduction()


class TestSingleThresholdEquivalence:
    def test_policy_fleet_matches_the_single_threshold_controller(self):
        """SingleThresholdPolicy is SingleThresholdController behind the
        adapter: same fleet, same metrics, same socket toggles."""
        config = LimoncelloConfig(sample_period_ns=10 * SECOND,
                                  sustain_duration_ns=30 * SECOND)

        def run(deploy):
            fleet = Fleet(machines=8, seed=21)
            deploy(fleet)
            fleet.run(10)
            metrics = fleet.run(30)
            toggles = sum(socket.toggles for machine in fleet.machines
                          for socket in machine.sockets)
            return (canonical_json(fleet_metrics_to_dict(
                metrics, include_samples=True)), toggles)

        direct = run(lambda fleet: fleet.deploy_hard_limoncello(
            config, lambda ident: SingleThresholdController(0.8,
                                                            ident=ident)))
        via_policy = run(lambda fleet: fleet.deploy_policy(
            SingleThresholdPolicy(0.8), config))
        assert via_policy == direct
        assert direct[1] > 0


class TestResultSerialization:
    def test_policy_metrics_round_trip(self):
        study = AblationStudy(mode="hard", machines=4, epochs=8,
                              warmup_epochs=2, seed=3,
                              policy=SingleThresholdPolicy(threshold=0.7))
        result = study.run()
        assert result.policy_metrics is not None
        assert result.policy_metrics.samples > 0
        payload = ablation_result_to_dict(result)
        text = canonical_json(payload)
        rebuilt = ablation_result_from_dict(json.loads(text))
        assert canonical_json(ablation_result_to_dict(rebuilt)) == text
        assert rebuilt.policy_metrics.samples == result.policy_metrics.samples

    def test_policy_free_payload_has_no_policy_metrics(self):
        result = AblationStudy(mode="off", machines=4, epochs=6,
                               warmup_epochs=2, seed=3).run()
        payload = ablation_result_to_dict(result)
        assert "policy_metrics" not in payload


class TestStudyValidation:
    def test_policy_requires_daemon_mode(self):
        with pytest.raises(ConfigError, match="daemon-running mode"):
            AblationStudy(mode="off", policy=SingleThresholdPolicy())

    def test_cache_key_unchanged_without_policy(self):
        """Pre-existing cache entries must keep resolving: the policy
        field enters key material only when set."""
        material = AblationStudy(mode="hard", machines=8, epochs=10,
                                 seed=3).cache_key_material()
        assert "policy" not in material
        with_policy = AblationStudy(
            mode="hard", machines=8, epochs=10, seed=3,
            policy=SingleThresholdPolicy()).cache_key_material()
        assert with_policy["policy"]["kind"] == "single-threshold"
