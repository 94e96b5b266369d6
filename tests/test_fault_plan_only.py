"""Faults enter a study one way: through its :class:`FaultPlan`.

The crash-only studies (sweep, call-graph and noisy-neighbor scenarios)
take their crash rate from the plan's ``machine-crash`` clause. Their
cache keys, shard-task keys and digests hold that rate, not the plan,
so the pinned values below — computed when the studies still took an
explicit ``crash_rate=0.25`` — must come back unchanged from
``machine-crash:rate=0.25``.
"""

import argparse
import hashlib

import pytest

from repro.cli.commands import _resolve_fault_plan
from repro.cli.main import build_parser
from repro.core.config import LimoncelloConfig, RetryPolicy
from repro.faults import FaultPlan
from repro.fleet import (AblationStudy, Fleet, Machine, MicroFleetSweep,
                         PLATFORM_1, RolloutStudy, sweep_digest)
from repro.scenarios import (CallGraphScenario, NoisyNeighborScenario,
                             callgraph_digest, noisy_digest)
from repro.serialization import canonical_json
from repro.telemetry import PerfBandwidthSampler, ScriptedBandwidthSource

CRASH_25 = "machine-crash:rate=0.25"


def sha(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def sweep(**faults):
    return MicroFleetSweep(mode="off", machines=9, seed=3, scale=0.05,
                           shard_size=4, **faults)


def callgraph(**faults):
    return CallGraphScenario(services="edge:mixed:2:8>leaf*2;leaf:random:1:6",
                             requests=6, seed=5, mode="off", **faults)


def noisy(**faults):
    return NoisyNeighborScenario(tenants="lat:stream:6,bat:random:10",
                                 machines=3, epochs=4, seed=7, mode="hard",
                                 sustain_ns=20_000.0, **faults)


#: (factory, digest, result digest, cache-key sha, shard-task sha, down).
PINNED = {
    "sweep": (
        sweep, sweep_digest,
        "de0a5a7317385830033f90e9a36af2b022228071e651c56a5ce6205432ecda54",
        "9859f0d24fe79605044c7ce6885d4ca9c377369738ab12ec34874a8d202ee09c",
        "3c41ed4b913582e18480fd141a7dc0aa5e7e3f0b11d2f37d84408c4dc585590e",
        3),
    "callgraph": (
        callgraph, callgraph_digest,
        "7b06443ef59707594f06ed00291acd1552fb7089b7ba0055d6011bb19a2ac8bb",
        "6351d5de3dd74a85fcd849f5b5537d5db55893a3ee30cc881e89947e2ec0017b",
        "b8ffb1f2c77d9321db234a81e7627822feca8bddb9ab37c99d60b239dbe77c85",
        1),
    "noisy": (
        noisy, noisy_digest,
        "21b3e7197d199737a24a55bca58dfc2078bc437da2bddf3d5e4aa3d2107e80fd",
        "095cee8c2b993d14cc023613c2d9951b9f51e486877ef750e4e3fb00687a853c",
        "2085b12ca2ed986689d276d4f243d9951d4c9229953b7ecd346263ee1c8c237e",
        1),
}


#: The paper studies' journal keys: ``(study, faulted) -> (cache-key sha,
#: shard-task sha)``. Faulted runs pair a plan with a non-default retry
#: policy, so both optional key blocks are covered.
PAPER_KEYS = {
    ("ablation", False): (
        "51d2979b1e1983adbeac0b4d568883396639a445e5678f9a4688b0ff6ca7ccb0",
        "5ebfc4221951fbf3896ff3d994a95f3aa878687c7e26f025a9fd3bd82e113e5a"),
    ("ablation", True): (
        "0e1bf7e26b039393aff8ae05cf13bbde6ab5d49dc692e860cd2b78a91b996cef",
        "d6d7fa9c64f44a26eafc4b4bd895ac8f9b6e190b2870e7bd76430916556dc7c4"),
    ("rollout", False): (
        "cb5b1877085e5aa2fe9da2193813888f1dd9410abf2babb49cc6d39d753086ba",
        "e493c99c1a34611bc009f48484cf301803f6076fb8a243db5111629622ab06cd"),
    ("rollout", True): (
        "eb76db5edb996d2f322ba60d2e736cad1570dda46ef35c1911f2cb5713578275",
        "4b2327924a863cbe474095a0c3839101f85050113314f176d2a89d1298a79d87"),
}

PAPER_STUDIES = {
    "ablation": lambda **extra: AblationStudy(
        mode="hard", machines=10, epochs=8, warmup_epochs=2, seed=4,
        shard_size=4, **extra),
    "rollout": lambda **extra: RolloutStudy(
        machines=10, epochs=8, warmup_epochs=2, seed=6, shard_size=4,
        **extra),
}


@pytest.mark.parametrize("name, faulted", sorted(PAPER_KEYS))
def test_paper_study_keys_are_pinned(name, faulted):
    extra = {}
    if faulted:
        extra = dict(
            fault_plan=FaultPlan.parse(
                "seed=2;telemetry-blackout:start=200,duration=80;"
                "machine-crash:rate=0.05"),
            config=LimoncelloConfig(retry_policy=RetryPolicy(
                max_attempts=3, initial_backoff_ns=2e9)))
    study = PAPER_STUDIES[name](**extra)
    key_sha, tasks_sha = PAPER_KEYS[name, faulted]
    assert sha(study.cache_key_material()) == key_sha
    assert sha(study.shard_task_materials()) == tasks_sha


@pytest.mark.parametrize("name", sorted(PINNED))
def test_plan_reproduces_the_explicit_rate(name):
    factory, digest, result_sha, key_sha, tasks_sha, down = PINNED[name]
    study = factory(fault_plan=FaultPlan.parse(CRASH_25))
    assert study.crash_rate == 0.25
    assert sha(study.cache_key_material()) == key_sha
    assert sha(study.shard_task_materials()) == tasks_sha
    result = study.run(workers=1, cache_dir="", checkpoint_dir="")
    assert result.down == down
    assert digest(result) == result_sha


@pytest.mark.parametrize("name", sorted(PINNED))
def test_studies_take_no_crash_rate_of_their_own(name):
    with pytest.raises(TypeError):
        PINNED[name][0](crash_rate=0.25)


def test_telemetry_drops_have_no_second_switch():
    source = ScriptedBandwidthSource([(0.0, 1.0)], saturation_bandwidth=10.0)
    with pytest.raises(TypeError):
        PerfBandwidthSampler(source, dropout_rate=0.5)
    with pytest.raises(TypeError):
        Machine("m", PLATFORM_1, telemetry_dropout=0.5)
    with pytest.raises(TypeError):
        Fleet(machines=1, telemetry_dropout=0.5)


@pytest.mark.parametrize("command", [["sweep"], ["scenario", "callgraph"],
                                     ["scenario", "noisy"]])
def test_cli_has_no_crash_rate_flag(command, capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(command + ["--crash-rate", "0.25"])
    args = parser.parse_args(command + ["--fault-plan", CRASH_25])
    assert _resolve_fault_plan(args) == FaultPlan.parse(CRASH_25)


def test_the_environment_does_not_fault_a_study(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_PLAN", CRASH_25)
    assert _resolve_fault_plan(argparse.Namespace(fault_plan=None)) is None


def test_noisy_baseline_twin_keeps_the_plan_crash_rate():
    twin = noisy(fault_plan=FaultPlan.parse(CRASH_25)).baseline_twin()
    assert twin.mode == "enabled"
    assert twin.crash_rate == 0.25
