"""Result goldens for the analytic fleet studies.

Each digest covers a whole study result, raw per-epoch samples and
profiles included, so any change to the fleet epoch model (socket solve,
scheduler, profiler, daemons) that moves one bit of one sample fails
here. The digests were computed before the socket solve was rewritten
and must never change under a pure performance refactor.

Builtin ``sum()`` over floats is compensated from Python 3.12 on, so
every float total in the model rounds differently there; each golden is
pinned once per summation semantics.
"""

import sys

import pytest

from repro.analysis.chaos import result_digest
from repro.faults.plan import FaultPlan
from repro.fleet import AblationStudy, RolloutStudy, rollout_digest

COMPENSATED_SUM = sys.version_info >= (3, 12)

PLAN = "seed=3;telemetry-drop:rate=0.1;msr-transient:rate=0.3;machine-crash:rate=0.05"
SMALL = dict(machines=6, epochs=10, warmup_epochs=4)
SERIAL = dict(workers=1, cache_dir="", checkpoint_dir="", obs_dir="")

#: name -> (digest with plain float sums, digest with compensated sums).
GOLDENS = {
    "rollout": (
        "b0cb59222b6dd299e4dceebc85fc05225717ab72c3923051abec8bcba3f426b1",
        "1e2fed53c5499d35e4718b0410fb05dab2912bdaebb63fd0eaa3a5b2b08868a4",
    ),
    "rollout-faulted": (
        "36252e3d95c5997230ca93b2af87fe1ca73be654ad44ed8e08113552d0562170",
        "ed7a2176a09d0e12d31ff927334904df6c517e40d9a45d408b2c32c2eab4a391",
    ),
    "ablation-hard": (
        "279963c76ca8bb7af8ffcfd1890c2fec263c90b6c979d4d4a419c173b3ed56cd",
        "a2a7be9cf0d41cdac28bc838027b6142f7f200edbbdc038e9ff798b3ec56927f",
    ),
    "ablation-hard+soft": (
        "7c09870c898325d9b13bba8ef03bde0ea238cc5fda094223502d8809fa09c58a",
        "19a46280b476426dfbe0b05addab429529930bd92b784755a0e5435e3446c910",
    ),
    "ablation-hard-faulted": (
        "7b628591f2222d9a025a0cdb066de46cc62728592ffb2fc1076423daed3c23c1",
        "84b5e4b77b54b8cff3d76d81555f8a668561f5f54f5f2e529d051cc8f9ba738d",
    ),
}


def golden(name):
    return GOLDENS[name][COMPENSATED_SUM]


def run_rollout(**extra):
    return rollout_digest(RolloutStudy(seed=5, **SMALL, **extra).run(**SERIAL))


def run_ablation(mode, **extra):
    return result_digest(AblationStudy(mode=mode, seed=9, **SMALL, **extra).run(**SERIAL))


def test_rollout_golden():
    assert run_rollout() == golden("rollout")


def test_faulted_sharded_rollout_golden():
    digest = run_rollout(shard_size=4, fault_plan=FaultPlan.parse(PLAN))
    assert digest == golden("rollout-faulted")


@pytest.mark.parametrize("mode", ["hard", "hard+soft"])
def test_ablation_golden(mode):
    assert run_ablation(mode) == golden(f"ablation-{mode}")


def test_faulted_sharded_ablation_golden():
    digest = run_ablation("hard", shard_size=4, fault_plan=FaultPlan.parse(PLAN))
    assert digest == golden("ablation-hard-faulted")


def test_rollout_digest_is_the_canonical_result_hash():
    """``rollout_digest`` is the hash the end-to-end benchmark pins."""
    import hashlib

    from repro.serialization import canonical_json, rollout_result_to_dict

    result = RolloutStudy(machines=2, epochs=3, warmup_epochs=1, seed=5).run(**SERIAL)
    payload = canonical_json(rollout_result_to_dict(result)).encode()
    assert rollout_digest(result) == hashlib.sha256(payload).hexdigest()
