"""Every namespaced seed helper draws from :func:`repro.seeds.stable_seed`,
and every value stays what the per-module BLAKE2b copies it replaced
produced (shard, machine, workload, fault and scenario streams)."""

import pytest

from repro.faults.plan import fault_rng, fault_seed
from repro.fleet.sweep import background_load, crashed
from repro.fleet.machine import machine_seed
from repro.fleet.shard import shard_seed
from repro.scenarios.workload import scenario_seed
from repro.seeds import stable_seed
from repro.workloads.irregular import workload_seed

PINNED = [
    (lambda: fault_seed(3, "sweep-load", 1, "m4"), 7754349935799320688),
    (lambda: scenario_seed(23, "tenant", "batch", 5), 9160505975962960196),
    (lambda: shard_seed(9, 0), 9),
    (lambda: shard_seed(9, 3), 5558633042948043991),
    (lambda: machine_seed("m7"), 682855706989653224),
    (lambda: workload_seed("pointer_chase"), 6744577915981226491),
]


@pytest.mark.parametrize("draw, expected", PINNED,
                         ids=["fault", "scenario", "shard-0", "shard-3",
                              "machine", "workload"])
def test_seed_values_are_unchanged(draw, expected):
    assert draw() == expected


def test_namespaces_separate_equal_parts():
    assert stable_seed("fault", 1) != stable_seed("scenario", 1)
    assert 0 <= stable_seed("shard", 9, 3) < 2 ** 63


def test_sweep_draws_share_the_fault_stream():
    """The sweep's per-arm draws come from the injectors' stream family
    without importing ``repro.faults``."""
    assert background_load(3, 1, "m4") == fault_rng(3, "sweep-load", 1, "m4").uniform(0.0, 2.0)
    assert crashed(3, 1, "m4", 0.5) == (fault_rng(3, "sweep-crash", 1, "m4").random() < 0.5)
