"""The four end-to-end workloads: paper studies run through their public
study APIs, one closed-loop client, one study at a time, ``workers=1``.

Each workload is committed at one study seed and one size, with the
sha256 digest of its result and its simulated-work count at that seed.
Host time is what the benchmark measures; simulated results are the
correctness check, and they must stay bit-identical. ``quick`` sizes
exist for the harness smoke test and carry digests of their own.

Nothing here imports :mod:`repro` at module level: a setup probe times
``import repro`` itself.
"""

from __future__ import annotations

import hashlib
import pathlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple


@dataclass(frozen=True)
class Size:
    """One committed study size: constructor parameters, the result
    digest at the workload's seed, and the simulated work it performs."""

    params: Dict
    digest: str
    work: int


@dataclass
class Outcome:
    """What one workload run produced."""

    digest: str
    work: int
    #: The result's ``BatchOccupancy`` as a dict (trace workloads only).
    occupancy: Optional[Dict] = None
    #: Shard-journal restores over shards, on the resumed run.
    restored_frac: float = 0.0
    #: Lines written to ``events.jsonl`` across the run's obs sessions.
    obs_events: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    full: Size
    quick: Size
    #: What one unit of ``work`` is.
    work_unit: str
    #: Layers that must record spans on every traced run.
    layers: Tuple[str, ...]
    #: ``(seed, params) -> inputs``: everything built before a study runs.
    build: Callable
    #: ``(inputs, scratch dir) -> results``: one study run, the timed part.
    run: Callable
    #: ``(inputs, results, scratch dir) -> Outcome``: digests and counts,
    #: computed after the clock stops.
    check: Callable


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# --- fleet-rollout: the Fig 16-20 staged rollout ------------------------------

def _rollout_build(seed: int, params: Dict):
    from repro.fleet.rollout import RolloutStudy

    return RolloutStudy(seed=seed, **params)


def _rollout_run(study, scratch: pathlib.Path):
    return study.run(workers=1, cache_dir="", checkpoint_dir="", obs_dir="")


def _rollout_check(study, result, scratch: pathlib.Path) -> Outcome:
    from repro.serialization import canonical_json, rollout_result_to_dict

    arms = 4  # before, hard-only, full, full + prefetch-aware scheduler
    return Outcome(
        digest=_sha256(canonical_json(rollout_result_to_dict(result))),
        work=study.machines * (study.warmup_epochs + study.epochs) * arms)


# --- sweep-control: two 32-arm lockstep groups, default bank enabled ---------

def _sweep_build(seed: int, params: Dict):
    from repro.fleet.sweep import MicroFleetSweep
    from repro.workloads.memo import memoized_fleet_mix

    sweep = MicroFleetSweep(mode="control", seed=seed, **params)
    work = sum(spec.machines * len(memoized_fleet_mix(spec.trace_seed,
                                                      spec.scale))
               for spec in sweep.shard_specs())
    return sweep, work


def _sweep_run(inputs, scratch: pathlib.Path):
    sweep, _ = inputs
    return sweep.run(workers=1, cache_dir="", checkpoint_dir="")


def _sweep_check(inputs, result, scratch: pathlib.Path) -> Outcome:
    from repro.fleet.sweep import sweep_digest

    _, work = inputs
    return Outcome(digest=sweep_digest(result), work=work,
                   occupancy=result.occupancy.to_dict())


# --- noisy-hard: small per-epoch run_many calls with regrouping --------------

def _noisy_build(seed: int, params: Dict):
    from repro.scenarios.tenancy import NoisyNeighborScenario

    return NoisyNeighborScenario(seed=seed, mode="hard",
                                 sustain_ns=30_000.0, **params)


def _noisy_run(scenario, scratch: pathlib.Path):
    return scenario.run(workers=1, cache_dir="", checkpoint_dir="",
                        obs_dir="")


def _noisy_check(scenario, result, scratch: pathlib.Path) -> Outcome:
    from repro.scenarios.tenancy import noisy_digest

    work = sum(tenant["accesses"]
               for row in result.live_rows()
               for tenant in row["tenants"].values())
    return Outcome(digest=noisy_digest(result), work=work,
                   occupancy=result.occupancy.to_dict())


# --- ablation-journaled: Tab 1 cold run, then a resume from its journal ------

def _ablation_build(seed: int, params: Dict):
    from repro.fleet.ablation import AblationStudy

    return AblationStudy(mode="hard", seed=seed, **params)


def _ablation_run(study, scratch: pathlib.Path):
    journal = str(scratch / "journal")
    cold = study.run(workers=1, cache_dir=str(scratch / "cache-cold"),
                     checkpoint_dir=journal,
                     obs_dir=str(scratch / "obs-cold"))
    # A fresh result cache, because a hit would skip the journal; an obs
    # dir again, because traced shards journal under their own keys.
    resumed = study.run(workers=1, cache_dir=str(scratch / "cache-resumed"),
                        checkpoint_dir=journal,
                        obs_dir=str(scratch / "obs-resumed"))
    return cold, resumed, study.queue_stats


def _ablation_check(study, results, scratch: pathlib.Path) -> Outcome:
    from repro.analysis.chaos import result_digest

    cold, resumed, stats = results
    if stats is None or stats.restored != stats.total:
        raise RuntimeError(f"resume restored {stats} instead of every shard")
    digest = result_digest(cold)
    if result_digest(resumed) != digest:
        raise RuntimeError("resumed digest differs from the cold run's")
    events = sum(len((scratch / run / "events.jsonl").read_text()
                     .splitlines())
                 for run in ("obs-cold", "obs-resumed"))
    arms = 2  # control and experiment
    return Outcome(
        digest=digest,
        work=study.machines * (study.warmup_epochs + study.epochs) * arms,
        restored_frac=stats.restored / stats.total,
        obs_events=events)


_FLEET_LAYERS = ("study", "fleet.cluster", "fleet.machine", "fleet.socket",
                 "fleet.scheduler", "profiling", "core.daemon",
                 "core.controller")

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="fleet-rollout", seed=5,
        full=Size({"machines": 20, "epochs": 70, "warmup_epochs": 25},
                  "6f42a91955793e24af61def9b27f6e44"
                  "2457d4a148deb60006bcb6fd1d39bf41", 7_600),
        quick=Size({"machines": 4, "epochs": 6, "warmup_epochs": 2},
                   "7e842be39f1030748298010a706c0589"
                   "664931a0c3c69a69c99bcc11909d03e3", 128),
        work_unit="machine-epochs", layers=_FLEET_LAYERS,
        build=_rollout_build, run=_rollout_run,
        check=_rollout_check),
    Workload(
        name="sweep-control", seed=17,
        full=Size({"machines": 64, "scale": 1.0},
                  "687baf6df5733c6429155c636e9abcb3"
                  "152ce5d177d844d9060790af4db6a27c", 1_328_544),
        quick=Size({"machines": 8, "scale": 0.25, "shard_size": 4},
                   "a1447a68de2c6af9571b4635dc88c06b"
                   "5957ef7ffa6232a5bf19f307653ab90b", 58_916),
        work_unit="arm-accesses",
        layers=("study", "workloads", "memsys.run_many", "memsys.group",
                "memsys.lockstep", "merge"),
        build=_sweep_build, run=_sweep_run,
        check=_sweep_check),
    Workload(
        name="noisy-hard", seed=23,
        full=Size({"machines": 8, "epochs": 24},
                  "e35c202261801211db25a59723701ce6"
                  "eab1d166557394c9611ee30d93dd2a82", 23_040),
        quick=Size({"machines": 2, "epochs": 4},
                   "6eeb7d26b02d386d78536c4edb4b3751"
                   "3cd5d3859517c03e0e7a95319de63ba7", 960),
        work_unit="arm-accesses",
        layers=("study", "access.builder", "access.interleave",
                "memsys.run_many", "memsys.group", "memsys.lockstep",
                "core.controller"),
        build=_noisy_build, run=_noisy_run,
        check=_noisy_check),
    Workload(
        name="ablation-journaled", seed=9,
        full=Size({"machines": 32, "epochs": 60, "warmup_epochs": 20,
                   "shard_size": 8},
                  "540cce4d897c46de69fe670593c055cb"
                  "35ad2850e256e7d99b6a64487685bb79", 5_120),
        quick=Size({"machines": 8, "epochs": 6, "warmup_epochs": 2,
                    "shard_size": 2},
                   "d3def4ffe55356081a834d7bf85d966a"
                   "4d420d6a73f8b5ec0cf5735a9d9da09b", 128),
        work_unit="machine-epochs",
        layers=_FLEET_LAYERS + ("fleet.result_cache", "fleet.queue", "obs",
                                "merge"),
        build=_ablation_build, run=_ablation_run,
        check=_ablation_check),
)}
