"""The study driver: golden event logs and its cache/journal cases.

Every sharded study runs through :func:`repro.fleet.study.run_study`,
which alone decides the order of a run's events: study-start, the cache
probe, the spliced shard events, the journal markers, scenario
shard-start/finish events, merge steps, cache-store and study-finish.
The pinned ``events.jsonl`` digests and manifest ``run`` digests below
are cold serial runs with every ``REPRO_*`` variable cleared; any change
in what the driver records, or in what order, breaks them.
"""

import hashlib
import os
from dataclasses import dataclass

import pytest

from repro.errors import ConfigError
from repro.fleet import (AblationStudy, MicroFleetSweep, RolloutStudy,
                         StudyResultCache)
from repro.fleet.queue import shard_task_material
from repro.fleet.study import FleetStudy, run_study
from repro.obs import EVENTS_NAME, manifest_run_digest, read_manifest
from repro.scenarios import CallGraphScenario, NoisyNeighborScenario

STUDIES = {
    "ablation": lambda: AblationStudy(
        mode="hard", machines=7, epochs=6, warmup_epochs=2, seed=11,
        shard_size=3),
    "rollout": lambda: RolloutStudy(
        machines=8, epochs=6, warmup_epochs=2, seed=5, shard_size=3),
    "noisy": lambda: NoisyNeighborScenario(
        machines=3, epochs=4, seed=23, mode="hard", shard_size=2),
    "callgraph": lambda: CallGraphScenario(requests=8, seed=21, mode="off"),
}

#: ``(study, stores) -> (events, events.jsonl sha256, manifest run digest)``
#: where ``stores`` says whether the run had a fresh result cache and
#: shard journal.
GOLDEN = {
    ("ablation", False): (
        54, "dd424127b61e403122289c423950848c18eec1a77fbda552f4c234885d05ee36",
        "9ffb9be02784dadf2055cb5e5ef08a31937b845e13514a86fb795ac2a275beb8"),
    ("ablation", True): (
        59, "c2ac252f61b1b2bd930754b57b2f35dde881d7e2c3d10e89aebe53f95274aa37",
        "e7ac6ff8b60f8378feecb17f636dd08c03572dcc6448f8f738ba656f47ae7f47"),
    ("rollout", False): (
        159, "030b6ee76864f6c1dedd5ddb97a84b26c47196c897efd1e50771cdde5cb12953",
        "8b4ca9de39de91be084ea3bd368e2b734997e67ba5f5f3612e5a68e32000d9bd"),
    ("rollout", True): (
        164, "7923e0e59cd48685e39876f47f01eb266b13309b6d12b3f98abf468b4d23cd06",
        "29f5cbd3dfe7c89c83b472aa1e76e026e495f0a586cd3ffb33a2d440a2d8e859"),
    ("noisy", False): (
        7, "eaed93579eb451a4bd91b3df168c994ba2072a902601bdff65aeaf56415f6f60",
        "a34a4627b4733331fc6c7b1167ea480977a0c6e2953d0899afc8d30023f36703"),
    ("noisy", True): (
        11, "d0b036223961b4916454c69a73a471ba285bcf63de79a7625fb4d199c5253c43",
        "298a301888c79760c41cb5ecee475e0926779c65b94d6a441e98177fe52789d7"),
    ("callgraph", False): (
        13, "20c8d7e93a77d8ea3f68e105e2fe9eaa96fa8cc9560adc5b8896af869a4c13d8",
        "0cde20b5795387e60e379e7e88418e43c039b789231296a14e180b4f0122eafe"),
    ("callgraph", True): (
        19, "80d471a2de731d23dd77bb957c88022a24bd3bd6f51f011381e849df8876ad73",
        "52461c3b5e16ba4c23acd4ad24315fc010846652ccf057524214979cfe504a78"),
}


@pytest.fixture
def clean_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)


@pytest.mark.parametrize("name, stores", sorted(GOLDEN),
                         ids=[f"{name}-{'stores' if stores else 'obs'}"
                              for name, stores in sorted(GOLDEN)])
def test_cold_run_event_log_is_golden(name, stores, tmp_path, clean_env):
    STUDIES[name]().run(
        workers=1, obs_dir=str(tmp_path / "obs"),
        cache_dir=str(tmp_path / "cache") if stores else "",
        checkpoint_dir=str(tmp_path / "journal") if stores else "")
    log = (tmp_path / "obs" / EVENTS_NAME).read_bytes()
    events, log_digest, run_digest = GOLDEN[name, stores]
    assert len(log.splitlines()) == events
    assert hashlib.sha256(log).hexdigest() == log_digest
    assert manifest_run_digest(read_manifest(tmp_path / "obs")) == run_digest


# --- the study surface ------------------------------------------------------------

SURFACE = {**STUDIES, "sweep": lambda: MicroFleetSweep(
    mode="off", machines=4, seed=3, scale=0.05, shard_size=2)}


@pytest.mark.parametrize("name", sorted(SURFACE))
def test_run_takes_keywords_only(name, tmp_path, monkeypatch):
    """``run(1, "dir")`` meant a cache on one study and a run directory on
    another; every study now refuses positional arguments."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(TypeError):
        SURFACE[name]().run(1, "dir")


@pytest.mark.parametrize("name", sorted(SURFACE))
def test_every_study_runs_through_the_base(name):
    study = SURFACE[name]()
    assert isinstance(study, FleetStudy)
    assert study.queue_stats is None
    if name != "sweep":
        assert type(study).run is FleetStudy.run
    # No base method reads a parameter some study lacks.
    specs = study.shard_specs()
    assert len(study.shard_task_materials()) == len(specs)
    for spec in specs:
        study.shard_meta(spec)
    assert isinstance(study.manifest_fields(), dict)


def test_sweep_writes_no_run_directory(tmp_path):
    with pytest.raises(ConfigError, match="no run directory"):
        SURFACE["sweep"]().run(workers=1, obs_dir=str(tmp_path))
    assert not any(tmp_path.iterdir())


# --- driver cases, on a stub study -----------------------------------------------


@dataclass
class Total:
    value: int

    def merge(self, other: "Total") -> "Total":
        self.value += other.value
        return self

    def to_dict(self):
        return {"value": self.value}

    @classmethod
    def from_dict(cls, payload) -> "Total":
        return cls(int(payload["value"]))


@dataclass(frozen=True)
class Spec:
    shard_index: int
    value: int


class StubStudy:
    STUDY = "stub"

    def __init__(self, values=(1, 2, 3)):
        self.values = values

    def shard_specs(self):
        return [Spec(index, value) for index, value in enumerate(self.values)]

    def shard_task_materials(self):
        return [shard_task_material(self.STUDY, {"shard_index": spec.shard_index,
                                                 "value": spec.value})
                for spec in self.shard_specs()]

    def cache_key_material(self):
        return {"study": self.STUDY, "values": list(self.values)}


CALLS = []


def count_worker(spec: Spec) -> Total:
    CALLS.append(spec.shard_index)
    return Total(spec.value)


def _run(tmp_path, **kwargs):
    CALLS.clear()
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    kwargs.setdefault("checkpoint_dir", "")
    return run_study(StubStudy(), count_worker, Total.from_dict, workers=1,
                     obs_dir="", **kwargs)


def test_cache_hit_never_calls_the_worker(tmp_path, clean_env):
    result, stats = _run(tmp_path)
    assert (result.value, CALLS, stats.computed) == (6, [0, 1, 2], 3)
    result, stats = _run(tmp_path)
    assert result.value == 6
    assert CALLS == []
    assert stats is None


@pytest.mark.parametrize("payload", [{"other": 6}, {"value": None},
                                     {"value": "six"}],
                         ids=["KeyError", "TypeError", "ValueError"])
def test_stale_cache_payload_recomputes_and_heals(payload, tmp_path,
                                                  clean_env):
    cache = StudyResultCache(tmp_path / "cache")
    material = StubStudy().cache_key_material()
    cache.store(material, payload)
    result, stats = _run(tmp_path)
    assert (result.value, CALLS, stats.computed) == (6, [0, 1, 2], 3)
    assert cache.load(material) == {"value": 6}


def test_journal_restores_untraced_shards(tmp_path, clean_env):
    _run(tmp_path, cache_dir="", checkpoint_dir=str(tmp_path / "journal"))
    result, stats = _run(tmp_path, cache_dir="",
                         checkpoint_dir=str(tmp_path / "journal"))
    assert (result.value, CALLS, stats.restored) == (6, [], 3)
