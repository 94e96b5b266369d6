"""Lazy package re-exports and the import budget they buy.

Every ``repro`` package resolves its re-exports on first use
(:mod:`repro._lazy`), so a study loads only the modules it runs. These
tests pin the contract: every public name still resolves to the object
its defining submodule holds, the names that must stay eager do, and
the end-to-end studies stay inside their import budgets. Anything about
a *fresh* interpreter runs in a subprocess with ``REPRO_*`` cleared.
"""

import ast
import importlib
import inspect
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent.parent
E2E = SRC.parent / "benchmarks" / "e2e"

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)


def _fresh(probe: str) -> str:
    """Run ``probe`` in a clean interpreter; return its stdout."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


def _declared(package: str) -> dict:
    """``name -> module`` as the package's ``__init__.py`` declares it:
    its eager ``from X import ...`` lines and its ``lazy_exports`` table,
    read from source so the check does not trust the helper."""
    init = pathlib.Path(importlib.import_module(package).__file__)
    declared = {}
    for node in ast.walk(ast.parse(init.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module != "repro._lazy":
            for alias in node.names:
                declared[alias.asname or alias.name] = node.module
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "lazy_exports"):
            table = node.args[1]
            for submodule, names in zip(table.keys, table.values):
                for name in names.elts:
                    declared[name.value] = f"{package}.{submodule.value}"
    return declared


class TestLazyTables:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_export_resolves_to_its_definition(self, package):
        module = importlib.import_module(package)
        declared = _declared(package)
        listed = dir(module)
        for name in module.__all__:
            value = getattr(module, name)
            assert name in listed, name
            if name == "__version__":
                continue
            source = importlib.import_module(declared[name])
            assert getattr(source, name) is value, name
            if inspect.isclass(value) or inspect.isfunction(value):
                assert getattr(sys.modules[value.__module__], name) is value

    @pytest.mark.parametrize("package", PACKAGES)
    def test_unknown_name_is_an_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(module, "no_such_name")

    def test_names_shadowing_their_submodule_stay_callable(self):
        out = _fresh("import repro.cli.main\n"
                     "import repro.telemetry.percentile\n"
                     "import repro.cli, repro.telemetry\n"
                     "print(callable(repro.cli.main),\n"
                     "      callable(repro.telemetry.percentile))\n")
        assert out.split() == ["True", "True"]

    def test_interleave_bound_on_import(self):
        out = _fresh("import repro.access\n"
                     "print('interleave' in vars(repro.access))\n")
        assert out.split() == ["True"]

    def test_tax_categories_without_the_generators(self):
        out = _fresh("import sys\n"
                     "from repro.workloads.base import category_of_function\n"
                     "print(category_of_function('memcpy').name,\n"
                     "      category_of_function('crc32').name,\n"
                     "      'repro.workloads.tax' in sys.modules)\n")
        assert out.split() == ["DATA_MOVEMENT", "HASHING", "False"]

    def test_pooled_and_cached_rollout_count_tax_cycles(self):
        """A pool parent and a cache hit never import the tax generators,
        yet Figure 20's shares must match a serial run's."""
        study = dict(machines=4, epochs=6, warmup_epochs=2, seed=5,
                     shard_size=2)
        from repro.fleet.rollout import RolloutStudy

        shares = RolloutStudy(**study).run(workers=1).tax_cycle_shares()
        expected = [shares[arm]["all targeted DC tax"]
                    for arm in ("none", "hard", "full")]
        assert min(expected) > 0
        out = _fresh(
            "import json, sys, tempfile\n"
            "from repro.fleet.rollout import RolloutStudy\n"
            "with tempfile.TemporaryDirectory() as cache:\n"
            "    for _ in range(2):\n"
            f"        study = RolloutStudy(**{study!r})\n"
            "        result = study.run(workers=2, cache_dir=cache)\n"
            "        shares = result.tax_cycle_shares()\n"
            "        print(json.dumps([shares[arm]['all targeted DC tax']\n"
            "                          for arm in ('none', 'hard', 'full')]))\n"
            "print(json.dumps('repro.workloads.tax' in sys.modules))\n")
        pooled, cached, loaded = map(json.loads, out.splitlines())
        assert pooled == expected
        assert cached == expected
        assert loaded is False


#: Never needed by a ``workers=1`` study of the four end-to-end kinds.
_STUDY_NEVER_LOADS = ("concurrent.futures", "multiprocessing", "repro.policy",
                      "repro.analysis", "repro.microbench", "repro.core.soft",
                      "repro.faults")


def _loaded_after_study(workload: str, modules) -> dict:
    """Build and run one end-to-end workload at its quick size with
    ``workers=1`` in a fresh interpreter; report which of ``modules``
    ended up loaded."""
    probe = (
        "import json, pathlib, sys, tempfile\n"
        f"sys.path.insert(0, {str(E2E)!r})\n"
        "from workloads import WORKLOADS\n"
        f"workload = WORKLOADS[{workload!r}]\n"
        "inputs = workload.build(workload.seed, workload.quick.params)\n"
        "with tempfile.TemporaryDirectory() as scratch:\n"
        "    workload.run(inputs, pathlib.Path(scratch))\n"
        f"print(json.dumps({{m: m in sys.modules for m in {list(modules)!r}}}))\n")
    return json.loads(_fresh(probe))


#: Never needed to import or run a serial analytic fleet study without a
#: fault plan, result cache, shard journal or obs dir: the trace
#: machinery, the payload decoder, the fault model, the trace generators
#: and the run-directory writer.
_FLEET_NEVER_LOADS = ("repro.serialization", "repro.access", "repro.faults",
                      "repro.workloads.functions", "repro.workloads.tax",
                      "repro.obs.session")


class TestImportBudget:
    def test_import_repro_loads_only_the_helper(self):
        out = _fresh("import sys\n"
                     "import repro\n"
                     "print(*sorted(m for m in sys.modules\n"
                     "              if m.startswith('repro.')))\n")
        assert out.split() == ["repro._lazy"]

    @pytest.mark.parametrize("workload", ["fleet-rollout", "sweep-control",
                                          "noisy-hard", "ablation-journaled"])
    def test_serial_study_stays_in_budget(self, workload):
        loaded = _loaded_after_study(workload, _STUDY_NEVER_LOADS)
        assert not any(loaded.values()), loaded

    def test_rollout_never_loads_the_cache_simulator(self):
        loaded = _loaded_after_study("fleet-rollout",
                                     ["repro.memsys.hierarchy"])
        assert loaded == {"repro.memsys.hierarchy": False}

    def test_ablation_with_obs_dir_never_loads_the_cache_simulator(self):
        """The fleet reads the engine switch (tape or reference path),
        and the run manifest records it, from a leaf module."""
        loaded = _loaded_after_study("ablation-journaled",
                                     ["repro.memsys.hierarchy", "repro.engine"])
        assert loaded == {"repro.memsys.hierarchy": False,
                          "repro.engine": True}

    @pytest.mark.parametrize("module", ["repro.fleet.rollout",
                                        "repro.fleet.ablation"])
    def test_fleet_study_import_stays_in_budget(self, module):
        out = _fresh("import json, sys\n"
                     f"import {module}\n"
                     f"print(json.dumps([m for m in {list(_FLEET_NEVER_LOADS)!r}\n"
                     "                  if m in sys.modules]))\n")
        assert json.loads(out) == []

    def test_serial_rollout_stays_in_budget(self):
        loaded = _loaded_after_study("fleet-rollout", _FLEET_NEVER_LOADS)
        assert not any(loaded.values()), loaded

    def test_old_import_paths_still_resolve(self):
        from repro import jsonio, serialization
        from repro.fleet.queue import ShardCheckpoint
        from repro.obs import session, tracer

        assert serialization.canonical_json is jsonio.canonical_json
        assert serialization.atomic_write_text is jsonio.atomic_write_text
        assert session.resolve_obs_dir is tracer.resolve_obs_dir
        assert session.OBS_ENV_VAR == "REPRO_OBS_DIR"
        assert ShardCheckpoint.__module__ == "repro.fleet.queue"
