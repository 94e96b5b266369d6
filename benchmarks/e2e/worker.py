"""One workload's worker process for the end-to-end benchmark.

``run.py`` starts one worker per workload, so peak RSS and the trace memo
stay per-workload, with every ``REPRO_*`` variable cleared. The worker
builds the workload's inputs once, then answers one JSON command per
stdin line with one JSON reply per stdout line:

* ``{"op": "run", "traced": bool}`` runs the committed study once, after
  a host-calibration loop, and checks its digest and work count;
* ``{"op": "rss"}`` reports peak RSS so far;
* ``{"op": "layers"}`` reports the per-layer metrics of the traced runs
  and writes their spans to ``results/spans-<workload>.json``;
* ``{"op": "holdout", "seed": N, "runs": R}`` runs the study ``R`` times
  at study seed ``N`` and checks the digests agree;
* ``{"op": "exit"}``.

With ``--setup-probe`` it instead times ``import repro`` plus building
the inputs, prints ``{"setup_s": ...}`` and exits.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

from spans import LAYERS, ROOT_LAYER, Recorder, layer_table
from workloads import WORKLOADS

E2E_DIR = pathlib.Path(__file__).resolve().parent
RESULTS_DIR = E2E_DIR / "results"

#: Iterations of the host-calibration loop (~0.1 s of pure Python on a
#: 2-core x86 sandbox).
_CALIBRATION_ITERATIONS = 1_400_000


def host_calibration() -> float:
    """Seconds for a fixed pure-Python loop: the host-speed yardstick
    that ``study_norm`` divides by."""
    start = time.perf_counter()
    acc = 0
    for i in range(_CALIBRATION_ITERATIONS):
        acc = (acc * 31 + i) % 65_521
    return time.perf_counter() - start


class Mismatch(Exception):
    """A run's digest or work count differs from the committed one."""


class WorkloadWorker:
    def __init__(self, name: str, quick: bool) -> None:
        self.workload = WORKLOADS[name]
        self.size = self.workload.quick if quick else self.workload.full
        self.inputs = self.workload.build(self.workload.seed,
                                          self.size.params)
        self.recorder = Recorder()
        self.traced_runs = 0
        self.traced_outcomes = []
        RESULTS_DIR.mkdir(exist_ok=True)

    def _study(self, inputs, traced: bool):
        scratch = pathlib.Path(tempfile.mkdtemp(dir=RESULTS_DIR,
                                                prefix="scratch-"))
        try:
            if traced:
                with self.recorder.recording(self.traced_runs):
                    start = time.perf_counter()
                    results = self.workload.run(inputs, scratch)
                    elapsed = time.perf_counter() - start
                self.traced_runs += 1
            else:
                start = time.perf_counter()
                results = self.workload.run(inputs, scratch)
                elapsed = time.perf_counter() - start
            outcome = self.workload.check(inputs, results, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        return outcome, elapsed

    def run(self, traced: bool = False) -> dict:
        host_cal_s = host_calibration()
        outcome, study_s = self._study(self.inputs, traced)
        if (outcome.digest, outcome.work) != (self.size.digest,
                                              self.size.work):
            raise Mismatch(
                f"{self.workload.name}: digest {outcome.digest} work "
                f"{outcome.work}, committed {self.size.digest} work "
                f"{self.size.work}")
        if traced:
            self.traced_outcomes.append(outcome)
        return {"study_s": study_s, "host_cal_s": host_cal_s,
                "work": outcome.work, "digest": outcome.digest}

    def holdout(self, seed: int, runs: int) -> dict:
        inputs = self.workload.build(seed, self.size.params)
        digests = {self._study(inputs, traced=False)[0].digest
                   for _ in range(runs)}
        if len(digests) > 1:
            raise Mismatch(f"{self.workload.name} seed {seed}: runs "
                           f"disagree ({sorted(digests)})")
        return {"digest": digests.pop()}

    @staticmethod
    def rss() -> dict:
        # Linux reports ru_maxrss in KiB.
        return {"peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}

    def layers(self) -> dict:
        """Per-layer metrics over the traced runs (fails if a layer this
        workload exercises recorded no spans)."""
        self.recorder.write(RESULTS_DIR
                            / f"spans-{self.workload.name}.json")
        table = layer_table(self.recorder.spans)
        silent = [layer for layer in self.workload.layers
                  if table[layer]["calls"] == 0]
        if silent:
            raise RuntimeError(
                f"{self.workload.name}: no spans from {silent}; a "
                "from-import binding may have escaped the wrapper")
        metrics = {}
        for layer in LAYERS:
            for key in ("self_s", "calls", "share"):
                metrics[f"{layer}.{key}"] = table[layer][key]
        counts = self.recorder.counts

        def count(name: str) -> float:
            return statistics.median(counts.get(run, {}).get(name, 0)
                                     for run in range(self.traced_runs))

        occupancy = self.traced_outcomes[-1].occupancy or {}
        batched = occupancy.get("batched_arms", 0)
        scalar = occupancy.get("scalar_arms", 0)
        groups = occupancy.get("groups", 0)
        bailouts = occupancy.get("fallback_reasons", {}).get(
            "prune-bailout", 0)
        lockstep_accesses = count("memsys.lockstep.arm_accesses")
        socket = table["fleet.socket"]
        metrics.update({
            "memsys.lockstep.groups": groups,
            "memsys.lockstep.arms_per_group": batched / groups
            if groups else 0.0,
            "memsys.batched_frac": batched / (batched + scalar)
            if batched + scalar else 0.0,
            "memsys.fallback_arms": scalar,
            "memsys.lockstep.bailout_frac": bailouts / (batched + bailouts)
            if batched + bailouts else 0.0,
            "memsys.sim_accesses": count("memsys.sim_accesses"),
            "memsys.lockstep.ns_per_arm_access":
            table["memsys.lockstep"]["self_s"] / lockstep_accesses * 1e9
            if lockstep_accesses else 0.0,
            "fleet.machine_epochs": table["fleet.machine"]["calls"],
            "fleet.socket.us_per_call": socket["self_s"] / socket["calls"]
            * 1e6 if socket["calls"] else 0.0,
            "fleet.result_cache.hits": count("fleet.result_cache.hits"),
            "fleet.result_cache.misses": count("fleet.result_cache.misses"),
            "fleet.queue.restored_frac": statistics.median(
                o.restored_frac for o in self.traced_outcomes),
            "obs.events": statistics.median(
                o.obs_events for o in self.traced_outcomes),
            "core.controller.flips": count("core.controller.flips"),
            "coverage": 1.0 - table[ROOT_LAYER]["share"],
        })
        return {"metrics": metrics}


def setup_probe(name: str, quick: bool) -> None:
    start = time.perf_counter()
    workload = WORKLOADS[name]
    workload.build(workload.seed,
                   (workload.quick if quick else workload.full).params)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def serve(name: str, quick: bool) -> None:
    # Replies own the real stdout; anything the program prints goes to
    # stderr so it cannot corrupt the protocol.
    replies = sys.stdout
    sys.stdout = sys.stderr
    worker = None
    for line in sys.stdin:
        command = json.loads(line)
        op = command.pop("op")
        if op == "exit":
            break
        try:
            if worker is None:
                worker = WorkloadWorker(name, quick)
            reply = getattr(worker, op)(**command)
            reply["ok"] = True
        except Exception:  # report and keep serving the parent
            reply = {"ok": False, "error": traceback.format_exc()}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(args.workload, args.quick)
    else:
        serve(args.workload, args.quick)


if __name__ == "__main__":
    main()
