"""End-to-end study benchmark: four paper workloads, digest-checked, with
outside-in layer spans.

Every workload (one worker process each, driven round-robin: an untimed
warm-up, 14 timed rounds, then a 3-round traced pass)::

    python3 benchmarks/e2e/run.py [--seed N] [--trace 0|1] [--quick]
                                  [--out FILE]

One workload for a fixed time, printing one JSON result line last (the
contract ``BENCHMARK.json`` describes)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S \\
                                  --trace 0|1

Timed and traced studies always run each workload's committed
configuration and are checked against its committed digest and work
count, so every timing carries its own correctness check and timings
compare across invocations. ``--seed N`` adds a held-out leg: after
timing, each worker runs its study at study seed ``N`` (twice in a full
run, where the two digests must agree) and prints the digest, so two
commits can be diffed on an input not used while writing the change.

End-to-end metrics come from untraced runs; per-layer metrics from the
traced runs (see ``spans.py``). The full run writes a summary for
``compare.py`` and exits 1 if any run raised or mismatched.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from compare import describe
from spans import LAYERS
from workloads import WORKLOADS

E2E_DIR = pathlib.Path(__file__).resolve().parent
ROOT = E2E_DIR.parents[1]
WORKER = E2E_DIR / "worker.py"
RESULTS_DIR = E2E_DIR / "results"

#: Timed rounds, traced rounds and set-up probes of a full run.
ROUNDS = 14
TRACE_ROUNDS = 3
SETUP_PROBES = 7
#: Timed runs a ``--workload`` invocation makes even past ``--seconds``.
MIN_TIMED_RUNS = 3

#: End-to-end metrics a full run reports beside those in BENCHMARK.json.
#: Raw host seconds drift by 20% or more within minutes on a shared
#: sandbox, more than any useful bound, so only their host-calibrated
#: form (``study_norm``) is gated there; ``compare.py`` still judges
#: these, and calls them unresolved when the hosts differ.
HOST_SECONDS_METRICS = [
    {"name": "study_s", "unit": "s", "better": "lower", "bound": 0.10},
    {"name": "sim_work_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.10},
]


def worker_env() -> Dict[str, str]:
    """The environment of every child interpreter: no ``REPRO_*``
    overrides (the studies get their knobs as explicit arguments), one
    BLAS thread, and this checkout's ``src`` first on the path."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(REPRO_WORKERS="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def setup_probe(name: str, quick: bool) -> float:
    """``import repro`` plus building the inputs, in a fresh interpreter."""
    command = [sys.executable, str(WORKER), name, "--setup-probe"]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True,
                          env=worker_env(), cwd=ROOT, check=True,
                          timeout=120)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


class Worker:
    """A workload's worker process, spoken to one JSON line at a time."""

    def __init__(self, name: str, quick: bool) -> None:
        command = [sys.executable, str(WORKER), name]
        if quick:
            command.append("--quick")
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=worker_env(), cwd=ROOT)

    def call(self, **command) -> Dict:
        try:
            self.process.stdin.write(json.dumps(command) + "\n")
            self.process.stdin.flush()
        except OSError as error:
            return {"ok": False, "error": f"worker unreachable: {error}"}
        line = self.process.stdout.readline()
        if not line:
            return {"ok": False,
                    "error": f"worker exited with {self.process.wait()}"}
        return json.loads(line)

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        with contextlib.suppress(OSError):
            self.process.stdin.write(json.dumps({"op": "exit"}) + "\n")
            self.process.stdin.close()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def _norm(runs: List[Dict]) -> List[float]:
    """Each run's study seconds over its own host calibration."""
    return [r["study_s"] / r["host_cal_s"] for r in runs]


class Tally:
    """Everything measured for one workload."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.setup: List[float] = []
        self.runs: List[Dict] = []
        self.traced: List[Dict] = []
        self.rss: Optional[float] = None
        self.layers: Optional[Dict[str, float]] = None
        self.holdout: Optional[str] = None
        self.attempted = 0
        self.errors: List[str] = []

    def record(self, reply: Dict) -> Optional[Dict]:
        """Count one operation; returns the reply when it succeeded."""
        self.attempted += 1
        if reply["ok"]:
            return reply
        self.errors.append(reply["error"])
        return None

    def probe_setup(self, quick: bool) -> None:
        self.attempted += 1
        try:
            self.setup.append(setup_probe(self.name, quick))
        except (subprocess.SubprocessError, OSError, ValueError,
                KeyError, IndexError) as error:
            self.errors.append(f"setup probe: {error!r}")

    def study(self, worker: Worker, traced: bool) -> None:
        reply = self.record(worker.call(op="run", traced=traced))
        if reply:
            (self.traced if traced else self.runs).append(reply)

    def read_rss(self, worker: Worker) -> None:
        reply = self.record(worker.call(op="rss"))
        if reply:
            self.rss = reply["peak_rss_mb"]

    def read_layers(self, worker: Worker) -> None:
        reply = self.record(worker.call(op="layers"))
        if reply:
            self.layers = reply["metrics"]
            if self.runs and self.traced:
                # Calibrated, because a full run's traced pass comes
                # minutes after its untraced rounds.
                self.layers["trace_overhead"] = (
                    statistics.median(_norm(self.traced))
                    / statistics.median(_norm(self.runs)) - 1.0)

    def run_holdout(self, worker: Worker, seed: int, runs: int) -> None:
        reply = self.record(worker.call(op="holdout", seed=seed, runs=runs))
        if reply:
            self.holdout = reply["digest"]

    def end_to_end(self, definitions: List[Dict]) -> Dict[str, Dict]:
        """Each metric in ``definitions`` that has samples: quartiles
        plus its unit, direction and bound."""
        samples = {
            "setup_s": self.setup,
            "study_s": [r["study_s"] for r in self.runs],
            "study_norm": _norm(self.runs),
            "sim_work_per_s": [r["work"] / r["study_s"] for r in self.runs],
            "peak_rss_mb": [self.rss] if self.rss is not None else [],
        }
        return {
            d["name"]: {**describe(samples[d["name"]]), "unit": d["unit"],
                        "better": d["better"], "bound": d["bound"],
                        "host_time": d["name"] != "peak_rss_mb"}
            for d in definitions if samples[d["name"]]
        }


def _print_layers(tally: Tally) -> None:
    layers = tally.layers
    print(f"  {'layer':<20}{'self_s':>10}{'share':>8}{'calls':>9}")
    for layer in sorted(LAYERS, key=lambda name: -layers[f"{name}.self_s"]):
        if layers[f"{layer}.calls"]:
            print(f"  {layer:<20}{layers[f'{layer}.self_s']:>10.4f}"
                  f"{layers[f'{layer}.share']:>8.1%}"
                  f"{layers[f'{layer}.calls']:>9.0f}")
    derived = {name: value for name, value in layers.items()
               if not name.endswith((".self_s", ".share", ".calls"))}
    print("  " + "  ".join(f"{name}={value:.4g}"
                           for name, value in derived.items()))


def run_all(args, spec: Dict) -> int:
    """Every workload, round-robin, with an optional traced pass."""
    names = list(WORKLOADS)
    tallies = {name: Tally(name) for name in names}
    rounds, trace_rounds, probes = ((1, 1, 1) if args.quick
                                    else (ROUNDS, TRACE_ROUNDS, SETUP_PROBES))

    def rotated(index: int) -> List[str]:
        """Round ``index``'s order: host drift hits every workload alike."""
        k = index % len(names)
        return names[k:] + names[:k]

    for index in range(probes):
        for name in rotated(index):
            tallies[name].probe_setup(args.quick)
    with contextlib.ExitStack() as stack:
        workers = {name: stack.enter_context(Worker(name, args.quick))
                   for name in names}
        for name in names:  # untimed warm-up, still digest-checked
            tallies[name].record(workers[name].call(op="run", traced=False))
        for index in range(rounds):
            for name in rotated(index):
                tallies[name].study(workers[name], traced=False)
        for name in names:
            tallies[name].read_rss(workers[name])
        if args.trace:
            for index in range(trace_rounds):
                for name in rotated(index):
                    tallies[name].study(workers[name], traced=True)
            for name in names:
                tallies[name].read_layers(workers[name])
        if args.seed is not None:
            for name in names:
                tallies[name].run_holdout(workers[name], args.seed, 2)

    summary = {
        "seed": args.seed, "quick": args.quick,
        "host_cal_s": statistics.median(
            [r["host_cal_s"] for t in tallies.values() for r in t.runs]
            or [0.0]),
        "workloads": {},
    }
    for name, tally in tallies.items():
        workload = WORKLOADS[name]
        size = workload.quick if args.quick else workload.full
        metrics = tally.end_to_end(spec["end_to_end"]
                                   + HOST_SECONDS_METRICS)
        rate = len(tally.errors) / max(tally.attempted, 1)
        metrics["error_rate"] = {**describe([rate]), "unit": "fraction",
                                 "better": "lower", "bound": 0.0,
                                 "host_time": False}
        summary["workloads"][name] = {
            "metrics": metrics, "per_layer": tally.layers,
            "digest": size.digest, "holdout_digest": tally.holdout,
            "errors": tally.errors,
        }
        print(f"== {name}: {size.work} {workload.work_unit}/run, "
              f"digest {size.digest[:16]}, seed {workload.seed}")
        for metric, stats in metrics.items():
            print(f"  {metric:<16}{stats['median']:>14.6g} {stats['unit']:<9}"
                  f"[q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, "
                  f"n={len(stats['samples'])}]")
        if tally.layers:
            _print_layers(tally)
        if tally.holdout:
            print(f"  held-out seed {args.seed}: digest {tally.holdout}")
        for error in tally.errors:
            print(f"  ERROR {error}", file=sys.stderr)
    print(f"host_cal_s {summary['host_cal_s']:.6g} s")
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary written to {out}")
    return 1 if any(t.errors for t in tallies.values()) else 0


def run_one(args, spec: Dict) -> int:
    """One workload for ``--seconds``; the last stdout line is the JSON
    result, with the end-to-end metrics (``--trace 0``) or the per-layer
    ones (``--trace 1``)."""
    tally = Tally(args.workload)
    if not args.trace:
        for _ in range(SETUP_PROBES):
            tally.probe_setup(args.quick)
    with Worker(args.workload, args.quick) as worker:
        tally.record(worker.call(op="run", traced=False))  # warm-up
        deadline = time.monotonic() + args.seconds
        while not tally.errors and (len(tally.runs) < MIN_TIMED_RUNS
                                    or time.monotonic() < deadline):
            tally.study(worker, traced=False)
            if args.trace:
                tally.study(worker, traced=True)
        if not tally.errors:
            if args.trace:
                tally.read_layers(worker)
            else:
                tally.read_rss(worker)
            tally.run_holdout(worker, args.seed, 1)

    definitions = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values = tally.layers or {}
    else:
        values = {name: stats["median"] for name, stats
                  in tally.end_to_end(definitions).items()}
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
               for d in definitions if d["name"] in values}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} "
              f"{metric['unit']}")
    print(f"{args.workload} timed runs {len(tally.runs)}, held-out seed "
          f"{args.seed} digest {tally.holdout}")
    for error in tally.errors:
        print(f"ERROR {error}", file=sys.stderr)
    correct = not tally.errors and len(metrics) == len(definitions)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": len(tally.errors), "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload for --seconds")
    parser.add_argument("--seed", type=int,
                        help="held-out study seed (required with "
                             "--workload)")
    parser.add_argument("--seconds", type=float,
                        help="measuring time with --workload (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="run the traced pass (with --workload: print "
                             "per-layer instead of end-to-end metrics)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes and one round (smoke test)")
    parser.add_argument("--out", default=str(RESULTS_DIR / "summary.json"),
                        help="summary file of a full run")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload is None:
        return run_all(args, spec)
    if args.seed is None:
        parser.error("--workload needs --seed")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
