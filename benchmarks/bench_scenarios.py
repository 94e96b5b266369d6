"""Scenario-subsystem benchmark: call-graph batching and noisy tenants.

Times the SLOFetch-style call-graph study on the lockstep-batched
engine against the scalar compiled engine — the same study with a
per-arm ``arm.run(trace)`` loop standing in for ``run_many`` —
(bit-identity asserted via digests — the speedup is only reportable
because the results are provably equal),
and runs the noisy-neighbor interference study to pin its headline
deterministic figures (disable duty cycle, controller flips, per-tenant
P99 tension versus the always-enabled twin).

The gate metric is the batched-vs-scalar wall-clock ``speedup`` of the
call-graph replay; ``check_throughput_regression.py`` diffs it against
``benchmarks/baselines/BENCH_scenarios.baseline.json`` with the
standard tolerance, and fails when either digest differs from the
baseline's. Everything else in the payload (digests, duty cycle, P99
deltas) is deterministic: identical on every runner.
Results go to ``benchmarks/results/BENCH_scenarios.json``.
"""

import argparse
import contextlib
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
try:
    import repro  # noqa: F401
except ImportError:  # CLI use without PYTHONPATH=src
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.scenarios import (CallGraphScenario, NoisyNeighborScenario,
                             callgraph_digest, noisy_digest)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
OUTPUT_PATH = RESULTS_DIR / "BENCH_scenarios.json"

#: Wide replica tiers so the mode-``off`` arms fill lockstep batches.
SERVICES = "edge:stream:32:32>leaf*1;leaf:random:32:24"
REQUESTS = 48
CALLGRAPH_SEED = 21

NOISY_MACHINES = 6
NOISY_EPOCHS = 16
NOISY_SEED = 23
SUSTAIN_NS = 30_000.0


@contextlib.contextmanager
def _scalar_run_many():
    """Run every arm on the scalar compiled engine: a per-arm
    ``arm.run(trace)`` loop stands in for
    ``repro.memsys.hierarchy.run_many`` for the scope."""
    from repro.memsys import hierarchy

    def run_each(hierarchies, trace, export_state=True, occupancy=None):
        return [arm.run(trace) for arm in hierarchies]

    original = hierarchy.run_many
    hierarchy.run_many = run_each
    try:
        yield
    finally:
        hierarchy.run_many = original


def _time_callgraph():
    scenario = CallGraphScenario(services=SERVICES, requests=REQUESTS,
                                 seed=CALLGRAPH_SEED, mode="off")
    start = time.perf_counter()
    result = scenario.run(workers=1, cache_dir="", checkpoint_dir="")
    return time.perf_counter() - start, scenario, result


def run_experiment():
    batched_s, scenario, batched = _time_callgraph()
    with _scalar_run_many():
        scalar_s, _, scalar = _time_callgraph()
    digest = callgraph_digest(batched)
    if digest != callgraph_digest(scalar):
        raise AssertionError(
            "batched call-graph result diverged from the scalar oracle; "
            "refusing to report a speedup for a different answer")
    slo = scenario.slo_summary(batched)

    noisy = NoisyNeighborScenario(machines=NOISY_MACHINES,
                                  epochs=NOISY_EPOCHS, seed=NOISY_SEED,
                                  mode="hard", sustain_ns=SUSTAIN_NS)
    noisy_start = time.perf_counter()
    interference = noisy.run(workers=1, cache_dir="", checkpoint_dir="")
    noisy_s = time.perf_counter() - noisy_start
    baseline = noisy.baseline_twin().run(workers=1, cache_dir="",
                                         checkpoint_dir="")
    comparison = noisy.compare_to_baseline(interference, baseline)
    duty = interference.duty_cycle_disabled()
    if duty <= 0.0:
        raise AssertionError(
            "the benched noisy-neighbor fleet never disabled prefetchers; "
            "the interference figures below would be vacuous")

    return {
        "benchmark": "scenarios",
        "services": SERVICES,
        "requests": REQUESTS,
        "callgraph_seed": CALLGRAPH_SEED,
        "noisy_machines": NOISY_MACHINES,
        "noisy_epochs": NOISY_EPOCHS,
        "noisy_seed": NOISY_SEED,
        "callgraph_digest": digest,
        "noisy_digest": noisy_digest(interference),
        "slo": {"p50_ns": slo.p50, "p90_ns": slo.p90, "p99_ns": slo.p99},
        "duty_cycle_disabled": duty,
        "transitions": interference.transitions(),
        "tenant_p99_change": {name: change["p99"]
                              for name, change in comparison.items()},
        "arms": {
            "scenarios": {
                "batched_s": batched_s,
                "scalar_s": scalar_s,
                "noisy_s": noisy_s,
                # Gate metric: scalar wall clock over batched for the
                # same (digest-identical) call-graph answer.
                "speedup": scalar_s / batched_s,
            },
        },
    }


def write_output(data, path=OUTPUT_PATH):
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


def summary_lines(data):
    arm = data["arms"]["scenarios"]
    slo = data["slo"]
    p99 = data["tenant_p99_change"]
    return [
        f"call graph: {data['services']} x {data['requests']} requests",
        f"batched {arm['batched_s']:.3f} s vs scalar "
        f"{arm['scalar_s']:.3f} s ({arm['speedup']:.2f}x, digests equal)",
        f"end-to-end SLO: p50={slo['p50_ns']:.0f} ns "
        f"p90={slo['p90_ns']:.0f} ns p99={slo['p99_ns']:.0f} ns",
        f"noisy neighbors: {data['noisy_machines']} machines x "
        f"{data['noisy_epochs']} epochs in {arm['noisy_s']:.3f} s, "
        f"duty cycle {data['duty_cycle_disabled']:.1%}, "
        f"{data['transitions']} flips",
        "tenant p99 vs always-enabled: " + "  ".join(
            f"{name} {change:+.1%}" for name, change in p99.items()),
    ]


def test_scenarios(benchmark, report):
    data = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    write_output(data)

    # The interference study's headline tension: the socket-level
    # disable fires, and it slows the streaming tenant while not
    # slowing the random-lookup antagonist.
    assert data["duty_cycle_disabled"] > 0.0
    assert data["tenant_p99_change"]["latency"] > 0.0
    assert data["tenant_p99_change"]["batch"] <= 0.0
    assert data["arms"]["scenarios"]["speedup"] > 0.0

    report("BENCH_scenarios",
           "Scenario studies: batched call graph + noisy neighbors",
           summary_lines(data))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the scenario subsystem: batched-vs-scalar "
                    "call-graph replay and the noisy-neighbor "
                    "interference study.")
    parser.add_argument("--output", default=str(OUTPUT_PATH),
                        help="where to write the JSON results")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail unless the batched call-graph replay "
                             "beats the scalar oracle by this factor")
    parser.add_argument("--rounds", type=int, default=1,
                        help="accepted for refresh_baselines.py symmetry; "
                             "best-of timing uses a single round here")
    args = parser.parse_args(argv)

    data = run_experiment()
    path = write_output(data, args.output)
    print("\n".join(summary_lines(data)))
    print(f"wrote {path}")
    speedup = data["arms"]["scenarios"]["speedup"]
    if speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x below the "
              f"--min-speedup {args.min_speedup:.2f}x gate")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
