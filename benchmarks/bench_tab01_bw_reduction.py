"""Table 1: disabling hardware prefetchers reduces fleet memory bandwidth.

Paper: average -15.7%/-11.2% (platform 1/2), P99 -10.4%/-2.8%,
peak -5.6%/-5.5% — with the reduction shrinking toward the tail, because
saturated sockets are demand-bound either way.
"""

from repro.fleet import AblationStudy, PLATFORM_1, PLATFORM_2


def run_experiment():
    rows = {}
    for label, platform in (("platform 1", PLATFORM_1),
                            ("platform 2", PLATFORM_2)):
        study = AblationStudy(
            mode="off", machines=16, epochs=60, warmup_epochs=20, seed=11,
            platform=platform.name)
        rows[label] = study.run().bandwidth_reduction()
    return rows


def test_tab01_bw_reduction(benchmark, report):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    for label, reduction in rows.items():
        assert -0.30 < reduction["mean"] < -0.05, label  # paper 11-16%
        assert reduction["p99"] <= 0.02, label
        # Reduction shrinks toward the tail (saturated sockets are
        # demand-bound either way).
        assert abs(reduction["peak"]) <= abs(reduction["mean"]) + 0.03, label

    lines = [f"{'':>12} {'Average':>9} {'P99':>9} {'Peak':>9}"]
    for label, reduction in rows.items():
        lines.append(f"{label:>12} {-reduction['mean']:9.1%} "
                     f"{-reduction['p99']:9.1%} {-reduction['peak']:9.1%}")
    lines.append("paper:        15.7%/11.2%   10.4%/2.8%   5.6%/5.5%")
    report("tab01", "Table 1 — bandwidth reduction from disabling "
           "prefetchers", lines)
