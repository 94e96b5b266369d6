"""Design ablation: hysteresis vs a single-threshold controller.

Section 3 argues that reacting to short bandwidth bursts "can be
counterproductive as we would constantly be toggling prefetchers". This
bench runs the same fleet under the deployed hysteresis controller and
under a naive single-threshold controller, and compares toggle counts and
throughput (toggles cost real work: serializing MSR writes, prefetcher
retraining — modelled by the socket's toggle penalty).
"""

from repro.core import SingleThresholdController
from repro.fleet import Fleet


def socket_toggles(fleet):
    return sum(socket.toggles for machine in fleet.machines
               for socket in machine.sockets)


def run_arm(controller_factory):
    fleet = Fleet(machines=16, seed=21)
    from repro.core import LimoncelloConfig
    config = LimoncelloConfig(sample_period_ns=fleet.epoch_ns,
                              sustain_duration_ns=3 * fleet.epoch_ns)
    fleet.deploy_hard_limoncello(config, controller_factory)
    fleet.deploy_soft_limoncello()
    fleet.run(25)
    metrics = fleet.run(80)
    return metrics, socket_toggles(fleet)


def run_experiment():
    hysteresis_metrics, hysteresis_toggles = run_arm(None)
    naive_metrics, naive_toggles = run_arm(
        lambda ident: SingleThresholdController(threshold=0.8))
    return (hysteresis_metrics, hysteresis_toggles,
            naive_metrics, naive_toggles)


def test_abl_hysteresis(benchmark, report):
    (hyst_metrics, hyst_toggles,
     naive_metrics, naive_toggles) = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1)

    # The naive controller thrashes…
    assert naive_toggles > 2 * hyst_toggles
    # …and that costs throughput.
    assert (hyst_metrics.normalized_throughput
            >= naive_metrics.normalized_throughput)

    lines = [
        f"{'controller':>22} {'toggles':>8} {'norm. throughput':>17}",
        f"{'hysteresis (deployed)':>22} {hyst_toggles:8d} "
        f"{hyst_metrics.normalized_throughput:17.3f}",
        f"{'single threshold':>22} {naive_toggles:8d} "
        f"{naive_metrics.normalized_throughput:17.3f}",
        "hysteresis (dual thresholds + sustain timer) suppresses "
        "thrashing on volatile bandwidth",
    ]
    report("abl_hysteresis", "Ablation — hysteresis vs single threshold",
           lines)
