"""The fleet: machines + scheduler + traffic, stepped epoch by epoch."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import LimoncelloConfig
from repro.errors import ConfigError
from repro.faults.injectors import MachineChaos
from repro.faults.plan import FaultPlan
from repro.fleet.machine import Machine
from repro.fleet.platform import PLATFORM_1, PlatformSpec
from repro.fleet.scheduler import BandwidthAwareScheduler
from repro.fleet.tape import DriverTape, TapeEpoch
from repro.fleet.task import TaskTemplate, sample_task
from repro.fleet.traffic import DiurnalTraffic
from repro.fleet.calibration import DEFAULT_RESPONSES, ResponseTable
from repro.telemetry.percentile import PercentileSummary
from repro.units import SECOND


@dataclass
class FleetMetrics:
    """Everything the evaluation section reads off a fleet run."""

    #: Flat samples over (socket, epoch): offered bandwidth in GB/s.
    socket_bandwidth: List[float] = field(default_factory=list)
    #: Flat samples over (socket, epoch): bandwidth / saturation.
    socket_utilization: List[float] = field(default_factory=list)
    #: Flat samples over (socket, epoch): loaded DRAM latency, ns.
    socket_latency: List[float] = field(default_factory=list)
    #: Per (machine, epoch): (cpu utilization, bandwidth utilization,
    #: achieved qps, ideal qps).
    machine_points: List[Tuple[float, float, float, float]] = \
        field(default_factory=list)
    #: Total requests served.
    total_qps: float = 0.0
    #: Total requests an unloaded fleet would have served.
    ideal_qps: float = 0.0
    #: Placement failures (stranded demand).
    rejections: int = 0
    epochs: int = 0

    # --- combination ------------------------------------------------------------

    def merge(self, other: "FleetMetrics") -> "FleetMetrics":
        """Fold another fleet's metrics into this one (in place).

        Sample lists concatenate and scalar accumulators add, so merging
        is associative and every summary view (percentiles, bands,
        buckets) is independent of merge order. This is what lets a
        sharded study combine per-shard metrics into one fleet-level
        result identical to a serial run over the same shards.

        Returns ``self`` for chaining.
        """
        self.socket_bandwidth.extend(other.socket_bandwidth)
        self.socket_utilization.extend(other.socket_utilization)
        self.socket_latency.extend(other.socket_latency)
        self.machine_points.extend(other.machine_points)
        self.total_qps += other.total_qps
        self.ideal_qps += other.ideal_qps
        self.rejections += other.rejections
        self.epochs += other.epochs
        return self

    # --- evaluation views -------------------------------------------------------

    def bandwidth_summary(self) -> PercentileSummary:
        """Percentile summary of socket bandwidth (GB/s)."""
        return PercentileSummary.of(self.socket_bandwidth)

    def latency_summary(self) -> PercentileSummary:
        """Percentile summary of socket DRAM latency (ns)."""
        return PercentileSummary.of(self.socket_latency)

    def saturated_socket_fraction(self, threshold: float = 0.95) -> float:
        """Share of socket-epochs at or above the threshold utilization."""
        if not self.socket_utilization:
            return 0.0
        return (sum(1 for u in self.socket_utilization if u >= threshold)
                / len(self.socket_utilization))

    @property
    def normalized_throughput(self) -> float:
        """Fleet-wide achieved / ideal requests — the topline metric."""
        return self.total_qps / self.ideal_qps if self.ideal_qps else 0.0

    def throughput_by_cpu_band(
            self, bands: Sequence[Tuple[float, float]] = (
                (0.55, 0.65), (0.65, 0.75), (0.75, 0.85)),
    ) -> Dict[str, float]:
        """Normalized throughput per machine-CPU-utilization band — the
        y-axis ingredients of Figure 16 (bands labelled by midpoints)."""
        out: Dict[str, float] = {}
        for low, high in bands:
            achieved = sum(q for c, _, q, _ in self.machine_points
                           if low <= c < high)
            ideal = sum(i for c, _, _, i in self.machine_points
                        if low <= c < high)
            label = f"{round((low + high) / 2 * 100)}%"
            out[label] = achieved / ideal if ideal else 0.0
        return out

    def bandwidth_by_cpu_bucket(self, bucket_width: float = 0.10
                                ) -> Dict[str, float]:
        """Mean bandwidth utilization per CPU-utilization bucket — the
        Figure 4 / Figure 19 curve."""
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for cpu, bw_util, _, _ in self.machine_points:
            bucket = int(cpu / bucket_width)
            sums[bucket] = sums.get(bucket, 0.0) + bw_util
            counts[bucket] = counts.get(bucket, 0) + 1
        return {
            f"{round(b * bucket_width * 100)}-"
            f"{round((b + 1) * bucket_width * 100)}":
                sums[b] / counts[b]
            for b in sorted(sums)
        }

    def cpu_utilization_mean(self) -> float:
        """Mean machine CPU utilization over the run."""
        if not self.machine_points:
            return 0.0
        return (sum(c for c, _, _, _ in self.machine_points)
                / len(self.machine_points))


class Fleet:
    """A simulated fleet of identical-platform machines.

    Args:
        machines: Machine count.
        platform: Platform generation for every machine.
        sockets_per_machine: Sockets per machine.
        epoch_ns: Simulation epoch. Daemons tick once per epoch, so a
            Limoncello config used with the fleet should set its
            ``sample_period_ns`` to the epoch (handled by
            :meth:`deploy_hard_limoncello`).
        template: Task archetype for arriving work.
        responses: Calibration table for task behaviour.
        seed: Master seed; the fleet is fully deterministic given it.
        fault_plan: Optional :class:`~repro.faults.plan.FaultPlan`; when
            set, every machine gets a :class:`MachineChaos` environment
            seeded from ``(plan seed, fleet seed, machine name)``, so the
            same plan over the same fleet replays identically — whether
            machines are simulated serially or across shard workers.
        tracer: Optional :class:`repro.obs.Tracer` shared by every
            machine's control daemons (events keyed to simulated time).
    """

    def __init__(self, machines: int = 40,
                 platform: PlatformSpec = PLATFORM_1,
                 sockets_per_machine: int = 2,
                 epoch_ns: float = 10 * SECOND,
                 traffic: Optional[DiurnalTraffic] = None,
                 template: Optional[TaskTemplate] = None,
                 responses: ResponseTable = DEFAULT_RESPONSES,
                 scheduler: Optional[BandwidthAwareScheduler] = None,
                 seed: int = 0,
                 platform_mix: Optional[Dict[PlatformSpec, float]] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 tracer=None) -> None:
        if machines <= 0:
            raise ConfigError("need at least one machine")
        if epoch_ns <= 0:
            raise ConfigError("epoch must be positive")
        self.rng = random.Random(seed)
        self.seed = seed
        self.platform = platform
        self.epoch_ns = epoch_ns
        self.fault_plan = fault_plan
        platforms = self._assign_platforms(machines, platform, platform_mix)
        self.machines: List[Machine] = [
            Machine(f"machine-{i}", spec, sockets=sockets_per_machine,
                    rng=random.Random(seed * 100_003 + i),
                    chaos=(MachineChaos(fault_plan, seed, f"machine-{i}")
                           if fault_plan is not None else None),
                    tracer=tracer)
            for i, spec in enumerate(platforms)
        ]
        self.traffic = traffic or DiurnalTraffic(
            rng=random.Random(seed + 1))
        self.template = template
        self.responses = responses
        self.scheduler = scheduler or BandwidthAwareScheduler()
        self.now_ns = 0.0
        # Driver tape (see use_tape): the tape, whether this fleet
        # replays it, and the next epoch to replay.
        self._tape: Optional[DriverTape] = None
        self._replay = False
        self._cursor = 0
        #: Each socket's position in machine-major order (a tape's
        #: socket ordinal).
        self._sockets = [socket for machine in self.machines
                         for socket in machine.sockets]
        self._ordinals = {socket: ordinal
                          for ordinal, socket in enumerate(self._sockets)}

    @staticmethod
    def _assign_platforms(count: int, default: PlatformSpec,
                          mix: Optional[Dict[PlatformSpec, float]]
                          ) -> List[PlatformSpec]:
        """Machine platforms, proportional to the requested mix.

        Real fleets run several generations side by side (the paper
        evaluates Platform 1 and Platform 2); pass ``platform_mix`` to
        build such a fleet.
        """
        if not mix:
            return [default] * count
        total = sum(mix.values())
        if total <= 0:
            raise ConfigError("platform mix weights must be positive")
        assigned: List[PlatformSpec] = []
        specs = list(mix)
        for spec in specs[:-1]:
            assigned.extend([spec] * int(round(count * mix[spec] / total)))
        assigned.extend([specs[-1]] * (count - len(assigned)))
        return assigned[:count]

    # --- deployment knobs ---------------------------------------------------------

    def deploy_hard_limoncello(
            self, config: Optional[LimoncelloConfig] = None,
            controller_factory=None) -> None:
        """Install per-socket control daemons fleet-wide.

        ``controller_factory``, when given, builds each socket's
        controller from its ``"<machine>/<socket>"`` ident (for example
        ``lambda ident: SingleThresholdController(0.8, ident=ident)``);
        otherwise every daemon runs the stock hysteresis controller.
        """
        config = config or LimoncelloConfig(
            sample_period_ns=self.epoch_ns,
            sustain_duration_ns=3 * self.epoch_ns)
        for machine in self.machines:
            machine.deploy_hard_limoncello(config, controller_factory)

    def deploy_soft_limoncello(self) -> None:
        """Mark the software prefetch insertions as rolled out fleet-wide."""
        for machine in self.machines:
            machine.deploy_soft_limoncello()

    def force_prefetchers(self, enabled: bool) -> None:
        """Directly set prefetcher state on every socket."""
        for machine in self.machines:
            machine.force_prefetchers(enabled)

    # --- capacity ---------------------------------------------------------------------

    @property
    def total_cores(self) -> int:
        """Total CPU cores."""
        return sum(machine.total_cores for machine in self.machines)

    @property
    def cores_used(self) -> float:
        """Cores occupied by placed tasks."""
        return sum(machine.cores_used for machine in self.machines)

    # --- driver tape ---------------------------------------------------------------------

    def use_tape(self, tape: DriverTape, replay: bool = False) -> None:
        """Record this fleet's driver on ``tape``, or replay it from there.

        The recorder runs exactly as an untaped fleet and logs each
        epoch's traffic target, placements, drains, rejections, noise
        draws and prefetchers-on socket solves. A replaying fleet,
        built like the recorder (same seed, machines and template),
        applies those placements and drains to its own sockets and
        takes the noise from the tape: it samples, places, drains and
        draws nothing (DESIGN.md §6, "Driver tape"). Both need a
        prefetch-unaware scheduler, whose decisions never read
        prefetcher state, so every arm would have made the same ones.
        Observers still receive the fleet's RNG, but a replaying fleet
        never advances it.
        """
        if self.scheduler.prefetch_aware:
            raise ConfigError(
                "a prefetch-aware scheduler places by prefetcher state; "
                "its driver cannot be shared through a tape")
        if self.now_ns or (not replay and tape.epochs):
            raise ConfigError("a tape must start with the fleet's first epoch")
        self._tape = tape
        self._replay = replay
        self._cursor = 0

    # --- simulation --------------------------------------------------------------------

    def run(self, epochs: int, metrics: Optional[FleetMetrics] = None,
            observers: Sequence = ()) -> FleetMetrics:
        """Advance ``epochs`` epochs; returns accumulated metrics.

        ``observers`` are callables ``(now_ns, machines, rng)`` invoked
        after every epoch — the fleetwide profiler hooks in here.
        """
        if epochs <= 0:
            raise ConfigError("epochs must be positive")
        metrics = metrics or FleetMetrics()
        tape = self._tape
        replaying = tape is not None and self._replay
        duration_s = self.epoch_ns / SECOND
        for _ in range(epochs):
            taped = None
            if replaying:
                taped = tape.epochs[self._cursor]
                self._cursor += 1
                target = self._replay_load(taped)
            else:
                if tape is not None:
                    taped = TapeEpoch()
                    tape.epochs.append(taped)
                target = self._reconcile_load(taped)
            # At peak traffic, placed tasks serve more requests and pull
            # more bandwidth than their placement-time estimate assumed.
            demand_scale = 0.75 + 0.5 * target
            for index, machine in enumerate(self.machines):
                epochs_data = machine.step(self.now_ns, self.epoch_ns,
                                           rng=self.rng,
                                           demand_scale=demand_scale,
                                           tape=taped,
                                           slot=index if replaying else None)
                self._record(metrics, machine, epochs_data, duration_s)
            for observer in observers:
                observer(self.now_ns, self.machines, self.rng)
            metrics.epochs += 1
            self.now_ns += self.epoch_ns
        metrics.rejections = self.scheduler.rejections
        return metrics

    # --- internals ------------------------------------------------------------------------

    def _replay_load(self, taped: TapeEpoch) -> float:
        """:meth:`_reconcile_load` from a tape: apply the recorded
        placements and drains to this fleet's sockets; returns the
        recorded target."""
        sockets = self._sockets
        for ordinal, task in taped.placed:
            sockets[ordinal].add_task(task)
        for ordinal, task in taped.drained:
            sockets[ordinal].remove_task(task)
        self.scheduler.placements += len(taped.placed)
        self.scheduler.rejections += taped.rejections
        return taped.target

    def _reconcile_load(self, taped: Optional[TapeEpoch] = None) -> float:
        """Spawn or drain tasks to track the traffic target, recording
        the target and every decision in ``taped`` when given.

        Returns the target load fraction for this epoch.
        """
        target = self.traffic.target(self.now_ns)
        if taped is not None:
            taped.target = target
            rejections = self.scheduler.rejections
        target_cores = target * self.total_cores
        deficit = target_cores - self.cores_used
        guard = 64  # placement attempts per epoch, so a full fleet can't spin
        consecutive_failures = 0
        while deficit > 0 and guard > 0 and consecutive_failures < 3:
            task = sample_task(self.rng, self.template,
                               responses=self.responses)
            if task.cores > deficit + 4.0:
                break
            socket = self.scheduler.try_place(task, self.machines)
            if socket is None:
                # Fleet looks bandwidth-bound for this task; a smaller or
                # lighter draw may still fit, so don't give up on the
                # first rejection.
                consecutive_failures += 1
            else:
                consecutive_failures = 0
                deficit -= task.cores
                if taped is not None:
                    taped.placed.append((self._ordinals[socket], task))
            guard -= 1
        if deficit < 0:
            overshoot_tasks = int(-deficit
                                  / max(task_mean_cores(self.template), 1.0))
            if overshoot_tasks > 0:
                drained = self.scheduler.drain_sockets(
                    self.machines, overshoot_tasks, self.rng)
                if taped is not None:
                    taped.drained = [(self._ordinals[socket], task)
                                     for socket, task in drained]
        if taped is not None:
            taped.rejections = self.scheduler.rejections - rejections
        return target

    @staticmethod
    def _record(metrics: FleetMetrics, machine: Machine,
                socket_epochs, duration_s: float) -> None:
        bw_utils = []
        qps = 0.0
        for epoch in socket_epochs:
            metrics.socket_bandwidth.append(epoch.bandwidth)
            metrics.socket_utilization.append(epoch.utilization)
            metrics.socket_latency.append(epoch.latency_ns)
            bw_utils.append(epoch.utilization)
            qps += epoch.qps
        ideal = sum([task.base_qps for socket in machine.sockets
                     for task in socket.tasks]) * duration_s
        metrics.machine_points.append((
            machine.cpu_utilization,
            sum(bw_utils) / len(bw_utils) if bw_utils else 0.0,
            qps,
            ideal,
        ))
        metrics.total_qps += qps
        metrics.ideal_qps += ideal


def task_mean_cores(template: Optional[TaskTemplate]) -> float:
    """Midpoint of a template's cores range (drain sizing heuristic)."""
    if template is None:
        return 5.0
    low, high = template.cores_range
    return (low + high) / 2.0
