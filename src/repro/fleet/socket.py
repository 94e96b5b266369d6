"""The per-socket fixed-point model.

Each epoch a socket balances two coupled quantities: the bandwidth its
tasks offer (which falls as they slow down) and the DRAM latency that
slowdown depends on (which rises with offered bandwidth). The fixed point
of that loop is the socket's operating point for the epoch — the same
feedback the queuing DRAM model produces per-request at the micro level.

Hardware prefetcher state lives in a real simulated MSR file, so the
Limoncello daemon actuates the socket exactly as it would real hardware.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigError
from repro.fleet.platform import PlatformSpec
from repro.fleet.task import Task
from repro.memsys.config import DRAMConfig
from repro.memsys.dram import DRAMModel
from repro.msr.platform_defs import msr_map_for_vendor
from repro.msr.registers import MSRFile
from repro.units import SECOND

_NAN = float("nan")


@dataclass(frozen=True)
class SocketEpoch:
    """One epoch's operating point for a socket."""

    time_ns: float
    #: Offered bandwidth, bytes/ns.
    bandwidth: float
    #: Bandwidth as a fraction of the *qualification saturation threshold*
    #: (the knee of the latency curve), the unit the paper's thresholds
    #: and utilization axes use. May exceed 1 when overloaded.
    utilization: float
    #: Loaded DRAM latency, ns.
    latency_ns: float
    #: Requests served during the epoch.
    qps: float
    #: Cores occupied by placed tasks.
    cores_used: float
    hw_prefetchers_on: bool

    @property
    def saturated(self) -> bool:
        """Whether this epoch ran at or above 95% of saturation."""
        return self.utilization >= 0.95


class SimulatedSocket:
    """One socket: tasks + MSR-controlled prefetcher state + DRAM curve."""

    #: Fixed-point iterations per epoch. The bare loop is *not* a
    #: contraction near the latency knee (offered bandwidth falls steeply
    #: as latency rises), so the update is damped by ``DAMPING``; with
    #: these settings the operating point converges to well under 1%.
    ITERATIONS = 24
    DAMPING = 0.35

    #: Fraction of an epoch's throughput lost when prefetcher state flips
    #: during it: the wrmsr broadcasts serialize every core and the
    #: hardware prefetchers retrain from scratch on re-enable. This is
    #: the cost that makes controller thrashing expensive — the reason
    #: for the hysteresis design (Section 3).
    TOGGLE_PENALTY = 0.05

    def __init__(
        self, platform: PlatformSpec, index: int = 0, dram: Optional[DRAMConfig] = None
    ) -> None:
        self.platform = platform
        self.index = index
        self.tasks: List[Task] = []
        self.soft_deployed = False
        self.msrs = MSRFile()
        self.msr_map = msr_map_for_vendor(platform.vendor)
        self.msr_map.declare_registers(self.msrs)
        dram_config = dram or DRAMConfig(saturation_bandwidth=platform.saturation_bandwidth)
        if dram_config.saturation_bandwidth != platform.saturation_bandwidth:
            raise ConfigError("DRAM config saturation must match the platform's")
        self._dram = DRAMModel(dram_config)
        self._unloaded_latency = dram_config.unloaded_latency_ns
        self._saturation_bandwidth = (
            dram_config.max_utilization * platform.saturation_bandwidth
        )
        self.history: List[SocketEpoch] = []
        self._last_bandwidth = 0.0
        self._last_utilization = 0.0
        self._last_hw_state: Optional[bool] = None
        self.toggles = 0
        # Prefetcher state as last read from ``_hw_msrs`` when its
        # ``write_count`` was ``_hw_writes`` (see hw_prefetchers_on).
        self._hw_msrs: Optional[MSRFile] = None
        self._hw_writes = -1
        self._hw_on = True
        self._retotal()

    # --- prefetcher state (via MSRs) ---------------------------------------------

    @property
    def hw_prefetchers_on(self) -> bool:
        """True unless *all* prefetchers are disabled (the paper's actuator
        always disables the full set).

        The register readback is cached, stamped by the MSR file's
        identity and its ``write_count``: every successful ``wrmsr``
        moves the count (failed ones raise first), and reassigning
        ``self.msrs`` changes the identity. A stamp rather than a write
        observer, because a subscription would make the socket and its
        MSR file a reference cycle that outlives the fleet until the
        cyclic collector runs.
        """
        msrs = self.msrs
        if msrs is not self._hw_msrs or msrs.write_count != self._hw_writes:
            self._hw_on = not self.msr_map.all_disabled(msrs)
            self._hw_msrs = msrs
            self._hw_writes = msrs.write_count
        return self._hw_on

    def force_prefetchers(self, enabled: bool) -> None:
        """Directly set prefetcher state (for always-on/off study arms)."""
        if enabled:
            self.msr_map.enable_all(self.msrs)
        else:
            self.msr_map.disable_all(self.msrs)

    # --- BandwidthSource protocol (for the Limoncello daemon's sampler) -----------

    @property
    def saturation_bandwidth(self) -> float:
        """The qualification "memory bandwidth saturation threshold".

        Section 3 defines it as the bandwidth established during machine
        qualification beyond which latency rises sharply — i.e. the knee
        of the latency curve, not the raw channel capacity. Thresholds
        (and every utilization this simulator reports) are expressed
        relative to this value, as in the paper.
        """
        return self._saturation_bandwidth

    @property
    def raw_capacity(self) -> float:
        """The physical channel capacity, bytes/ns."""
        return self.platform.saturation_bandwidth

    def memory_bandwidth(self, now_ns: float) -> float:
        """Most recent epoch's offered bandwidth — what perf would read."""
        return self._last_bandwidth

    # --- capacity accounting -------------------------------------------------------

    @property
    def cores(self) -> int:
        """CPU cores on this socket."""
        return self.platform.cores_per_socket

    @property
    def cores_used(self) -> float:
        """Cores occupied by placed tasks."""
        return self._cores_used

    @property
    def cores_free(self) -> float:
        """Cores not yet occupied by tasks."""
        return self.cores - self._cores_used

    def estimated_bandwidth(self, prefetch_aware: bool = False) -> float:
        """Full-speed bandwidth estimate — the scheduler's admission view.

        With ``prefetch_aware`` the estimate reflects the socket's current
        prefetcher state. That awareness is what converts Limoncello's
        bandwidth savings into schedulable capacity — with prefetchers
        disabled the same tasks are estimated ~11-16% cheaper, so the
        scheduler packs more cores onto the socket (Figure 19). A
        pre-Limoncello scheduler (ablation studies) estimates as if
        prefetchers were always on."""
        if prefetch_aware and not self.hw_prefetchers_on:
            return self._estimated_off
        return self._estimated_on

    def add_task(self, task: Task) -> None:
        """Place a task on this socket (validates core capacity)."""
        if task.cores > self.cores_free + 1e-9:
            raise ConfigError(
                f"socket has {self.cores_free:.1f} free cores; task "
                f"{task.name} needs {task.cores:.1f}"
            )
        self.tasks.append(task)
        self._retotal()

    def remove_task(self, task: Task) -> None:
        """Remove a placed task."""
        self.tasks.remove(task)
        self._retotal()

    def _retotal(self) -> None:
        """Recompute the task sums admission reads, in task order."""
        tasks = self.tasks
        self._cores_used = sum([task.cores for task in tasks])
        self._estimated_on = sum([task.estimated_bandwidth(True) for task in tasks])
        self._estimated_off = sum([task.estimated_bandwidth(False) for task in tasks])

    # --- the epoch fixed point --------------------------------------------------------

    def latency_at(self, utilization: float) -> float:
        """Loaded DRAM latency (ns) at a raw-capacity utilization."""
        return self._dram.latency_at_utilization(utilization)

    def step(
        self,
        now_ns: float,
        duration_ns: float = SECOND,
        demand_factor: float = 1.0,
        solves: Optional[array] = None,
        at: Optional[int] = None,
    ) -> SocketEpoch:
        """Solve this epoch's operating point and record it.

        ``demand_factor`` is a machine-level multiplier on bandwidth
        demand this epoch (shared volatility across the socket's tasks —
        the minute-scale swings of Figure 7).

        The iterations evaluate :meth:`Task.speed` and
        :meth:`Task.offered_bandwidth` inline, from one row per task
        built before the loop, and the DRAM curve inline from its config.
        Every float operation happens in the order those methods use, so
        the result is bit-identical to calling them (DESIGN.md §6).

        ``solves`` is a driver tape's solve log for the epoch (DESIGN.md
        §6, "Driver tape"). With ``at`` unset the socket appends its
        solve to it: start load, end load, latency and qps before the
        toggle penalty, with a NaN start load when its prefetchers are
        off. With ``at`` set, the socket is replaying the tape and reuses
        the solve recorded there when its prefetchers are on and its
        start load equals the recorded one. Its tasks, their noise and
        the demand factor then match the recorder's, and ``soft`` is not
        read with prefetchers on, so the solve would be the same.
        """
        hw_on = self.hw_prefetchers_on
        start = self._last_utilization
        if at is not None and hw_on and solves[at] == start:
            load, latency_ns, qps = solves[at + 1], solves[at + 2], solves[at + 3]
        else:
            load, latency_ns, qps = self._solve(hw_on, demand_factor, duration_ns)
            if solves is not None and at is None:
                solves.extend((start if hw_on else _NAN, load, latency_ns, qps))
        bandwidth = load * self.platform.saturation_bandwidth
        if self._last_hw_state is not None and hw_on != self._last_hw_state:
            self.toggles += 1
            qps *= 1.0 - self.TOGGLE_PENALTY
        self._last_hw_state = hw_on
        epoch = SocketEpoch(
            time_ns=now_ns,
            bandwidth=bandwidth,
            utilization=bandwidth / self._saturation_bandwidth,
            latency_ns=latency_ns,
            qps=qps,
            cores_used=self._cores_used,
            hw_prefetchers_on=hw_on,
        )
        self.history.append(epoch)
        self._last_bandwidth = bandwidth
        self._last_utilization = load
        return epoch

    def _solve(self, hw_on: bool, demand_factor: float, duration_ns: float) -> tuple:
        """The epoch's fixed point from ``_last_utilization``: returns
        ``(load, latency_ns, qps before the toggle penalty)``."""
        tasks = self.tasks
        if hw_on:
            rows = [
                (
                    task.memory_boundedness,
                    task.bandwidth_demand * task.noise,
                    1.0 + task.overfetch,
                )
                for task in tasks
            ]
        else:
            soft = self.soft_deployed
            rows = [
                (
                    task.memory_boundedness,
                    task.bandwidth_demand * task.noise,
                    task.penalty_off(soft),
                )
                for task in tasks
            ]
        config = self._dram.config
        unloaded = self._unloaded_latency
        umax = config.max_utilization
        gain = config.queue_gain
        exponent = config.queue_exponent
        overload = config.overload_gain
        damping = self.DAMPING
        capacity = self.platform.saturation_bandwidth
        load = self._last_utilization  # fraction of raw capacity
        for _ in range(self.ITERATIONS):
            # DRAMModel.latency_at_utilization, with max/min spelled as
            # the comparisons they perform (NaN included).
            u = 0.0 if 0.0 > load else load
            clamped = umax if umax < u else u
            latency = unloaded * (1.0 + gain * (clamped**exponent) / (1.0 - clamped))
            if u > umax:
                latency *= 1.0 + overload * (u - umax)
            excess = latency / unloaded - 1.0
            # Task.offered_bandwidth(Task.speed(...)): (d * speed) * o.
            if hw_on:
                offered = [
                    (d * (1.0 / (1e-6 if 1e-6 > (sl := 1.0 + m * excess) else sl))) * o
                    for m, d, o in rows
                ]
            else:
                offered = [
                    d * (1.0 / (1e-6 if 1e-6 > (sl := 1.0 + m * excess + p) else sl))
                    for m, d, p in rows
                ]
            load += damping * (demand_factor * sum(offered) / capacity - load)

        latency_ns = self.latency_at(load)
        # Task.speed at the solved latency, from the same rows.
        excess = latency_ns / unloaded - 1.0
        if hw_on:
            speeds = [1.0 / (1e-6 if 1e-6 > (sl := 1.0 + m * excess) else sl) for m, _, _ in rows]
        else:
            speeds = [
                1.0 / (1e-6 if 1e-6 > (sl := 1.0 + m * excess + p) else sl) for m, _, p in rows
            ]
        qps = sum([task.base_qps * speed for task, speed in zip(tasks, speeds)]) * (
            duration_ns / SECOND
        )
        return load, latency_ns, qps
