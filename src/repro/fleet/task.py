"""Tasks: the unit of work the cluster scheduler places on sockets.

A task models one service instance: it occupies CPU cores, demands memory
bandwidth in proportion to the work it gets done, and divides its cycles
among roster functions. Its *speed* (throughput relative to an unloaded
machine) degrades with memory latency and — when hardware prefetchers are
off — with the tax-function miss penalty, moderated by Soft Limoncello.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ConfigError
from repro.fleet.calibration import DEFAULT_RESPONSES, ResponseTable

_task_ids = itertools.count()


@dataclass
class Task:
    """One placed service instance.

    Attributes:
        name: Service instance name.
        cores: CPU cores the task occupies (held whether stalled or not —
            memory stalls burn CPU, which is why high memory latency shows
            up as wasted utilization).
        base_qps: Requests/second served at speed 1.0.
        bandwidth_demand: Memory bandwidth (bytes/ns) generated at speed
            1.0 *without* hardware prefetch overhead.
        memory_boundedness: Fraction of runtime exposed to DRAM latency;
            scales how much loaded-latency growth slows the task.
        function_shares: Cycle share per roster function (sums to ~1).
        noise_sigma: Log-normal volatility of the task's per-epoch demand
            (Figure 7's minute-scale variability).
    """

    name: str
    cores: float
    base_qps: float
    bandwidth_demand: float
    memory_boundedness: float
    function_shares: Dict[str, float]
    noise_sigma: float = 0.10
    responses: ResponseTable = field(default=DEFAULT_RESPONSES, repr=False)

    def __post_init__(self) -> None:
        if self.cores <= 0 or self.base_qps < 0 or self.bandwidth_demand < 0:
            raise ConfigError(f"task {self.name}: invalid resource demands")
        if not 0.0 <= self.memory_boundedness <= 1.0:
            raise ConfigError(
                f"task {self.name}: memory boundedness out of range")
        if not self.function_shares:
            raise ConfigError(f"task {self.name}: empty function shares")
        if self.noise_sigma < 0:
            raise ConfigError(f"task {self.name}: negative noise sigma")
        total = sum(self.function_shares.values())
        if total <= 0:
            raise ConfigError(f"task {self.name}: non-positive share total")
        self.function_shares = {
            fn: share / total for fn, share in self.function_shares.items()}
        #: The normalized mix as a hashable key: tasks drawn from one
        #: template share it, and so share the memoized coefficients
        #: below and the profiler's per-mix rows.
        self.shares_key = tuple(self.function_shares.items())
        #: Cached coefficients, derived once from the response table.
        (self._penalty_plain, self._penalty_soft,
         self._overfetch) = self.responses.weighted(self.shares_key)
        self.noise = 1.0

    # --- per-epoch dynamics --------------------------------------------------

    def resample_noise(self, rng: random.Random) -> None:
        """Redraw this epoch's demand-volatility factor."""
        if self.noise_sigma > 0:
            self.noise = rng.lognormvariate(0.0, self.noise_sigma)
        else:
            self.noise = 1.0

    def penalty_off(self, soft_deployed: bool) -> float:
        """Cycle penalty of running with hardware prefetchers disabled."""
        return self._penalty_soft if soft_deployed else self._penalty_plain

    @property
    def overfetch(self) -> float:
        """Extra traffic fraction hardware prefetchers add for this task."""
        return self._overfetch

    def speed(self, latency_ratio: float, hw_prefetchers_on: bool,
              soft_deployed: bool) -> float:
        """Throughput relative to an unloaded socket (1.0 = full speed).

        ``latency_ratio`` is loaded/unloaded DRAM latency (>= 1).
        """
        slowdown = 1.0 + self.memory_boundedness * (latency_ratio - 1.0)
        if not hw_prefetchers_on:
            slowdown += self.penalty_off(soft_deployed)
        return 1.0 / max(slowdown, 1e-6)

    def offered_bandwidth(self, speed: float,
                          hw_prefetchers_on: bool) -> float:
        """Memory bandwidth generated this epoch, bytes/ns."""
        bandwidth = self.bandwidth_demand * self.noise * speed
        if hw_prefetchers_on:
            bandwidth *= 1.0 + self._overfetch
        return bandwidth

    def estimated_bandwidth(self, hw_prefetchers_on: bool = True) -> float:
        """The scheduler's placement-time estimate (full speed)."""
        if hw_prefetchers_on:
            return self.bandwidth_demand * (1.0 + self._overfetch)
        return self.bandwidth_demand


@dataclass(frozen=True)
class TaskTemplate:
    """A service archetype the traffic generator instantiates tasks from."""

    name: str
    function_shares: Dict[str, float]
    cores_range: tuple = (2.0, 8.0)
    #: Log-normal parameters for GB/s demanded per core at full speed:
    #: (median, sigma, low clamp, high clamp). Fleet tasks demand more
    #: per core on average than platforms provision (Section 2.1 /
    #: Figure 4), with a heavy-tailed spread — mixes of light and heavy
    #: tasks are what spread machines across the CPU-utilization buckets
    #: of Figures 4 and 16.
    bandwidth_per_core: tuple = (3.3, 0.75, 0.4, 12.0)
    memory_boundedness_range: tuple = (0.35, 0.65)
    qps_per_core: float = 100.0
    noise_sigma: float = 0.10


#: A generic fleet service's cycle mix: the roster's fleet profile, read
#: from the response table, which lists the same functions in the same
#: order with the same shares (``tests/test_fleet_task.py`` pins the two
#: together), so the fleet never loads the trace generators.
_FLEET_SHARES: Dict[str, float] = {
    response.name: response.cycle_share for response in DEFAULT_RESPONSES}

#: A generic fleet service, with :data:`_FLEET_SHARES`.
DEFAULT_TEMPLATE = TaskTemplate(name="fleet_service", function_shares=None)


def sample_task(rng: random.Random,
                template: Optional[TaskTemplate] = None,
                responses: ResponseTable = DEFAULT_RESPONSES) -> Task:
    """Draw one task from a template's parameter ranges."""
    template = template or DEFAULT_TEMPLATE
    shares = template.function_shares or _FLEET_SHARES
    cores = rng.uniform(*template.cores_range)
    median, sigma, low, high = template.bandwidth_per_core
    per_core = min(max(rng.lognormvariate(math.log(median), sigma), low),
                   high)
    return Task(
        name=f"{template.name}-{next(_task_ids)}",
        cores=cores,
        base_qps=template.qps_per_core * cores,
        bandwidth_demand=per_core * cores,
        memory_boundedness=rng.uniform(*template.memory_boundedness_range),
        function_shares=dict(shares),
        noise_sigma=template.noise_sigma,
        responses=responses,
    )
