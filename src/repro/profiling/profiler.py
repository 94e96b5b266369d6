"""The sampling fleet profiler.

Each epoch it samples a random subset of machines (the paper's profiler
"samples a limited number of random machines at any given time") and
attributes every sampled task's activity across its function shares,
using the socket's current operating point and the calibration table for
per-function speeds and MPKIs. The result is a :class:`ProfileData` that
the target-identification pipeline consumes directly.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.fleet.calibration import DEFAULT_RESPONSES, ResponseTable
from repro.fleet.machine import Machine
from repro.memsys.stats import FunctionStats
from repro.profiling.profile_data import ProfileData

#: Abstract cycles one core contributes per sampled epoch. Only ratios
#: matter downstream; this just keeps instruction counts integral.
_CYCLES_PER_CORE_SAMPLE = 1_000_000

#: Attribution kernel factories, one per ``(function count, hw_on)``,
#: compiled on first use and kept for the life of the process.
_SAMPLE_KERNELS: Dict[Tuple[int, bool], Callable] = {}


def sample_kernel(count: int, hw_on: bool) -> Callable:
    """The factory of the attribution kernel for ``count`` functions.

    Called with ``(stats, share, penalty, mpki)`` per function, flat, it
    returns ``kernel(task, latency_ratio)``, which attributes one sampled
    epoch of a task across those functions.
    """
    factory = _SAMPLE_KERNELS.get((count, hw_on))
    if factory is None:
        factory = _SAMPLE_KERNELS[count, hw_on] = _compile_sample(count, hw_on)
    return factory


def _compile_sample(count: int, hw_on: bool) -> Callable:
    """Build one shape's attribution as straight-line source, one set of
    locals per function, bound by name through the factory's closure.

    It is :meth:`ProfileData.record` per function, inline, with every
    float operation in its order. ``max`` is spelled as the comparison
    it performs, and a float's ``round`` is already an ``int``. The
    slowdowns come first: a function that regresses takes a larger
    share of the task's (fixed) CPU time, which is exactly what moves
    the Figure 12/20 cycle-share bars.
    """
    ids = range(count)
    lines = [
        "def make(%s):" % ", ".join(
            f"stats{i}, share{i}, penalty{i}, mpki{i}" for i in ids),
        "    def sample(task, latency_ratio):",
        "        base = 1.0 + task.memory_boundedness * (latency_ratio - 1.0)",
    ]
    if hw_on:
        lines += ["        slowdown = base",
                  "        if 1e-6 > slowdown:",
                  "            slowdown = 1e-6"]
        slowdowns = ["slowdown"] * count
    else:
        for i in ids:
            lines += [f"        slowdown{i} = base + penalty{i}",
                      f"        if 1e-6 > slowdown{i}:",
                      f"            slowdown{i} = 1e-6"]
        slowdowns = [f"slowdown{i}" for i in ids]
    weights = "".join(f"share{i} * {slowdowns[i]}, " for i in ids)
    lines += [f"        weight_total = sum(({weights}))",
              "        if weight_total <= 0.0:",
              "            return",
              f"        task_cycles = task.cores * {_CYCLES_PER_CORE_SAMPLE}"]
    for i, slowdown in zip(ids, slowdowns):
        lines += [
            f"        cycles = task_cycles * share{i} * {slowdown} / weight_total",
            f"        instructions = cycles / {slowdown}",
            "        whole_instructions = round(instructions)",
            f"        stats{i}.instructions += whole_instructions",
            f"        stats{i}.compute_cycles += whole_instructions",
            "        stall = cycles - instructions",
            f"        stats{i}.stall_cycles += 0.0 if 0.0 > stall else stall",
            f"        stats{i}.llc_misses += round(mpki{i} * instructions / 1000.0)",
        ]
    lines.append("    return sample")
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<profiler sample {count} {hw_on}>",
                 "exec"), namespace)
    return namespace["make"]


class FleetProfiler:
    """Samples machines and accumulates per-function profiles.

    Instances are callables compatible with ``Fleet.run(observers=...)``.

    Args:
        sample_rate: Probability a machine is profiled in a given epoch.
        responses: Calibration table for per-function MPKI and penalty.
        rng: Dedicated randomness (so profiling does not perturb the
            fleet's own random stream).
    """

    def __init__(self, sample_rate: float = 0.1,
                 responses: ResponseTable = DEFAULT_RESPONSES,
                 rng: Optional[random.Random] = None) -> None:
        if not 0.0 < sample_rate <= 1.0:
            raise ConfigError(
                f"sample rate must be in (0, 1], got {sample_rate}")
        self.sample_rate = sample_rate
        self.responses = responses
        self.data = ProfileData()
        self._rng = rng or random.Random(0x9F1E7)
        #: ``(hw_on, soft)`` -> share mix -> attribution kernel.
        self._kernels: Dict[tuple, Dict[tuple, Callable]] = {}

    def __call__(self, now_ns: float, machines: Sequence[Machine],
                 rng: random.Random) -> None:
        """Observer hook: sample some machines this epoch."""
        for machine in machines:
            if self._rng.random() < self.sample_rate:
                self.sample_machine(machine)

    def sample_machine(self, machine: Machine) -> None:
        """Attribute one epoch of one machine's activity per function."""
        for socket in machine.sockets:
            if not socket.history:
                continue
            epoch = socket.history[-1]
            latency_ratio = epoch.latency_ns / socket.unloaded_latency_ns
            hw_on = epoch.hw_prefetchers_on
            soft = socket.soft_deployed
            kernels = self._kernels.get((hw_on, soft))
            if kernels is None:
                kernels = self._kernels[hw_on, soft] = {}
            for task in socket.tasks:
                kernel = kernels.get(task.shares_key)
                if kernel is None:
                    kernel = kernels[task.shares_key] = self._kernel(
                        task.shares_key, hw_on, soft)
                kernel(task, latency_ratio)
        self.data.samples += 1

    def _kernel(self, shares_key: tuple, hw_on: bool, soft: bool) -> Callable:
        """The attribution kernel for one share mix under one prefetcher
        configuration (every task drawn from one template has the same
        mix). It binds, per function the task runs, its record in
        :attr:`data` (created in first-sample order), share, effective
        penalty and MPKI."""
        functions = self.data._functions
        bound = []
        for function, share in shares_key:
            if share <= 0.0:
                continue
            stats = functions.get(function)
            if stats is None:
                stats = functions[function] = FunctionStats()
            response = self.responses[function]
            bound += (stats, share, response.effective_penalty(soft),
                      response.mpki(hw_on, soft))
        return sample_kernel(len(bound) // 4, hw_on)(*bound)
