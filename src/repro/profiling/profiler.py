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
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.fleet.calibration import DEFAULT_RESPONSES, ResponseTable
from repro.fleet.machine import Machine
from repro.profiling.profile_data import ProfileData

#: Abstract cycles one core contributes per sampled epoch. Only ratios
#: matter downstream; this just keeps instruction counts integral.
_CYCLES_PER_CORE_SAMPLE = 1_000_000


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
        self._tables: Dict[Tuple[bool, bool], Dict[str, Tuple[float, float]]] = {}

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
            latency_ratio = epoch.latency_ns / socket.latency_at(0.0)
            hw_on = epoch.hw_prefetchers_on
            soft = socket.soft_deployed
            for task in socket.tasks:
                self._sample_task(task, latency_ratio, hw_on, soft)
        self.data.samples += 1

    def _coefficients(self, hw_on: bool, soft: bool) -> Dict[str, Tuple[float, float]]:
        """``function -> (effective penalty, MPKI)`` under one prefetcher
        configuration, filled in as functions are first sampled."""
        key = (hw_on, soft)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = {}
        return table

    def _sample_task(self, task, latency_ratio: float, hw_on: bool,
                     soft: bool) -> None:
        base_slowdown = 1.0 + task.memory_boundedness * (latency_ratio - 1.0)
        coefficients = self._coefficients(hw_on, soft)
        # Per-function slowdowns first: a function that regresses takes a
        # larger share of the task's (fixed) CPU time, which is exactly
        # what moves the Figure 12/20 cycle-share bars.
        sampled = []
        for function, share in task.function_shares.items():
            if share <= 0.0:
                continue
            entry = coefficients.get(function)
            if entry is None:
                response = self.responses[function]
                entry = coefficients[function] = (
                    response.effective_penalty(soft), response.mpki(hw_on, soft))
            slowdown = base_slowdown
            if not hw_on:
                slowdown += entry[0]
            sampled.append((function, share,
                            1e-6 if 1e-6 > slowdown else slowdown, entry[1]))
        weight_total = sum([share * slowdown
                            for _, share, slowdown, _ in sampled])
        if weight_total <= 0.0:
            return
        task_cycles = task.cores * _CYCLES_PER_CORE_SAMPLE
        record = self.data.record
        for function, share, slowdown, mpki in sampled:
            cycles = task_cycles * share * slowdown / weight_total
            instructions = cycles / slowdown
            record(function, instructions, cycles, mpki * instructions / 1000.0)
