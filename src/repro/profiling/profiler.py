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
from typing import Dict, Optional, Sequence

from repro.errors import ConfigError
from repro.fleet.calibration import DEFAULT_RESPONSES, ResponseTable
from repro.fleet.machine import Machine
from repro.memsys.stats import FunctionStats
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
        self._mix_rows: Dict[tuple, list] = {}

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

    def _rows(self, task, hw_on: bool, soft: bool) -> list:
        """``(stats, share, penalty, MPKI)`` per function the task runs,
        under one prefetcher configuration. Built once per share mix
        (every task drawn from one template has the same mix) and
        configuration; ``stats`` is the function's record in
        :attr:`data`, created in first-sample order."""
        key = (task.shares_key, hw_on, soft)
        rows = self._mix_rows.get(key)
        if rows is None:
            functions = self.data._functions
            rows = self._mix_rows[key] = []
            for function, share in key[0]:
                if share <= 0.0:
                    continue
                stats = functions.get(function)
                if stats is None:
                    stats = functions[function] = FunctionStats()
                response = self.responses[function]
                rows.append((stats, share, response.effective_penalty(soft),
                             response.mpki(hw_on, soft)))
        return rows

    def _sample_task(self, task, latency_ratio: float, hw_on: bool,
                     soft: bool) -> None:
        """Attribute one sampled epoch of a task across its functions
        (:meth:`ProfileData.record`, inline)."""
        base_slowdown = 1.0 + task.memory_boundedness * (latency_ratio - 1.0)
        rows = self._rows(task, hw_on, soft)
        # Per-function slowdowns first: a function that regresses takes a
        # larger share of the task's (fixed) CPU time, which is exactly
        # what moves the Figure 12/20 cycle-share bars.
        if hw_on:
            slowdown = 1e-6 if 1e-6 > base_slowdown else base_slowdown
            slowdowns = [slowdown] * len(rows)
        else:
            slowdowns = [1e-6 if 1e-6 > (slowdown := base_slowdown + penalty)
                         else slowdown for _, _, penalty, _ in rows]
        weight_total = sum([row[1] * slowdown
                            for row, slowdown in zip(rows, slowdowns)])
        if weight_total <= 0.0:
            return
        task_cycles = task.cores * _CYCLES_PER_CORE_SAMPLE
        for (stats, share, _, mpki), slowdown in zip(rows, slowdowns):
            cycles = task_cycles * share * slowdown / weight_total
            instructions = cycles / slowdown
            whole_instructions = int(round(instructions))
            stats.instructions += whole_instructions
            stats.compute_cycles += whole_instructions
            stall = cycles - instructions
            stats.stall_cycles += 0.0 if 0.0 > stall else stall
            stats.llc_misses += int(round(mpki * instructions / 1000.0))
