"""Aggregated profile samples, keyed by function."""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.memsys.stats import FunctionStats
from repro.workloads.base import FunctionCategory, category_of_function


class ProfileData:
    """Per-function cycle/instruction/miss aggregates from sampling.

    Compatible with :func:`repro.core.soft.targets.identify_targets`
    through :meth:`as_mapping`.
    """

    def __init__(self) -> None:
        self._functions: Dict[str, FunctionStats] = {}
        self.samples = 0

    @classmethod
    def from_mapping(cls, functions: Dict[str, FunctionStats],
                     samples: int = 0) -> "ProfileData":
        """Rebuild an aggregate from a per-function stats mapping (the
        inverse of :meth:`as_mapping`, used by result deserialization)."""
        data = cls()
        data._functions = dict(functions)
        data.samples = samples
        return data

    def record(self, function: str, instructions: float, cycles: float,
               llc_misses: float) -> None:
        """Fold one sample's worth of a function's activity in."""
        stats = self._functions.get(function)
        if stats is None:
            stats = self._functions[function] = FunctionStats()
        whole_instructions = int(round(instructions))
        stats.instructions += whole_instructions
        stats.compute_cycles += whole_instructions
        stats.stall_cycles += max(cycles - instructions, 0.0)
        stats.llc_misses += int(round(llc_misses))

    def merge(self, other: "ProfileData") -> "ProfileData":
        """Fold another aggregate into this one.

        Per-function counters add, so merging is associative and
        order-independent — sharded profilers combine into the same
        aggregate a single fleet-wide profiler would have produced.
        Returns ``self`` for chaining.
        """
        for function, stats in other._functions.items():
            mine = self._functions.setdefault(function, FunctionStats())
            mine.merge(stats)
        self.samples += other.samples
        return self

    # --- views --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._functions)

    def __contains__(self, function: str) -> bool:
        return function in self._functions

    def __iter__(self) -> Iterator[Tuple[str, FunctionStats]]:
        return iter(sorted(self._functions.items()))

    def function(self, name: str) -> FunctionStats:
        """Stats for one function (empty record if never seen)."""
        return self._functions.get(name, FunctionStats())

    def as_mapping(self) -> Dict[str, FunctionStats]:
        """A plain dict view, for the target-identification API."""
        return dict(self._functions)

    def total_cycles(self) -> float:
        """Total cycles across all profiled functions, summed in sorted
        function order (see :meth:`category_cycle_shares`)."""
        return sum([stats.cycles for _, stats in sorted(self._functions.items())])

    def cycle_share(self, function: str) -> float:
        """One function's share of total profiled cycles."""
        total = self.total_cycles()
        if total <= 0:
            return 0.0
        return self.function(function).cycles / total

    def category_cycle_shares(self) -> Dict[FunctionCategory, float]:
        """Cycle share per taxonomy category — the Figure 20 y-axis.

        Sums functions in sorted order, as the serialized form stores
        them, so a restored profile reports the same shares to the bit.
        """
        total = self.total_cycles()
        shares: Dict[FunctionCategory, float] = {}
        if total <= 0:
            return shares
        for function, stats in sorted(self._functions.items()):
            category = category_of_function(function)
            shares[category] = shares.get(category, 0.0) + stats.cycles / total
        return shares
