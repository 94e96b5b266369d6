"""Identifying software-prefetch targets from ablation profiles (§4.1).

The input is a pair of per-function profiles — the experiment group
(prefetchers disabled) and the control group (enabled) — as produced by
the fleetwide profiler over an ablation study. A function is a target when
disabling hardware prefetchers made it meaningfully *worse*: its CPU
cycles and its LLC MPKI both rose, and it is hot enough to matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping

from repro.errors import ConfigError
from repro.memsys.stats import FunctionStats
from repro.workloads.base import (
    FunctionCategory,
    TAX_CATEGORIES,
    category_of_function,
)


@dataclass(frozen=True)
class TargetSelection:
    """One function's ablation outcome and targeting decision."""

    function: str
    category: FunctionCategory
    #: Fractional cycle change when prefetchers are disabled (+0.5 = +50%).
    cycle_delta: float
    #: Fractional MPKI change when prefetchers are disabled.
    mpki_delta: float
    #: Share of total profiled cycles (control group).
    cycle_share: float
    selected: bool
    reason: str

    @property
    def is_tax(self) -> bool:
        """True when the category is a data center tax category."""
        return self.category in TAX_CATEGORIES


def _fractional_change(new: float, old: float) -> float:
    if old <= 0.0:
        return 0.0 if new <= 0.0 else float("inf")
    return (new - old) / old


def identify_targets(control: Mapping[str, FunctionStats],
                     experiment: Mapping[str, FunctionStats],
                     min_cycle_share: float = 0.01,
                     min_cycle_regression: float = 0.05,
                     min_mpki_regression: float = 0.10) -> List[TargetSelection]:
    """Rank functions by ablation regression; select prefetch targets.

    Args:
        control: Per-function stats with hardware prefetchers enabled.
        experiment: Per-function stats with them disabled.
        min_cycle_share: Functions colder than this are never selected —
            "not hot enough to warrant standalone optimizations" (§4.1).
        min_cycle_regression: Minimum fractional cycle increase.
        min_mpki_regression: Minimum fractional MPKI increase.

    Returns selections sorted by descending cycle regression.
    """
    if not control:
        raise ConfigError("control profile is empty")
    total_cycles = sum(stats.cycles for stats in control.values())
    if total_cycles <= 0:
        raise ConfigError("control profile has no cycles")

    selections: List[TargetSelection] = []
    for function, base in control.items():
        ablated = experiment.get(function)
        if ablated is None:
            continue
        cycle_delta = _fractional_change(ablated.cycles, base.cycles)
        mpki_delta = _fractional_change(ablated.llc_mpki, base.llc_mpki)
        share = base.cycles / total_cycles
        if share < min_cycle_share:
            selected, reason = False, "too cold"
        elif cycle_delta < min_cycle_regression:
            selected, reason = False, "no cycle regression"
        elif mpki_delta < min_mpki_regression:
            selected, reason = False, "regression not miss-driven"
        else:
            selected, reason = True, "regresses under ablation"
        selections.append(TargetSelection(
            function=function,
            category=category_of_function(function),
            cycle_delta=cycle_delta,
            mpki_delta=mpki_delta,
            cycle_share=share,
            selected=selected,
            reason=reason,
        ))
    selections.sort(key=lambda s: s.cycle_delta, reverse=True)
    return selections


def selected_functions(selections: List[TargetSelection]) -> List[str]:
    """Names of the selected targets, preserving rank order."""
    return [s.function for s in selections if s.selected]

