"""The threshold study behind Figure 10.

"To identify the upper and lower thresholds for Hard Limoncello, we run a
hardware ablation study [...] we examined various lower and upper memory
bandwidth thresholds [...] by analyzing application performance trends."
The deployed winner was 60/80. The study runs Hard Limoncello (no
software prefetchers, matching the paper's ablation protocol) under each
candidate configuration and reports the fleet throughput change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.config import LimoncelloConfig
from repro.errors import ConfigError
from repro.fleet.ablation import AblationStudy
from repro.units import SECOND

#: The configurations Figure 10 compares, as (lower%, upper%) pairs.
PAPER_CONFIGURATIONS: Tuple[Tuple[int, int], ...] = (
    (60, 80), (50, 70), (70, 90))


@dataclass(frozen=True)
class ThresholdOutcome:
    """One configuration's result."""

    label: str
    lower: float
    upper: float
    throughput_change: float
    latency_change_p50: float
    bandwidth_change_mean: float


class ThresholdStudy:
    """Sweeps (lower, upper) threshold pairs through fleet ablations."""

    def __init__(self, configurations: Sequence[Tuple[int, int]]
                 = PAPER_CONFIGURATIONS,
                 machines: int = 16, epochs: int = 60,
                 warmup_epochs: int = 20, seed: int = 13,
                 soft: bool = False) -> None:
        if not configurations:
            raise ConfigError("need at least one configuration")
        self.configurations = tuple(configurations)
        self.machines = machines
        self.epochs = epochs
        self.warmup_epochs = warmup_epochs
        self.seed = seed
        self.mode = "hard+soft" if soft else "hard"

    def run(self, workers: Optional[int] = None,
            cache_dir: Optional[str] = None) -> List[ThresholdOutcome]:
        """Run every configuration; returns outcomes in input order.

        ``workers`` and ``cache_dir`` pass straight through to each
        underlying :meth:`AblationStudy.run` — the sweep's ablations
        shard, parallelize, and cache like any other fleet study.
        """
        outcomes = []
        for lower, upper in self.configurations:
            # Timing matches the default fleet epoch (10 s): one telemetry
            # sample per epoch, three sustained samples to flip state.
            config = LimoncelloConfig.from_percent(
                lower, upper,
                sample_period_ns=10 * SECOND,
                sustain_duration_ns=30 * SECOND)
            study = AblationStudy(
                mode=self.mode, machines=self.machines, epochs=self.epochs,
                warmup_epochs=self.warmup_epochs, seed=self.seed,
                config=config)
            result = study.run(workers=workers, cache_dir=cache_dir)
            outcomes.append(ThresholdOutcome(
                label=f"{lower}/{upper}",
                lower=lower / 100.0,
                upper=upper / 100.0,
                throughput_change=result.throughput_change(),
                latency_change_p50=result.latency_reduction()["p50"],
                bandwidth_change_mean=result.bandwidth_reduction()["mean"],
            ))
        return outcomes

    @staticmethod
    def best(outcomes: List[ThresholdOutcome]) -> ThresholdOutcome:
        """The outcome with the highest throughput change."""
        if not outcomes:
            raise ConfigError("no outcomes to rank")
        return max(outcomes, key=lambda o: o.throughput_change)

