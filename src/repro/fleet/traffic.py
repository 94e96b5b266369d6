"""Traffic model: diurnal fleet load.

:class:`DiurnalTraffic` drives the fleet-level task count through a
day/night cycle with noise.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from repro.errors import ConfigError
from repro.units import SECOND


class DiurnalTraffic:
    """Target fleet load as a fraction of capacity, over a diurnal cycle.

    ``target(now)`` follows ``mean + amplitude * sin(2*pi*now/period)``
    plus Gaussian noise, clamped to [0, 1].

    The default period is a *simulation-scaled* day: fleet studies run a
    few hundred 10-second epochs, so the cycle is compressed to 600
    seconds to make every run traverse full peak/trough swings, exactly
    as the paper's two-week experiments covered many diurnal cycles.
    """

    def __init__(self, mean: float = 0.6, amplitude: float = 0.3,
                 period_ns: float = 600 * SECOND,
                 noise: float = 0.03,
                 rng: Optional[random.Random] = None) -> None:
        if not 0.0 <= mean <= 1.0:
            raise ConfigError(f"mean load must be in [0, 1], got {mean}")
        if amplitude < 0 or mean + amplitude > 1.0 + 1e-9:
            raise ConfigError("mean + amplitude must stay within capacity")
        if period_ns <= 0:
            raise ConfigError("period must be positive")
        if noise < 0:
            raise ConfigError("noise cannot be negative")
        self.mean = mean
        self.amplitude = amplitude
        self.period_ns = period_ns
        self.noise = noise
        self._rng = rng or random.Random(0)

    def target(self, now_ns: float) -> float:
        """Target load fraction at a simulation time."""
        base = self.mean + self.amplitude * math.sin(
            2.0 * math.pi * now_ns / self.period_ns)
        if self.noise:
            base += self._rng.gauss(0.0, self.noise)
        return min(max(base, 0.0), 1.0)

