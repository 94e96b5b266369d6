"""Fleet workload mixes — Fleetbench-style machine traces.

A fleet machine runs hundreds of services; its memory stream is a fine
interleaving of every roster function weighted by fleet cycle share. The
paper uses Fleetbench [16] as the microbenchmark that "reflects the memory
access patterns of our fleet"; :func:`fleetbench_trace` plays that role
here.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.access.address import AddressSpace
from repro.access.trace import Trace, interleave
from repro.errors import ConfigError
from repro.workloads.functions import FUNCTION_ROSTER


def fleet_mix_trace(rng: random.Random, space: AddressSpace,
                    weights: Optional[Dict[str, float]] = None,
                    scale: float = 1.0, chunk: int = 64) -> Trace:
    """Interleave roster functions with the given (or fleet) weights.

    Args:
        rng: Seeded randomness for the per-function generators.
        space: Address allocator shared across functions.
        weights: function name -> cycle-share weight. Defaults to the
            roster's fleet cycle shares.
        scale: Volume multiplier applied per function.
        chunk: Interleave granularity in records.
    """
    if scale <= 0:
        raise ConfigError(f"scale must be positive, got {scale}")
    if weights is None:
        weights = {name: profile.cycle_share
                   for name, profile in FUNCTION_ROSTER.items()}
    traces = []
    total = sum(weights.values())
    if total <= 0:
        raise ConfigError("weights must have positive total")
    for name, weight in weights.items():
        if name not in FUNCTION_ROSTER:
            raise ConfigError(f"unknown function {name!r} in mix")
        if weight <= 0:
            continue
        profile = FUNCTION_ROSTER[name]
        traces.append(profile.trace(rng, space,
                                    scale=scale * weight / total * 10.0))
    return interleave(traces, chunk=chunk)


def fleetbench_trace(rng: random.Random, space: AddressSpace,
                     scale: float = 1.0) -> Trace:
    """The default fleet-representative mix (Fleetbench stand-in)."""
    return fleet_mix_trace(rng, space, scale=scale)
