"""Application models: composite workloads mixing tax and app code.

Section 4.1 reports that, with prefetchers disabled, a memory-bound search
application gained >10% QPS, an ML model server >30% QPS, and a database
server >1% throughput, while other workloads regressed ~5% on average.
These models assemble per-request traces from the function roster with
app-specific mixes so those divergent responses can be reproduced: apps
dominated by irregular access gain from disabling prefetchers; apps heavy
in tax functions regress.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.access.address import AddressSpace
from repro.access.trace import Trace, interleave
from repro.errors import ConfigError
from repro.workloads.functions import FUNCTION_ROSTER


@dataclass(frozen=True)
class ApplicationModel:
    """A service modelled as a weighted mix of roster functions.

    Attributes:
        name: Service name.
        mix: function name -> weight; weights are normalized internally.
        interleave_chunk: Records per function per round when composing a
            request, modelling fine-grained interleaving of library calls
            with application code.
    """

    name: str
    mix: Tuple[Tuple[str, float], ...]
    interleave_chunk: int = 48

    def __post_init__(self) -> None:
        if not self.mix:
            raise ConfigError(f"app {self.name}: empty function mix")
        for function, weight in self.mix:
            if function not in FUNCTION_ROSTER:
                raise ConfigError(
                    f"app {self.name}: unknown function {function!r}")
            if weight <= 0:
                raise ConfigError(
                    f"app {self.name}: non-positive weight for {function!r}")

    @property
    def weights(self) -> Dict[str, float]:
        """Normalized function weights (sum to 1)."""
        total = sum(weight for _, weight in self.mix)
        return {function: weight / total for function, weight in self.mix}

    def tax_fraction(self) -> float:
        """Share of the mix attributable to data center tax functions."""
        from repro.workloads.base import TAX_CATEGORIES
        return sum(
            weight for function, weight in self.weights.items()
            if FUNCTION_ROSTER[function].category in TAX_CATEGORIES)

    def request_trace(self, rng: random.Random, space: AddressSpace,
                      scale: float = 1.0) -> Trace:
        """One request's memory trace: the mix, finely interleaved."""
        traces = []
        for function, weight in self.weights.items():
            profile = FUNCTION_ROSTER[function]
            traces.append(profile.trace(rng, space, scale=scale * weight))
        return interleave(traces, chunk=self.interleave_chunk)

    def workload_trace(self, rng: random.Random, space: AddressSpace,
                       requests: int, scale: float = 1.0) -> Trace:
        """A stream of ``requests`` back-to-back request traces."""
        if requests <= 0:
            raise ConfigError(f"requests must be positive, got {requests}")
        trace = Trace()
        for _ in range(requests):
            trace = trace + self.request_trace(rng, space, scale)
        return trace


def search_backend() -> ApplicationModel:
    """Memory-bound search: dominated by index probes (irregular), with a
    modest tax share. Gains when hardware prefetchers are disabled."""
    return ApplicationModel(
        name="search_backend",
        mix=(
            ("pointer_chase", 0.40),
            ("btree_lookup", 0.25),
            ("hashmap_probe", 0.15),
            ("memcpy", 0.08),
            ("serialize", 0.06),
            ("compress", 0.06),
        ),
    )


def ml_model_server() -> ApplicationModel:
    """Embedding-heavy ML serving: almost entirely random gathers — the
    >30% QPS winner from disabling prefetchers."""
    return ApplicationModel(
        name="ml_model_server",
        mix=(
            ("random_access", 0.58),
            ("hashmap_probe", 0.28),
            ("memcpy", 0.07),
            ("deserialize", 0.07),
        ),
    )


def database_server() -> ApplicationModel:
    """A storage/database server: B-tree heavy with a large tax share
    (copies, compression, checksums) — roughly break-even under ablation,
    the paper quotes >1% gain."""
    return ApplicationModel(
        name="database_server",
        mix=(
            ("btree_lookup", 0.35),
            ("pointer_chase", 0.10),
            ("memcpy", 0.15),
            ("compress", 0.13),
            ("decompress", 0.12),
            ("crc32", 0.08),
            ("serialize", 0.07),
        ),
    )
