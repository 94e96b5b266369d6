"""Request-level workload emission for the scenario subsystem.

Microservice call graphs and tenant antagonists are built from a small
set of *request shapes* — short bursts of memory traffic modelling one
RPC's worth of work — emitted straight through the columnar
:func:`~repro.access.builder.trace_builder` bulk emitters
(``append_stream`` / ``append_addresses``), so scenario traces are born
column-backed like every other generator's.

Determinism mirrors the fault injectors: every random draw comes from a
:func:`~repro.seeds.stable_seed` stream keyed by the scenario seed and
the entity (service, tenant, request, epoch) it belongs to — never from
shared RNG state — so traces are identical across worker counts, shard
sizes, and engines.
"""

from __future__ import annotations

import random

from repro.errors import ConfigError
from repro.seeds import stable_rng, stable_seed
from repro.units import CACHE_LINE_BYTES

#: Request-shape vocabulary. ``stream`` is the prefetch-friendly RPC
#: data plane (sequential payload scans); ``random`` models metadata /
#: hash-map lookups (independent uniform loads); ``chase`` models
#: dependent pointer walks (the prefetch-hostile worst case); ``mixed``
#: interleaves a stream burst with random lookups, the common
#: service shape.
WORKLOAD_KINDS = ("stream", "random", "chase", "mixed")

_PC_STREAM = 0x6000_0010
_PC_RANDOM = 0x6000_0110
_PC_CHASE = 0x6000_0210

#: Working-set region a request's random/chase lookups land in. Far
#: larger than the LLC so uncached lookups are demand DRAM accesses.
_LOOKUP_REGION_BYTES = 64 * 1024 * 1024


def scenario_seed(*parts) -> int:
    """Stable 63-bit seed for one scenario entity
    (:func:`~repro.seeds.stable_seed` in the ``scenario`` namespace)."""
    return stable_seed("scenario", *parts)


def scenario_rng(*parts) -> random.Random:
    """A fresh RNG seeded from the namespaced scenario stream."""
    return stable_rng("scenario", *parts)


def check_kind(kind: str) -> str:
    """Validate a workload-kind name (returns it unchanged)."""
    if kind not in WORKLOAD_KINDS:
        raise ConfigError(
            f"unknown workload kind {kind!r}; known: {WORKLOAD_KINDS}")
    return kind


def emit_request(builder, kind: str, rng: random.Random, space,
                 lines: int, function: str,
                 gap_cycles: int = 4) -> None:
    """Emit one request's worth of traffic (``lines`` line-touches).

    Every record carries ``function``, so per-request (call-graph) or
    per-tenant (co-location) attribution falls out of the simulator's
    per-function statistics with no bookkeeping of our own.
    """
    check_kind(kind)
    if lines <= 0:
        raise ConfigError(f"request lines must be positive, got {lines}")
    if kind == "stream":
        base = space.allocate(lines * CACHE_LINE_BYTES)
        builder.append_stream(base, lines, pc=_PC_STREAM,
                              function=function, gap_cycles=gap_cycles)
    elif kind == "random":
        _emit_lookups(builder, rng, space, lines, pc=_PC_RANDOM,
                      size=8, function=function, gap_cycles=gap_cycles)
    elif kind == "chase":
        # A dependent walk: one load per hop, larger gaps (the core is
        # stuck waiting on the previous hop before computing the next).
        _emit_lookups(builder, rng, space, lines, pc=_PC_CHASE,
                      size=8, function=function,
                      gap_cycles=gap_cycles * 2)
    else:  # mixed
        burst = max(1, lines // 2)
        base = space.allocate(burst * CACHE_LINE_BYTES)
        builder.append_stream(base, burst, pc=_PC_STREAM,
                              function=function, gap_cycles=gap_cycles)
        remainder = lines - burst
        if remainder > 0:
            _emit_lookups(builder, rng, space, remainder, pc=_PC_RANDOM,
                          size=8, function=function,
                          gap_cycles=gap_cycles)


def _emit_lookups(builder, rng: random.Random, space, count: int,
                  pc: int, size: int, function: str,
                  gap_cycles: int) -> None:
    base = space.allocate(_LOOKUP_REGION_BYTES)
    num_lines = _LOOKUP_REGION_BYTES // CACHE_LINE_BYTES
    builder.append_addresses(
        [base + rng.randrange(num_lines) * CACHE_LINE_BYTES
         for _ in range(count)],
        size=size, pc=pc, function=function, gap_cycles=gap_cycles)


def request_label(index: int) -> str:
    """The per-request function label (``req0042``) used for per-request
    latency attribution inside one service's concatenated trace."""
    return f"req{index:04d}"
