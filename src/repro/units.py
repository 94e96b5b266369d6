"""Units and conversion helpers used across the simulator.

The simulator's canonical units are:

* time        — nanoseconds (``float``)
* data size   — bytes (``int``)
* bandwidth   — bytes per nanosecond (numerically equal to GB/s)

``bytes/ns`` was chosen deliberately: ``1 byte/ns == 1 GB/s`` (using the
decimal gigabyte the paper and vendors use for bandwidth), so bandwidth
values printed anywhere in the code read directly as GB/s.
"""

from __future__ import annotations

# --- data sizes -----------------------------------------------------------

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Size of one cache line in bytes; all modelled platforms use 64B lines.
CACHE_LINE_BYTES = 64

# --- time -----------------------------------------------------------------

NS = 1.0
US = 1_000.0
MS = 1_000_000.0
SECOND = 1_000_000_000.0
MINUTE = 60.0 * SECOND


def seconds(value: float) -> float:
    """Convert seconds to the canonical time unit (nanoseconds)."""
    return value * SECOND


def cache_lines(num_bytes: int, line_bytes: int = CACHE_LINE_BYTES) -> int:
    """Number of cache lines needed to hold ``num_bytes`` bytes (ceiling)."""
    if num_bytes < 0:
        raise ValueError(f"byte count must be non-negative, got {num_bytes}")
    return -(-num_bytes // line_bytes)


def line_address(address: int, line_bytes: int = CACHE_LINE_BYTES) -> int:
    """Round ``address`` down to the start of its cache line."""
    return address & ~(line_bytes - 1)


# --- study sharding -------------------------------------------------------

#: Machines per shard when the caller does not choose. Sized so the
#: repository's historical study sizes (<= 32 machines) stay single-shard
#: — and therefore numerically identical to the pre-sharding engine —
#: while paper-scale populations split into enough shards to keep every
#: worker busy. It lives in this leaf module, not in
#: :mod:`repro.fleet.shard` (which re-exports it), so the CLI parser and
#: the studies can read it without loading the fleet package or the cache
#: simulator.
DEFAULT_SHARD_SIZE = 32
