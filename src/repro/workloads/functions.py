"""The fleet function roster used by ablation studies (Figures 11/12/20).

Each entry names one hot fleet function, its taxonomy category, its share
of fleet cycles, and a generator producing a representative trace. The
weights follow the paper's observation that data center tax operations
account for 30-40% of fleet cycles [Kanev et al., Sriraman et al.].
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict

from repro.access.address import AddressSpace
from repro.access.trace import Trace
from repro.errors import ConfigError
from repro.units import KB
from repro.workloads import irregular, tax
from repro.workloads.base import FunctionCategory
from repro.workloads.sizes import MemcpySizeDistribution

TraceGenerator = Callable[[random.Random, AddressSpace, float], Trace]


@dataclass(frozen=True)
class FunctionProfile:
    """One hot function in the fleet profile."""

    name: str
    category: FunctionCategory
    #: Fraction of fleet CPU cycles attributed to this function.
    cycle_share: float
    generator: TraceGenerator

    def trace(self, rng: random.Random, space: AddressSpace,
              scale: float = 1.0) -> Trace:
        """Generate a representative trace; ``scale`` multiplies volume."""
        if scale <= 0:
            raise ConfigError(f"scale must be positive, got {scale}")
        return self.generator(rng, space, scale)


def _memcpy(rng: random.Random, space: AddressSpace, scale: float) -> Trace:
    sizes = MemcpySizeDistribution().sample_many(rng, max(1, int(40 * scale)))
    return tax.memcpy_call_trace(space, sizes)


def _memmove(rng: random.Random, space: AddressSpace, scale: float) -> Trace:
    trace = Trace()
    for _ in range(max(1, int(10 * scale))):
        size = MemcpySizeDistribution().sample(rng)
        src = space.allocate(size * 2)
        trace = trace + tax.memmove_trace(src, src + size // 2, size)
    return trace


def _memset(rng: random.Random, space: AddressSpace, scale: float) -> Trace:
    trace = Trace()
    for _ in range(max(1, int(15 * scale))):
        size = MemcpySizeDistribution().sample(rng)
        trace = trace + tax.memset_trace(space.allocate(size), size)
    return trace


def _compress(rng: random.Random, space: AddressSpace, scale: float) -> Trace:
    return tax.compress_trace(space, int(96 * KB * scale), rng=rng)


def _decompress(rng: random.Random, space: AddressSpace, scale: float) -> Trace:
    return tax.decompress_trace(space, int(96 * KB * scale), rng=rng)


def _hash(rng: random.Random, space: AddressSpace, scale: float) -> Trace:
    trace = Trace()
    for _ in range(max(1, int(6 * scale))):
        trace = trace + tax.hashing_trace(space, 16 * KB)
    return trace


def _crc32(rng: random.Random, space: AddressSpace, scale: float) -> Trace:
    return tax.crc32_trace(space, int(64 * KB * scale))


def _serialize(rng: random.Random, space: AddressSpace, scale: float) -> Trace:
    trace = Trace()
    for _ in range(max(1, int(8 * scale))):
        trace = trace + tax.serialize_trace(space, 8 * KB)
    return trace


def _deserialize(rng: random.Random, space: AddressSpace, scale: float) -> Trace:
    trace = Trace()
    for _ in range(max(1, int(8 * scale))):
        trace = trace + tax.deserialize_trace(space, 8 * KB)
    return trace


def _pointer_chase(rng: random.Random, space: AddressSpace,
                   scale: float) -> Trace:
    return irregular.pointer_chase_trace(
        space, 64 * 1024 * KB, max(1, int(1500 * scale)), rng=rng)


def _btree(rng: random.Random, space: AddressSpace, scale: float) -> Trace:
    return irregular.btree_lookup_trace(space, max(1, int(250 * scale)),
                                        rng=rng)


def _hashmap(rng: random.Random, space: AddressSpace, scale: float) -> Trace:
    return irregular.hashmap_probe_trace(space, max(1, int(700 * scale)),
                                         rng=rng)


def _random_access(rng: random.Random, space: AddressSpace,
                   scale: float) -> Trace:
    return irregular.random_access_trace(
        space, 64 * 1024 * KB, max(1, int(1200 * scale)), rng=rng)


def _misc_streaming(rng: random.Random, space: AddressSpace,
                    scale: float) -> Trace:
    return irregular.misc_streaming_trace(space, max(1, int(24 * scale)),
                                          rng=rng)


#: name -> profile, in the rough order Figure 11's x-axis lists functions.
FUNCTION_ROSTER: Dict[str, FunctionProfile] = {
    profile.name: profile
    for profile in (
        FunctionProfile("memcpy", FunctionCategory.DATA_MOVEMENT, 0.07, _memcpy),
        FunctionProfile("memmove", FunctionCategory.DATA_MOVEMENT, 0.02, _memmove),
        FunctionProfile("memset", FunctionCategory.DATA_MOVEMENT, 0.02, _memset),
        FunctionProfile("compress", FunctionCategory.COMPRESSION, 0.05, _compress),
        FunctionProfile("decompress", FunctionCategory.COMPRESSION, 0.05, _decompress),
        FunctionProfile("hash", FunctionCategory.HASHING, 0.03, _hash),
        FunctionProfile("crc32", FunctionCategory.HASHING, 0.02, _crc32),
        FunctionProfile("serialize", FunctionCategory.DATA_TRANSMISSION, 0.05, _serialize),
        FunctionProfile("deserialize", FunctionCategory.DATA_TRANSMISSION, 0.05, _deserialize),
        FunctionProfile("pointer_chase", FunctionCategory.NON_TAX, 0.18, _pointer_chase),
        FunctionProfile("btree_lookup", FunctionCategory.NON_TAX, 0.14, _btree),
        FunctionProfile("hashmap_probe", FunctionCategory.NON_TAX, 0.14, _hashmap),
        FunctionProfile("random_access", FunctionCategory.NON_TAX, 0.10, _random_access),
        # The long tail of prefetch-friendly loops scattered through cold
        # application code — regresses under ablation but is never a Soft
        # Limoncello target (Section 4.1).
        FunctionProfile("misc_streaming", FunctionCategory.NON_TAX, 0.08, _misc_streaming),
    )
}


def generate_function_trace(name: str, rng: random.Random,
                            space: AddressSpace, scale: float = 1.0) -> Trace:
    """Generate a trace for a roster function by name."""
    try:
        profile = FUNCTION_ROSTER[name]
    except KeyError:
        raise ConfigError(
            f"unknown function {name!r}; roster has {sorted(FUNCTION_ROSTER)}"
        ) from None
    return profile.trace(rng, space, scale)
