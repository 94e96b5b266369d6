"""A SPEC-like benchmark suite (for Figure 5).

The paper profiles SPEC over three server generations and finds hardware
prefetching adds 30-40% memory traffic. SPEC-class benchmarks are far more
regular than fleet code — long loops over arrays with some irregular
outliers — which is exactly why vendors tune prefetchers on them. The
suite below mirrors that composition: mostly streaming/strided kernels
(which stream prefetchers chase hard, overshooting at every stream end)
plus a couple of irregular members.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.access.address import AddressSpace
from repro.access.builder import trace_builder
from repro.access.trace import Trace
from repro.errors import ConfigError
from repro.units import CACHE_LINE_BYTES, KB
from repro.workloads import irregular

_PC_STREAM = 0x6000_0010
_PC_STRIDED = 0x6000_0110


def _streaming_kernel(rng: random.Random, space: AddressSpace,
                      scale: float) -> Trace:
    """Long unit-stride array sweeps, libquantum/STREAM style, broken into
    medium-length runs so stream-end overshoot recurs."""
    builder = trace_builder()
    runs = max(1, int(24 * scale))
    for _ in range(runs):
        run_lines = rng.randrange(32, 96)
        base = space.allocate(run_lines * CACHE_LINE_BYTES)
        builder.append_stream(base, run_lines, pc=_PC_STREAM,
                              function="spec_stream", gap_cycles=2)
    return builder.build()


def _strided_kernel(rng: random.Random, space: AddressSpace,
                    scale: float) -> Trace:
    """Fixed non-unit strides (matrix columns): stride prefetcher food,
    adjacent-line prefetcher poison."""
    builder = trace_builder()
    sweeps = max(1, int(12 * scale))
    for _ in range(sweeps):
        stride = rng.choice((128, 256, 512))
        count = rng.randrange(48, 128)
        base = space.allocate(stride * count)
        builder.append_stream(base, count, step=stride, size=8,
                              pc=_PC_STRIDED, function="spec_strided",
                              gap_cycles=4)
    return builder.build()


def _irregular_kernel(rng: random.Random, space: AddressSpace,
                      scale: float) -> Trace:
    """mcf-style pointer chasing."""
    return irregular.pointer_chase_trace(
        space, 32 * 1024 * KB, max(1, int(600 * scale)), rng=rng,
        function="spec_irregular")


@dataclass(frozen=True)
class SpecBenchmark:
    """One member of the SPEC-like suite."""

    name: str
    generator: Callable[[random.Random, AddressSpace, float], Trace]

    def trace(self, rng: random.Random, space: AddressSpace,
              scale: float = 1.0) -> Trace:
        """Generate this benchmark's trace."""
        if scale <= 0:
            raise ConfigError(f"scale must be positive, got {scale}")
        return self.generator(rng, space, scale)


#: Suite composition: regular-dominated, like SPEC CPU's memory behaviour.
SPEC_SUITE = (
    SpecBenchmark("stream_like", _streaming_kernel),
    SpecBenchmark("strided_like", _strided_kernel),
    SpecBenchmark("stream_like_2", _streaming_kernel),
    SpecBenchmark("irregular_like", _irregular_kernel),
)


def suite_trace(rng: random.Random, space: AddressSpace,
                scale: float = 1.0) -> Trace:
    """The whole suite, run back to back."""
    trace = Trace()
    for benchmark in SPEC_SUITE:
        trace = trace + benchmark.trace(rng, space, scale)
    return trace
