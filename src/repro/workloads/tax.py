"""Trace generators for data center *tax* functions.

These are the paper's software-prefetch targets (Section 4.1): data
movement (memcpy/memmove/memset), compression, hashing, and RPC
serialization. Their common shape — the reason they are prefetch-friendly
— is that each "performs computations over a stream of sequential data and
reads data from a source, writes data to a destination, or both."

Every generator emits per-cache-line records with small compute gaps and a
stable per-site program counter, so hardware stride/stream prefetchers can
train on them exactly as they would on the real functions.

Generation is columnar-native: records go through
:func:`~repro.access.builder.trace_builder` straight into compiled-trace
columns (``REPRO_SLOW_ENGINE=1`` swaps in the record-path oracle), so a
generated trace is born pre-lowered for the fast engine.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.access.address import AddressSpace
from repro.access.builder import trace_builder
from repro.access.record import AccessKind
from repro.access.trace import Trace
from repro.units import CACHE_LINE_BYTES, cache_lines

# Stable synthetic PCs per logical instruction site.
_PC_MEMCPY_LOAD = 0x4000_0010
_PC_MEMCPY_STORE = 0x4000_0018
_PC_MEMSET_STORE = 0x4000_0110
_PC_COMPRESS_IN = 0x4000_0210
_PC_COMPRESS_DICT = 0x4000_0218
_PC_COMPRESS_OUT = 0x4000_0220
_PC_HASH_LOAD = 0x4000_0310
_PC_CRC_LOAD = 0x4000_0330
_PC_SERIALIZE_IN = 0x4000_0410
_PC_SERIALIZE_OUT = 0x4000_0418
_PC_DESERIALIZE_IN = 0x4000_0430
_PC_DESERIALIZE_OUT = 0x4000_0438


def _emit_memcpy(builder, src: int, dst: int, size: int, gap_cycles: int,
                 function: str, first_extra_gap: int = 0) -> None:
    """Emit one memcpy call into ``builder``: alternating per-line loads
    from ``src`` and stores to ``dst``. ``first_extra_gap`` adds caller
    compute cycles to the first record (batched call sequences)."""
    builder.append_copy(
        src, dst, cache_lines(size), load_pc=_PC_MEMCPY_LOAD,
        store_pc=_PC_MEMCPY_STORE, function=function,
        gap_cycles=gap_cycles,
        first_gap_cycles=gap_cycles + first_extra_gap)


def memcpy_trace(src: int, dst: int, size: int, gap_cycles: int = 2,
                 function: str = "memcpy") -> Trace:
    """One memcpy call: streaming loads from ``src``, stores to ``dst``."""
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    builder = trace_builder()
    _emit_memcpy(builder, src, dst, size, gap_cycles, function)
    return builder.build()


def memmove_trace(src: int, dst: int, size: int, gap_cycles: int = 2) -> Trace:
    """memmove behaves like memcpy for non-overlapping regions; for an
    overlapping forward copy it walks backwards, which is what breaks
    ascending-only stream detectors."""
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    overlapping = dst > src and dst < src + size
    if not overlapping:
        return memcpy_trace(src, dst, size, gap_cycles, function="memmove")
    builder = trace_builder()
    line = CACHE_LINE_BYTES
    top = (cache_lines(size) - 1) * line
    builder.append_copy(src + top, dst + top, cache_lines(size), step=-line,
                        load_pc=_PC_MEMCPY_LOAD, store_pc=_PC_MEMCPY_STORE,
                        function="memmove", gap_cycles=gap_cycles)
    return builder.build()


def memset_trace(dst: int, size: int, gap_cycles: int = 1) -> Trace:
    """Streaming stores over ``[dst, dst + size)``."""
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    builder = trace_builder()
    builder.append_stream(dst, cache_lines(size), kind=AccessKind.STORE,
                          pc=_PC_MEMSET_STORE, function="memset",
                          gap_cycles=gap_cycles)
    return builder.build()


def memcpy_call_trace(space: AddressSpace, sizes, gap_between_calls: int = 64,
                      function: str = "memcpy") -> Trace:
    """A sequence of memcpy calls with fresh (cold) buffers per call.

    Args:
        space: Allocator for the per-call source/destination buffers.
        sizes: Iterable of call sizes in bytes (e.g. sampled from
            :class:`~repro.workloads.sizes.MemcpySizeDistribution`).
        gap_between_calls: Compute cycles separating consecutive calls,
            representing the caller's own work.
    """
    builder = trace_builder()
    for size in sizes:
        src = space.allocate(size)
        dst = space.allocate(size)
        _emit_memcpy(builder, src, dst, size, gap_cycles=2,
                     function=function, first_extra_gap=gap_between_calls)
    return builder.build()


def compress_trace(space: AddressSpace, input_size: int,
                   rng: Optional[random.Random] = None,
                   ratio: float = 0.5, window_bytes: int = 32 * 1024,
                   gap_cycles: int = 14, function: str = "compress") -> Trace:
    """Block compression: stream the input, probe a recent-history window,
    stream out a smaller output.

    The window probes mostly hit cache (they target recently read data),
    so the dominant memory behaviour is the two sequential streams — the
    contiguous, block-structured pattern Section 4.1 describes.
    """
    if input_size <= 0:
        raise ValueError(f"input_size must be positive, got {input_size}")
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    rng = rng or random.Random(0)
    src = space.allocate(input_size)
    dst = space.allocate(max(CACHE_LINE_BYTES, int(input_size * ratio)))
    builder = trace_builder()
    append = builder.append
    line = CACHE_LINE_BYTES
    out_offset = 0
    for i in range(cache_lines(input_size)):
        offset = i * line
        append(src + offset, size=line, pc=_PC_COMPRESS_IN,
               function=function, gap_cycles=gap_cycles)
        # Match-finding probe into the trailing window (usually warm).
        window_start = max(0, offset - window_bytes)
        probe = rng.randrange(window_start, offset + 1) if offset else 0
        append(src + probe, size=8, pc=_PC_COMPRESS_DICT,
               function=function, gap_cycles=2)
        # Emit compressed output every 1/ratio input lines.
        if int(i * ratio) != int((i + 1) * ratio) or i == 0:
            append(dst + out_offset, size=line, kind=AccessKind.STORE,
                   pc=_PC_COMPRESS_OUT, function=function)
            out_offset += line
    return builder.build()


def decompress_trace(space: AddressSpace, output_size: int,
                     rng: Optional[random.Random] = None,
                     ratio: float = 0.5, gap_cycles: int = 10) -> Trace:
    """Decompression: stream a small input, stream out a larger output."""
    if output_size <= 0:
        raise ValueError(f"output_size must be positive, got {output_size}")
    rng = rng or random.Random(0)
    input_size = max(CACHE_LINE_BYTES, int(output_size * ratio))
    src = space.allocate(input_size)
    dst = space.allocate(output_size)
    builder = trace_builder()
    append = builder.append
    line = CACHE_LINE_BYTES
    in_offset = 0
    for i in range(cache_lines(output_size)):
        if int(i * ratio) != int((i + 1) * ratio) or i == 0:
            append(src + in_offset, size=line, pc=_PC_COMPRESS_IN,
                   function="decompress", gap_cycles=gap_cycles)
            in_offset += line
        append(dst + i * line, size=line, kind=AccessKind.STORE,
               pc=_PC_COMPRESS_OUT, function="decompress", gap_cycles=2)
    return builder.build()


def hashing_trace(space: AddressSpace, size: int, gap_cycles: int = 10,
                  function: str = "hash") -> Trace:
    """Block hashing: a pure sequential read of the input.

    "Hashing algorithms manipulate data in predefined sequences," giving a
    predictable streaming pattern (Section 4.1). Compute gaps model the
    per-block mixing rounds.
    """
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    src = space.allocate(size)
    builder = trace_builder()
    builder.append_stream(src, cache_lines(size), pc=_PC_HASH_LOAD,
                          function=function, gap_cycles=gap_cycles)
    return builder.build()


def crc32_trace(space: AddressSpace, size: int, gap_cycles: int = 4) -> Trace:
    """CRC over a buffer: the fastest, most bandwidth-hungry hash shape."""
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    src = space.allocate(size)
    builder = trace_builder()
    builder.append_stream(src, cache_lines(size), pc=_PC_CRC_LOAD,
                          function="crc32", gap_cycles=gap_cycles)
    return builder.build()


def serialize_trace(space: AddressSpace, message_bytes: int,
                    field_stride: int = 32, gap_cycles: int = 8) -> Trace:
    """RPC serialization: walk message fields, append to a wire buffer.

    Field reads advance by ``field_stride`` (a regular small stride —
    "copying from or writing to addresses in a predictable manner",
    Section 4.1); the output buffer is written strictly sequentially.
    """
    if message_bytes <= 0:
        raise ValueError(f"message_bytes must be positive, got {message_bytes}")
    if field_stride <= 0:
        raise ValueError(f"field_stride must be positive, got {field_stride}")
    src = space.allocate(message_bytes)
    dst = space.allocate(message_bytes)
    builder = trace_builder()
    append = builder.append
    field_size = min(field_stride, 64)
    out_offset = 0
    for offset in range(0, message_bytes, field_stride):
        append(src + offset, size=field_size, pc=_PC_SERIALIZE_IN,
               function="serialize", gap_cycles=gap_cycles)
        if out_offset % CACHE_LINE_BYTES == 0:
            append(dst + out_offset, size=CACHE_LINE_BYTES,
                   kind=AccessKind.STORE, pc=_PC_SERIALIZE_OUT,
                   function="serialize")
        out_offset += field_stride
    return builder.build()


def deserialize_trace(space: AddressSpace, message_bytes: int,
                      field_stride: int = 32, gap_cycles: int = 8) -> Trace:
    """RPC deserialization: stream the wire buffer, scatter into fields."""
    if message_bytes <= 0:
        raise ValueError(f"message_bytes must be positive, got {message_bytes}")
    if field_stride <= 0:
        raise ValueError(f"field_stride must be positive, got {field_stride}")
    src = space.allocate(message_bytes)
    dst = space.allocate(message_bytes * 2)
    builder = trace_builder()
    append = builder.append
    field_size = min(field_stride, 64)
    for offset in range(0, message_bytes, field_stride):
        if offset % CACHE_LINE_BYTES == 0:
            append(src + offset, size=CACHE_LINE_BYTES,
                   pc=_PC_DESERIALIZE_IN, function="deserialize",
                   gap_cycles=gap_cycles)
        append(dst + offset * 2, size=field_size, kind=AccessKind.STORE,
               pc=_PC_DESERIALIZE_OUT, function="deserialize")
    return builder.build()
