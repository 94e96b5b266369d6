"""Memory-access and trace abstractions.

A *trace* is the lingua franca between workload generators
(:mod:`repro.workloads`), the software-prefetch injector
(:mod:`repro.core.soft`), and the timing simulator (:mod:`repro.memsys`):
an ordered sequence of :class:`MemoryAccess` records, each optionally
separated from its predecessor by a number of pure-compute cycles.
"""

from repro._lazy import lazy_exports
# Eager: the end-to-end benchmark's span probes look ``interleave`` up
# in ``vars(repro.access)`` and wrap it in place (benchmarks/e2e/spans.py).
from repro.access.trace import Trace, interleave

__getattr__, __dir__, _lazy_names = lazy_exports(__name__, {
    "record": ("AccessKind", "MemoryAccess"),
    "compiled": ("CompiledTrace", "concat_compiled"),
    "builder": ("RecordTraceBuilder", "TraceBuilder", "trace_builder"),
    "address": ("AddressSpace",),
})
__all__ = ["Trace", "interleave", *_lazy_names]
