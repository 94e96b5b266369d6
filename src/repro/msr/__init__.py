"""Simulated model-specific registers (MSRs) and prefetcher control maps.

The real Limoncello actuates hardware prefetchers by writing vendor- and
platform-specific MSRs (Section 3, "Actuating Prefetcher Controls"). This
package reproduces that interface exactly — ``rdmsr``/``wrmsr`` against a
per-socket register file, with per-platform register maps describing which
bits disable which prefetchers — but backed by a simulated register file
that the simulated cache hierarchy honours.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "registers": ("DegradingMSRFile", "FaultyMSRFile", "MSRFile"),
    "platform_defs": (
        "PrefetcherControl", "PlatformMSRMap", "INTEL_LIKE_MAP",
        "AMD_LIKE_MAP", "msr_map_for_vendor",
    ),
})
