"""Telemetry primitives: time series, sliding windows, percentiles.

These are the building blocks for the paper's measurement plane: the
per-socket 1-second memory-bandwidth sampler that feeds Hard Limoncello's
controller, and the fleetwide percentile summaries (P50/P90/P99 latency,
average/P99/peak bandwidth) reported throughout the evaluation.
"""

from repro._lazy import lazy_exports
# Eager: ``percentile`` shares its submodule's name, so importing
# ``repro.telemetry.percentile`` would bind the module over a lazy name.
from repro.telemetry.percentile import (
    PercentileSummary,
    format_relative_change,
    percentile,
)

__getattr__, __dir__, _lazy_names = lazy_exports(__name__, {
    "timeseries": ("TimeSeries", "TimePoint"),
    "window": ("SlidingWindow",),
    "sampler": (
        "BandwidthSample", "BandwidthSampler", "PerfBandwidthSampler",
        "ScriptedBandwidthSource",
    ),
})
__all__ = ["PercentileSummary", "format_relative_change", "percentile", *_lazy_names]
