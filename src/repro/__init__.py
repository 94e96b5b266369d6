"""repro — a full reproduction of "Limoncello: Prefetchers for Scale"
(Jain & Lin et al., ASPLOS 2024) on a simulated substrate.

The package is organized in layers (see DESIGN.md):

* **Substrates** — :mod:`repro.memsys` (trace-driven cache/prefetcher/DRAM
  timing simulator), :mod:`repro.msr` (simulated model-specific
  registers), :mod:`repro.workloads` (synthetic fleet workloads),
  :mod:`repro.telemetry` (time series, percentiles, bandwidth sampling),
  :mod:`repro.fleet` (machines, scheduler, traffic, studies) and
  :mod:`repro.profiling` (the sampling fleetwide profiler).
* **The contribution** — :mod:`repro.core`: Hard Limoncello's hysteresis
  controller and MSR-actuating daemon, plus Soft Limoncello's prefetch
  descriptors, trace injector, target identification, and tuner.
* **Harnesses** — :mod:`repro.analysis` (loaded-latency curves, ablation
  analysis, threshold studies) and :mod:`repro.microbench` (memcpy
  microbenchmarks and load tests).

Quickstart::

    from repro import LimoncelloDaemon, LimoncelloConfig
    from repro import MSRPrefetcherActuator, PerfBandwidthSampler
    from repro.msr import MSRFile, INTEL_LIKE_MAP
    from repro.telemetry import ScriptedBandwidthSource
    from repro.units import SECOND

    socket = ScriptedBandwidthSource([(0, 90.0)], saturation_bandwidth=100.0)
    msrs = MSRFile()
    daemon = LimoncelloDaemon(
        PerfBandwidthSampler(socket),
        MSRPrefetcherActuator(msrs, INTEL_LIKE_MAP),
        LimoncelloConfig())
    daemon.run(duration_ns=60 * SECOND)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, _lazy_names = lazy_exports(__name__, {
    "core": (
        "CallbackActuator", "ControllerState", "HardLimoncelloController",
        "LimoncelloConfig", "LimoncelloDaemon", "MSRPrefetcherActuator",
        "PrefetchDescriptor", "PrefetchTuner", "SingleThresholdController",
        "SoftwarePrefetchInjector", "identify_targets",
    ),
    "telemetry": ("PerfBandwidthSampler",),
    "memsys": ("MemoryHierarchy", "HierarchyConfig"),
    "access": ("AddressSpace", "MemoryAccess", "Trace"),
})
__all__ = ["__version__", *_lazy_names]
