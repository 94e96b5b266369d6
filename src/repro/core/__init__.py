"""Limoncello itself: the paper's contribution.

* :mod:`repro.core.config` — thresholds and timing configuration.
* :mod:`repro.core.controller` — Hard Limoncello's hysteresis state
  machine (Figure 8).
* :mod:`repro.core.actuator` — prefetcher actuation through (simulated)
  model-specific registers, with retry on transient failures.
* :mod:`repro.core.daemon` — the per-socket control loop: sample memory
  bandwidth every second, feed the controller, actuate on decisions.
* :mod:`repro.core.soft` — Soft Limoncello: targeted software prefetch
  injection for data center tax functions, target identification from
  ablation profiles, and the distance/degree tuning loop.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "config": ("LimoncelloConfig", "RetryPolicy"),
    "controller": (
        "ControllerState", "HardLimoncelloController",
        "SingleThresholdController",
    ),
    "actuator": (
        "CallbackActuator", "MSRPrefetcherActuator", "PrefetcherActuator",
    ),
    "daemon": ("DaemonReport", "Incident", "LimoncelloDaemon"),
    "soft": (
        "PrefetchDescriptor", "SoftwarePrefetchInjector", "TargetSelection",
        "TuningResult", "PrefetchTuner", "identify_targets",
    ),
})
