"""Fault injection for the Hard Limoncello control loop.

The paper's core claim is operational — the controller ran fleetwide —
which means the control loop had to survive telemetry gaps, failed MSR
writes, and machine reboots without ever leaving prefetchers stuck in
a bad state. This package models exactly those environments:

* :mod:`repro.faults.plan` — deterministic, seed-driven
  :class:`FaultPlan` descriptions (parse ``--fault-plan`` specs).
* :mod:`repro.faults.injectors` — wrappers around the telemetry
  sampler, the MSR actuator, and whole machines.
* :mod:`repro.faults.metrics` — the mergeable :class:`ChaosMetrics`
  aggregate (availability, MTTR, duty cycle) faulted studies report.

The daemon-side hardening these faults exercise — retry policy with
exponential backoff, the telemetry fail-safe, structured incident
logs — lives in :mod:`repro.core.daemon`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "plan": (
        "RESTART_POLICIES", "FaultClause", "FaultPlan", "fault_rng",
        "fault_seed",
    ),
    "injectors": ("FaultyActuation", "FaultyTelemetry", "MachineChaos"),
    "metrics": ("ChaosMetrics", "collect_chaos_metrics"),
})
