"""Measurement and analysis harnesses built on the simulators.

* :mod:`repro.analysis.latency_curves` — the Intel-MLC-style loaded
  latency measurement behind Figures 1 and 6.
* :mod:`repro.analysis.ablation_analysis` — micro-level (trace-driven)
  per-function ablation, the high-fidelity version of Figures 11/12.
* :mod:`repro.analysis.thresholds` — the Figure 10 threshold study.
* :mod:`repro.analysis.chaos` — :func:`result_digest`, the content hash
  ``--compare-serial`` checks ablation results with.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "chaos": ("result_digest",),
    "latency_curves": (
        "LatencyCurve", "LatencyPoint", "limoncello_envelope",
        "measure_latency_curve",
    ),
    "ablation_analysis": (
        "FunctionAblation", "MicroAblationStudy", "aggregate_by_category",
    ),
    "thresholds": ("ThresholdStudy", "ThresholdOutcome"),
    "access_patterns": (
        "FunctionPattern", "analyze_trace", "propose_descriptors",
    ),
})
