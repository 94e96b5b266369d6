"""Command-line interface: ``python -m repro <command>``.

Exposes the main harnesses without writing any code:

* ``daemon``        — run the control loop on a scripted bandwidth profile
* ``latency-curve`` — the MLC-style loaded-latency measurement (Figure 1)
* ``ablation``      — a paired fleet ablation study (Table 1, Figs 11/12)
* ``rollout``       — the before/after rollout study (Figures 16-20)
* ``thresholds``    — the Figure 10 threshold-configuration sweep
* ``microbench``    — the memcpy distance/degree sweep (Figure 15)
* ``calibrate``     — re-derive the fleet calibration table from the
  cycle-level simulator
"""

# Eager: ``main`` shares its submodule's name, and the ``repro`` console
# script is ``repro.cli:main``, so it must never be the module object.
from repro.cli.main import main

__all__ = ["main"]
