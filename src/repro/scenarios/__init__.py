"""Scenario subsystem: microservice call graphs and noisy neighbors.

The paper's evaluation is fleet-scale but workload-narrow; this package
adds the two scenario classes its motivation describes — SLOFetch-style
RPC call graphs with end-to-end P50/P90/P99 SLO metrics, and
multi-tenant DRAM-bandwidth interference with per-tenant attribution —
threaded through the same sharded/cached/checkpointed execution
machinery as the fleet studies.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "callgraph": (
        "CALLGRAPH_MODES", "CallGraphResult", "CallGraphScenario",
        "DEFAULT_SERVICES", "ServiceSpec",
        "callgraph_digest", "parse_services", "run_callgraph_shard",
    ),
    "tenancy": (
        "DEFAULT_TENANTS", "NOISY_MODES", "NoisyNeighborResult",
        "NoisyNeighborScenario", "TenantSpec",
        "noisy_digest", "parse_tenants", "run_noisy_shard",
    ),
    "workload": (
        "WORKLOAD_KINDS", "emit_request", "request_label",
        "scenario_rng", "scenario_seed",
    ),
})
