"""The fleet simulator: platforms, machines, scheduler, traffic, studies.

This package plays the role of Google's production fleet in the paper's
evaluation. It is an *analytic* (per-epoch fixed-point) model layered on
coefficients calibrated against the cycle-accurate :mod:`repro.memsys`
simulator (see :mod:`repro.fleet.calibration`): each socket balances task
bandwidth demand against the DRAM latency curve every epoch, tasks slow
down with memory latency and with tax-function miss penalties, and a
bandwidth-aware scheduler decides how much work a machine can take —
which is what couples memory bandwidth headroom to achievable CPU
utilization (Figures 4 and 19).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "platform": (
        "PLATFORM_1", "PLATFORM_2", "PLATFORM_CATALOG", "PlatformSpec",
    ),
    "calibration": (
        "DEFAULT_RESPONSES", "FunctionResponse", "ResponseTable",
        "calibrate_from_simulator",
    ),
    "task": ("Task", "TaskTemplate", "sample_task"),
    "socket": ("SimulatedSocket", "SocketEpoch"),
    "machine": ("Machine",),
    "scheduler": ("BandwidthAwareScheduler",),
    "traffic": ("DiurnalTraffic",),
    "cluster": ("Fleet", "FleetMetrics"),
    "shard": (
        "DEFAULT_SHARD_SIZE", "ShardPlan", "plan_shards", "shard_seed",
    ),
    "parallel": ("resolve_workers", "run_sharded"),
    "result_cache": ("StudyResultCache", "study_cache"),
    "queue": (
        "QueueStats", "ShardCheckpoint", "queue_status", "run_checkpointed",
        "shard_checkpoint", "shard_task_material",
    ),
    "sweep": (
        "MicroFleetSweep", "MicroSweepResult", "sweep_digest",
    ),
    "ablation": ("AblationResult", "AblationStudy"),
    "rollout": ("RolloutResult", "RolloutStudy", "rollout_digest"),
})
