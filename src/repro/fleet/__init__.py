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

from repro.fleet.platform import (
    PLATFORM_1,
    PLATFORM_2,
    PLATFORM_CATALOG,
    PlatformSpec,
)
from repro.fleet.calibration import (
    DEFAULT_RESPONSES,
    FunctionResponse,
    ResponseTable,
    calibrate_from_simulator,
)
from repro.fleet.task import Task, TaskTemplate, sample_task
from repro.fleet.socket import SimulatedSocket, SocketEpoch
from repro.fleet.machine import Machine
from repro.fleet.scheduler import BandwidthAwareScheduler
from repro.fleet.traffic import DiurnalTraffic, VolatileTraffic
from repro.fleet.cluster import Fleet, FleetMetrics
from repro.fleet.shard import (
    DEFAULT_SHARD_SIZE,
    ShardPlan,
    plan_batches,
    plan_rounds,
    plan_shards,
    shard_seed,
)
from repro.fleet.parallel import (
    DEFAULT_BATCH_SIZE,
    resolve_batch_size,
    resolve_workers,
    run_sharded,
    run_sharded_incremental,
)
from repro.fleet.result_cache import StudyResultCache, study_cache
from repro.fleet.queue import (
    QueueStats,
    ShardCheckpoint,
    queue_status,
    run_checkpointed,
    shard_checkpoint,
    shard_task_material,
)
from repro.fleet.adaptive import (
    AdaptiveAblation,
    AdaptiveResult,
    ArmState,
    arm_interval,
    arms_separated,
)
from repro.fleet.sweep import (
    MicroFleetSweep,
    MicroSweepResult,
    MicroSweepShardSpec,
    SWEEP_WORKLOADS,
    sweep_digest,
)
from repro.fleet.ablation import (
    AblationResult,
    AblationShardSpec,
    AblationStudy,
)
from repro.fleet.rollout import (
    RolloutResult,
    RolloutShardSpec,
    RolloutStudy,
    rollout_digest,
)

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "DEFAULT_BATCH_SIZE",
    "ShardPlan",
    "plan_batches",
    "plan_rounds",
    "plan_shards",
    "shard_seed",
    "resolve_batch_size",
    "resolve_workers",
    "run_sharded",
    "run_sharded_incremental",
    "StudyResultCache",
    "study_cache",
    "QueueStats",
    "ShardCheckpoint",
    "queue_status",
    "run_checkpointed",
    "shard_checkpoint",
    "shard_task_material",
    "AdaptiveAblation",
    "AdaptiveResult",
    "ArmState",
    "arm_interval",
    "arms_separated",
    "MicroFleetSweep",
    "MicroSweepResult",
    "MicroSweepShardSpec",
    "SWEEP_WORKLOADS",
    "sweep_digest",
    "PlatformSpec",
    "PLATFORM_1",
    "PLATFORM_2",
    "PLATFORM_CATALOG",
    "FunctionResponse",
    "ResponseTable",
    "DEFAULT_RESPONSES",
    "calibrate_from_simulator",
    "Task",
    "TaskTemplate",
    "sample_task",
    "SimulatedSocket",
    "SocketEpoch",
    "Machine",
    "BandwidthAwareScheduler",
    "DiurnalTraffic",
    "VolatileTraffic",
    "Fleet",
    "FleetMetrics",
    "AblationStudy",
    "AblationResult",
    "AblationShardSpec",
    "RolloutStudy",
    "RolloutResult",
    "RolloutShardSpec",
    "rollout_digest",
]
