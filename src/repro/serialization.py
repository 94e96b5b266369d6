"""Serialization: traces and experiment results to portable JSON.

Traces round-trip losslessly through JSON Lines (one record per line), so
workloads captured once can be replayed across simulator versions and
shared alongside results. Experiment results flatten to plain dicts for
archiving next to the benchmark outputs.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from typing import Dict, List, Union

from repro.access.record import AccessKind, MemoryAccess
from repro.access.trace import Trace
from repro.errors import TraceError
from repro.memsys.stats import FunctionStats, RunResult

_PathLike = Union[str, pathlib.Path]


def canonical_json(obj) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace.

    The one encoding shared by everything that content-hashes or
    byte-compares JSON — result-cache keys and payload digests, the
    observability event log, manifest run digests. Two equal values
    always encode to identical bytes.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def atomic_write_text(path: _PathLike, text: str) -> pathlib.Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The one write discipline shared by everything that persists results
    — the result cache, the shard checkpoint journal, observability
    output, archived metrics. A reader can never observe a torn file: it
    sees either the previous complete content or the new complete
    content, even if the writer is SIGKILLed mid-write, because the data
    lands under a temporary name in the same directory first and the
    final ``os.replace`` is atomic on POSIX.
    """
    path = pathlib.Path(path)
    fd, temp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return path


# --- traces -----------------------------------------------------------------

def access_to_dict(record: MemoryAccess) -> Dict:
    """One trace record as a plain dict (JSON-safe)."""
    return {
        "address": record.address,
        "size": record.size,
        "kind": record.kind.value,
        "pc": record.pc,
        "function": record.function,
        "gap_cycles": record.gap_cycles,
    }


def access_from_dict(data: Dict) -> MemoryAccess:
    """Inverse of :func:`access_to_dict`."""
    try:
        kind = AccessKind(data.get("kind", AccessKind.LOAD.value))
        return MemoryAccess(
            address=data["address"],
            size=data.get("size", 8),
            kind=kind,
            pc=data.get("pc", 0),
            function=data.get("function", ""),
            gap_cycles=data.get("gap_cycles", 0),
        )
    except (KeyError, ValueError, TypeError) as error:
        raise TraceError(f"malformed trace record {data!r}: {error}") from error


def trace_to_dicts(trace: Trace) -> List[Dict]:
    """A whole trace as a list of plain dicts."""
    return [access_to_dict(record) for record in trace]


def save_trace_jsonl(trace: Trace, path: _PathLike) -> None:
    """Write a trace as JSON Lines (one record per line; atomic)."""
    lines = [json.dumps(access_to_dict(record)) for record in trace]
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def load_trace_jsonl(path: _PathLike) -> Trace:
    """Read a trace written by :func:`save_trace_jsonl`."""
    path = pathlib.Path(path)
    records = []
    with path.open() as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceError(
                    f"{path}:{line_number}: invalid JSON: {error}") from error
            records.append(access_from_dict(data))
    return Trace(records)


# --- results -----------------------------------------------------------------

def function_stats_to_dict(stats: FunctionStats) -> Dict:
    """One function's statistics as a plain dict, including the derived
    metrics the paper reports (MPKI, load-to-use)."""
    return {
        "instructions": stats.instructions,
        "compute_cycles": stats.compute_cycles,
        "stall_cycles": stats.stall_cycles,
        "cycles": stats.cycles,
        "loads": stats.loads,
        "stores": stats.stores,
        "software_prefetches": stats.software_prefetches,
        "l1_misses": stats.l1_misses,
        "l2_misses": stats.l2_misses,
        "llc_misses": stats.llc_misses,
        "llc_mpki": stats.llc_mpki,
        "prefetch_covered": stats.prefetch_covered,
        "late_prefetch_hits": stats.late_prefetch_hits,
        "dram_wait_ns": stats.dram_wait_ns,
        "late_prefetch_wait_ns": stats.late_prefetch_wait_ns,
        "average_load_to_use_ns": stats.average_load_to_use_ns,
    }


def function_stats_from_dict(data: Dict) -> FunctionStats:
    """Inverse of :func:`function_stats_to_dict` (derived metrics such as
    ``cycles`` and ``llc_mpki`` are recomputed, not read back)."""
    return FunctionStats(
        instructions=int(data.get("instructions", 0)),
        compute_cycles=int(data.get("compute_cycles", 0)),
        stall_cycles=float(data.get("stall_cycles", 0.0)),
        loads=int(data.get("loads", 0)),
        stores=int(data.get("stores", 0)),
        software_prefetches=int(data.get("software_prefetches", 0)),
        l1_misses=int(data.get("l1_misses", 0)),
        l2_misses=int(data.get("l2_misses", 0)),
        llc_misses=int(data.get("llc_misses", 0)),
        prefetch_covered=int(data.get("prefetch_covered", 0)),
        late_prefetch_hits=int(data.get("late_prefetch_hits", 0)),
        dram_wait_ns=float(data.get("dram_wait_ns", 0.0)),
        late_prefetch_wait_ns=float(data.get("late_prefetch_wait_ns", 0.0)),
    )


def run_result_to_dict(result: RunResult) -> Dict:
    """A simulator run's outcome as a plain dict."""
    return {
        "elapsed_ns": result.elapsed_ns,
        "dram_demand_fills": result.dram_demand_fills,
        "dram_prefetch_fills": result.dram_prefetch_fills,
        "dram_total_bytes": result.dram_total_bytes,
        "average_bandwidth": result.average_bandwidth,
        "prefetch_traffic_fraction": result.prefetch_traffic_fraction,
        "prefetch_accuracy": result.prefetch_accuracy,
        "hw_prefetches_issued": result.hw_prefetches_issued,
        "useful_prefetches": result.useful_prefetches,
        "wasted_prefetches": result.wasted_prefetches,
        "total": function_stats_to_dict(result.total),
        "functions": {name: function_stats_to_dict(stats)
                      for name, stats in sorted(result.functions.items())},
    }


def save_run_result(result: RunResult, path: _PathLike) -> None:
    """Archive a run result as pretty-printed JSON (atomic)."""
    atomic_write_text(path, json.dumps(run_result_to_dict(result), indent=2)
                      + "\n")


def fleet_metrics_to_dict(metrics, include_samples: bool = False) -> Dict:
    """A fleet run's metrics as a plain dict.

    By default only the summaries the evaluation quotes are included;
    ``include_samples`` additionally embeds every raw per-socket sample
    (large, but enough to recompute any percentile later).
    """
    bandwidth = metrics.bandwidth_summary()
    latency = metrics.latency_summary()
    data = {
        "epochs": metrics.epochs,
        "rejections": metrics.rejections,
        "total_qps": metrics.total_qps,
        "ideal_qps": metrics.ideal_qps,
        "normalized_throughput": metrics.normalized_throughput,
        "cpu_utilization_mean": metrics.cpu_utilization_mean(),
        "saturated_socket_fraction": metrics.saturated_socket_fraction(),
        "bandwidth": {"mean": bandwidth.mean, "p50": bandwidth.p50,
                      "p90": bandwidth.p90, "p99": bandwidth.p99,
                      "peak": bandwidth.peak},
        "latency_ns": {"mean": latency.mean, "p50": latency.p50,
                       "p90": latency.p90, "p99": latency.p99,
                       "peak": latency.peak},
        "throughput_by_cpu_band": metrics.throughput_by_cpu_band(),
        "bandwidth_by_cpu_bucket": metrics.bandwidth_by_cpu_bucket(),
    }
    if include_samples:
        data["samples"] = {
            "socket_bandwidth": list(metrics.socket_bandwidth),
            "socket_utilization": list(metrics.socket_utilization),
            "socket_latency": list(metrics.socket_latency),
            "machine_points": [list(point)
                               for point in metrics.machine_points],
        }
    return data


def save_fleet_metrics(metrics, path: _PathLike,
                       include_samples: bool = False) -> None:
    """Archive fleet metrics as pretty-printed JSON (atomic)."""
    atomic_write_text(path, json.dumps(
        fleet_metrics_to_dict(metrics, include_samples), indent=2) + "\n")


def fleet_metrics_from_dict(data: Dict):
    """Inverse of ``fleet_metrics_to_dict(..., include_samples=True)``.

    Raw samples are required — summaries alone cannot rebuild the metric
    object — so dicts written without ``include_samples`` are rejected.
    JSON round-trips floats exactly, so a reloaded object reproduces
    every percentile bit-for-bit.
    """
    from repro.fleet.cluster import FleetMetrics

    try:
        samples = data["samples"]
        return FleetMetrics(
            socket_bandwidth=[float(x)
                              for x in samples["socket_bandwidth"]],
            socket_utilization=[float(x)
                                for x in samples["socket_utilization"]],
            socket_latency=[float(x) for x in samples["socket_latency"]],
            machine_points=[tuple(float(v) for v in point)
                            for point in samples["machine_points"]],
            total_qps=float(data["total_qps"]),
            ideal_qps=float(data["ideal_qps"]),
            rejections=int(data["rejections"]),
            epochs=int(data["epochs"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise TraceError(
            f"malformed fleet metrics record: {error}") from error


def profile_data_to_dict(profile) -> Dict:
    """A fleetwide profile aggregate as a plain dict."""
    return {
        "samples": profile.samples,
        "functions": {name: function_stats_to_dict(stats)
                      for name, stats in profile},
    }


def profile_data_from_dict(data: Dict):
    """Inverse of :func:`profile_data_to_dict`."""
    from repro.profiling.profile_data import ProfileData

    try:
        functions = {name: function_stats_from_dict(stats)
                     for name, stats in data["functions"].items()}
        return ProfileData.from_mapping(functions,
                                        samples=int(data["samples"]))
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise TraceError(f"malformed profile record: {error}") from error


def chaos_metrics_to_dict(chaos) -> Dict:
    """A chaos-study aggregate as a plain dict (lossless: every field is
    a raw accumulator, so views like availability/MTTR recompute)."""
    return {
        "ticks": chaos.ticks,
        "available_ticks": chaos.available_ticks,
        "down_ticks": chaos.down_ticks,
        "dropouts": chaos.dropouts,
        "invalid_samples": chaos.invalid_samples,
        "actuation_attempts": chaos.actuation_attempts,
        "actuation_failures": chaos.actuation_failures,
        "transitions": chaos.transitions,
        "incidents": chaos.incidents,
        "recovered_incidents": chaos.recovered_incidents,
        "recovery_time_ns": chaos.recovery_time_ns,
        "detection_latency_ns": chaos.detection_latency_ns,
        "failsafe_engagements": chaos.failsafe_engagements,
        "disabled_ticks": chaos.disabled_ticks,
        "state_ticks": chaos.state_ticks,
        "machine_crashes": chaos.machine_crashes,
        "machine_restarts": chaos.machine_restarts,
        "incident_kinds": dict(sorted(chaos.incident_kinds.items())),
    }


def chaos_metrics_from_dict(data: Dict):
    """Inverse of :func:`chaos_metrics_to_dict`."""
    from repro.faults.metrics import ChaosMetrics

    try:
        return ChaosMetrics(
            ticks=int(data["ticks"]),
            available_ticks=int(data["available_ticks"]),
            down_ticks=int(data["down_ticks"]),
            dropouts=int(data["dropouts"]),
            invalid_samples=int(data["invalid_samples"]),
            actuation_attempts=int(data["actuation_attempts"]),
            actuation_failures=int(data["actuation_failures"]),
            transitions=int(data["transitions"]),
            incidents=int(data["incidents"]),
            recovered_incidents=int(data["recovered_incidents"]),
            recovery_time_ns=float(data["recovery_time_ns"]),
            detection_latency_ns=float(data["detection_latency_ns"]),
            failsafe_engagements=int(data["failsafe_engagements"]),
            disabled_ticks=int(data["disabled_ticks"]),
            state_ticks=int(data["state_ticks"]),
            machine_crashes=int(data["machine_crashes"]),
            machine_restarts=int(data["machine_restarts"]),
            incident_kinds={str(kind): int(count) for kind, count
                            in data.get("incident_kinds", {}).items()},
        )
    except (KeyError, TypeError, ValueError) as error:
        raise TraceError(
            f"malformed chaos metrics record: {error}") from error


def policy_metrics_to_dict(metrics) -> Dict:
    """A policy-study aggregate as a plain dict (lossless: every field
    is a raw accumulator, so views like duty-cycle error recompute)."""
    return {
        "samples": metrics.samples,
        "disabled_samples": metrics.disabled_samples,
        "band_mismatches": metrics.band_mismatches,
        "band_samples": metrics.band_samples,
        "transitions": metrics.transitions,
        "prefetcher_disabled": dict(
            sorted(metrics.prefetcher_disabled.items())),
    }


def policy_metrics_from_dict(data: Dict):
    """Inverse of :func:`policy_metrics_to_dict`."""
    from repro.policy.metrics import PolicyMetrics

    try:
        return PolicyMetrics(
            samples=int(data["samples"]),
            disabled_samples=int(data["disabled_samples"]),
            band_mismatches=int(data["band_mismatches"]),
            band_samples=int(data["band_samples"]),
            transitions=int(data["transitions"]),
            prefetcher_disabled={str(name): int(count) for name, count
                                 in data.get("prefetcher_disabled",
                                             {}).items()},
        )
    except (KeyError, TypeError, ValueError) as error:
        raise TraceError(
            f"malformed policy metrics record: {error}") from error


def ablation_result_to_dict(result) -> Dict:
    """A paired ablation result as a plain dict (lossless: includes the
    raw samples needed to rebuild every view)."""
    data = {
        "mode": result.mode,
        "control": fleet_metrics_to_dict(result.control,
                                         include_samples=True),
        "experiment": fleet_metrics_to_dict(result.experiment,
                                            include_samples=True),
        "control_profile": profile_data_to_dict(result.control_profile),
        "experiment_profile": profile_data_to_dict(
            result.experiment_profile),
    }
    chaos = getattr(result, "chaos", None)
    if chaos is not None:
        data["chaos"] = chaos_metrics_to_dict(chaos)
    policy_metrics = getattr(result, "policy_metrics", None)
    if policy_metrics is not None:
        data["policy_metrics"] = policy_metrics_to_dict(policy_metrics)
    return data


def ablation_result_from_dict(data: Dict):
    """Inverse of :func:`ablation_result_to_dict`.

    Payloads written before fault plans (or policy studies) existed
    simply lack the ``chaos``/``policy_metrics`` keys and deserialize
    with those fields ``None``.
    """
    from repro.fleet.ablation import AblationResult

    try:
        chaos = data.get("chaos")
        policy_metrics = data.get("policy_metrics")
        return AblationResult(
            mode=data["mode"],
            control=fleet_metrics_from_dict(data["control"]),
            experiment=fleet_metrics_from_dict(data["experiment"]),
            control_profile=profile_data_from_dict(data["control_profile"]),
            experiment_profile=profile_data_from_dict(
                data["experiment_profile"]),
            chaos=None if chaos is None else chaos_metrics_from_dict(chaos),
            policy_metrics=(None if policy_metrics is None
                            else policy_metrics_from_dict(policy_metrics)),
        )
    except (KeyError, TypeError) as error:
        raise TraceError(
            f"malformed ablation result record: {error}") from error


def rollout_result_to_dict(result) -> Dict:
    """A rollout shard result as a plain dict (lossless: raw samples
    included, so a checkpointed shard restores bit-identically)."""
    data = {
        "before": fleet_metrics_to_dict(result.before,
                                        include_samples=True),
        "hard_only": fleet_metrics_to_dict(result.hard_only,
                                           include_samples=True),
        "full": fleet_metrics_to_dict(result.full, include_samples=True),
        "full_integrated": fleet_metrics_to_dict(result.full_integrated,
                                                 include_samples=True),
        "before_profile": profile_data_to_dict(result.before_profile),
        "hard_profile": profile_data_to_dict(result.hard_profile),
        "full_profile": profile_data_to_dict(result.full_profile),
    }
    chaos = getattr(result, "chaos", None)
    if chaos is not None:
        data["chaos"] = chaos_metrics_to_dict(chaos)
    return data


def rollout_result_from_dict(data: Dict):
    """Inverse of :func:`rollout_result_to_dict`."""
    from repro.fleet.rollout import RolloutResult

    try:
        chaos = data.get("chaos")
        return RolloutResult(
            before=fleet_metrics_from_dict(data["before"]),
            hard_only=fleet_metrics_from_dict(data["hard_only"]),
            full=fleet_metrics_from_dict(data["full"]),
            full_integrated=fleet_metrics_from_dict(data["full_integrated"]),
            before_profile=profile_data_from_dict(data["before_profile"]),
            hard_profile=profile_data_from_dict(data["hard_profile"]),
            full_profile=profile_data_from_dict(data["full_profile"]),
            chaos=None if chaos is None else chaos_metrics_from_dict(chaos),
        )
    except (KeyError, TypeError) as error:
        raise TraceError(
            f"malformed rollout result record: {error}") from error
