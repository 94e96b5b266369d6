"""Serialization: traces and experiment results to portable JSON.

Traces round-trip losslessly through JSON Lines (one record per line), so
workloads captured once can be replayed across simulator versions and
shared alongside results. Experiment results flatten to plain dicts for
archiving next to the benchmark outputs. Fleet study results have a
second, compact form for the result cache and the shard journal, with
each sample column packed as base64 doubles (see the study-results
section below).
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import tempfile
from array import array
from base64 import b64decode, b64encode
from itertools import chain
from typing import Callable, Dict, Iterable, List, Tuple, Union

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
    return _fleet_metrics_from(
        data, lambda values: [float(x) for x in values],
        lambda points: [tuple(float(v) for v in point) for point in points])


def _fleet_metrics_from(data: Dict, column: Callable, points: Callable):
    """A :class:`~repro.fleet.cluster.FleetMetrics` from the digest or
    the stored form; ``column`` and ``points`` decode its samples."""
    from repro.fleet.cluster import FleetMetrics

    try:
        samples = data["samples"]
        return FleetMetrics(
            socket_bandwidth=column(samples["socket_bandwidth"]),
            socket_utilization=column(samples["socket_utilization"]),
            socket_latency=column(samples["socket_latency"]),
            machine_points=points(samples["machine_points"]),
            total_qps=float(data["total_qps"]),
            ideal_qps=float(data["ideal_qps"]),
            rejections=int(data["rejections"]),
            epochs=int(data["epochs"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise TraceError(
            f"malformed fleet metrics record: {error}") from error


# --- packed sample columns (cache and journal payloads) ---------------------

#: Floats per :attr:`~repro.fleet.cluster.FleetMetrics.machine_points`
#: entry: cpu utilization, bandwidth utilization, achieved and ideal qps.
_POINT_WIDTH = 4


def pack_floats(values: Iterable[float]) -> str:
    """Floats as little-endian IEEE-754 doubles in base64 text.

    Bit-exact for every double (NaN payloads, signed zeros, infinities,
    subnormals), and roughly half the size of the values' ``repr`` text.
    """
    column = array("d", values)
    if sys.byteorder == "big":
        column.byteswap()
    return b64encode(column.tobytes()).decode("ascii")


def unpack_floats(text: str) -> List[float]:
    """Inverse of :func:`pack_floats`; anything that is not whole
    base64 doubles raises :class:`~repro.errors.TraceError`."""
    column = array("d")
    try:
        column.frombytes(b64decode(text, validate=True))
    except (TypeError, ValueError) as error:  # binascii.Error included
        raise TraceError(f"malformed packed column: {error}") from error
    if sys.byteorder == "big":
        column.byteswap()
    return column.tolist()


def unpack_points(text: str) -> List[Tuple[float, ...]]:
    """Machine points from one packed column, four floats per point."""
    flat = unpack_floats(text)
    if len(flat) % _POINT_WIDTH:
        raise TraceError(f"packed machine points hold {len(flat)} floats, "
                         f"not a multiple of {_POINT_WIDTH}")
    return list(zip(*[iter(flat)] * _POINT_WIDTH))


def fleet_metrics_to_payload(metrics) -> Dict:
    """A fleet run's metrics in the stored form: the scalar totals and
    the four sample columns packed by :func:`pack_floats`. The derived
    summaries are left out, since :func:`fleet_metrics_from_payload`
    rebuilds every view from the samples."""
    return {
        "epochs": metrics.epochs,
        "rejections": metrics.rejections,
        "total_qps": metrics.total_qps,
        "ideal_qps": metrics.ideal_qps,
        "samples": {
            "socket_bandwidth": pack_floats(metrics.socket_bandwidth),
            "socket_utilization": pack_floats(metrics.socket_utilization),
            "socket_latency": pack_floats(metrics.socket_latency),
            "machine_points": pack_floats(
                chain.from_iterable(metrics.machine_points)),
        },
    }


def fleet_metrics_from_payload(data: Dict):
    """Inverse of :func:`fleet_metrics_to_payload`, bit for bit."""
    return _fleet_metrics_from(data, unpack_floats, unpack_points)


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


# --- study results: the digest form and the stored form ----------------------
#
# ``*_to_dict``/``*_from_dict`` are the digest form: every sample as JSON
# floats plus the derived summaries, hashed by ``result_digest`` and
# ``rollout_digest``. ``*_to_payload``/``*_from_payload`` are the stored
# form the result cache and the shard journal hold: the same fields with
# packed sample columns and no summaries. Both rebuild the same result.

_ABLATION_ARMS = ("control", "experiment")
_ABLATION_PROFILES = ("control_profile", "experiment_profile")
_ROLLOUT_ARMS = ("before", "hard_only", "full", "full_integrated")
_ROLLOUT_PROFILES = ("before_profile", "hard_profile", "full_profile")


def _digest_metrics(metrics) -> Dict:
    return fleet_metrics_to_dict(metrics, include_samples=True)


def _arms_to_dict(result, arms, profiles, metrics_to_dict) -> Dict:
    """A study result's arms, profiles and chaos block as a plain dict."""
    data = {arm: metrics_to_dict(getattr(result, arm)) for arm in arms}
    for name in profiles:
        data[name] = profile_data_to_dict(getattr(result, name))
    chaos = getattr(result, "chaos", None)
    if chaos is not None:
        data["chaos"] = chaos_metrics_to_dict(chaos)
    return data


def _arms_from_dict(data: Dict, arms, profiles, metrics_from_dict) -> Dict:
    """Inverse of :func:`_arms_to_dict`, as result constructor fields."""
    fields = {arm: metrics_from_dict(data[arm]) for arm in arms}
    for name in profiles:
        fields[name] = profile_data_from_dict(data[name])
    chaos = data.get("chaos")
    fields["chaos"] = None if chaos is None else chaos_metrics_from_dict(chaos)
    return fields


def _ablation_to(result, metrics_to_dict) -> Dict:
    return {"mode": result.mode,
            **_arms_to_dict(result, _ABLATION_ARMS, _ABLATION_PROFILES,
                            metrics_to_dict)}


def _ablation_from(data: Dict, metrics_from_dict):
    from repro.fleet.ablation import AblationResult

    try:
        return AblationResult(
            mode=data["mode"],
            **_arms_from_dict(data, _ABLATION_ARMS, _ABLATION_PROFILES,
                              metrics_from_dict))
    except (KeyError, TypeError, AttributeError) as error:
        raise TraceError(
            f"malformed ablation result record: {error}") from error


def ablation_result_to_dict(result) -> Dict:
    """A paired ablation result in the digest form (lossless: includes
    the raw samples needed to rebuild every view)."""
    return _ablation_to(result, _digest_metrics)


def ablation_result_from_dict(data: Dict):
    """Inverse of :func:`ablation_result_to_dict`.

    Payloads written before fault plans existed simply lack the
    ``chaos`` key and deserialize with that field ``None``.
    """
    return _ablation_from(data, fleet_metrics_from_dict)


def ablation_result_to_payload(result) -> Dict:
    """A paired ablation result in the stored form (packed samples)."""
    return _ablation_to(result, fleet_metrics_to_payload)


def ablation_result_from_payload(data: Dict):
    """Inverse of :func:`ablation_result_to_payload`."""
    return _ablation_from(data, fleet_metrics_from_payload)


def _rollout_from(data: Dict, metrics_from_dict):
    from repro.fleet.rollout import RolloutResult

    try:
        return RolloutResult(**_arms_from_dict(
            data, _ROLLOUT_ARMS, _ROLLOUT_PROFILES, metrics_from_dict))
    except (KeyError, TypeError, AttributeError) as error:
        raise TraceError(
            f"malformed rollout result record: {error}") from error


def rollout_result_to_dict(result) -> Dict:
    """A rollout result in the digest form (lossless: raw samples
    included)."""
    return _arms_to_dict(result, _ROLLOUT_ARMS, _ROLLOUT_PROFILES,
                         _digest_metrics)


def rollout_result_from_dict(data: Dict):
    """Inverse of :func:`rollout_result_to_dict`."""
    return _rollout_from(data, fleet_metrics_from_dict)


def rollout_result_to_payload(result) -> Dict:
    """A rollout result in the stored form (packed samples), so a
    checkpointed shard restores bit-identically."""
    return _arms_to_dict(result, _ROLLOUT_ARMS, _ROLLOUT_PROFILES,
                         fleet_metrics_to_payload)


def rollout_result_from_payload(data: Dict):
    """Inverse of :func:`rollout_result_to_payload`."""
    return _rollout_from(data, fleet_metrics_from_payload)
