"""Aggregated controller-robustness metrics for faulted studies.

A fleet under fault injection produces per-daemon incident logs
(:class:`~repro.core.daemon.Incident`). :class:`ChaosMetrics` reduces
them — plus machine crash/outage counters — to the operational numbers
the study reports: controller availability, mean time to recovery, the
prefetchers-disabled duty cycle, and per-kind incident counts.

Every field is a plain additive accumulator, so :meth:`ChaosMetrics.merge`
is associative and order-independent — the same algebra that lets
sharded fleet studies return bit-identical results at any worker count
(see :mod:`repro.fleet.shard`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class ChaosMetrics:
    """What a faulted study observed across every daemon in a fleet."""

    #: Control ticks the daemons actually ran.
    ticks: int = 0
    #: Ticks with a usable telemetry sample (the controller was live).
    available_ticks: int = 0
    #: Daemon-ticks lost to machine outages (daemons not running).
    down_ticks: int = 0
    dropouts: int = 0
    invalid_samples: int = 0
    actuation_attempts: int = 0
    actuation_failures: int = 0
    transitions: int = 0
    incidents: int = 0
    recovered_incidents: int = 0
    #: Sum over recovered incidents of (recovered - detected), ns.
    recovery_time_ns: float = 0.0
    #: Sum over incidents of (detected - onset), ns.
    detection_latency_ns: float = 0.0
    failsafe_engagements: int = 0
    #: Ticks with prefetchers disabled / total state ticks observed.
    disabled_ticks: int = 0
    state_ticks: int = 0
    machine_crashes: int = 0
    machine_restarts: int = 0
    incident_kinds: Dict[str, int] = field(default_factory=dict)

    # --- combination ----------------------------------------------------------

    def merge(self, other: "ChaosMetrics") -> "ChaosMetrics":
        """Fold another shard's chaos metrics into this one (in place).

        Pure addition on every field — associative and commutative, so
        merged shard metrics are independent of merge order. Returns
        ``self`` for chaining.
        """
        self.ticks += other.ticks
        self.available_ticks += other.available_ticks
        self.down_ticks += other.down_ticks
        self.dropouts += other.dropouts
        self.invalid_samples += other.invalid_samples
        self.actuation_attempts += other.actuation_attempts
        self.actuation_failures += other.actuation_failures
        self.transitions += other.transitions
        self.incidents += other.incidents
        self.recovered_incidents += other.recovered_incidents
        self.recovery_time_ns += other.recovery_time_ns
        self.detection_latency_ns += other.detection_latency_ns
        self.failsafe_engagements += other.failsafe_engagements
        self.disabled_ticks += other.disabled_ticks
        self.state_ticks += other.state_ticks
        self.machine_crashes += other.machine_crashes
        self.machine_restarts += other.machine_restarts
        for kind, count in other.incident_kinds.items():
            self.incident_kinds[kind] = (
                self.incident_kinds.get(kind, 0) + count)
        return self

    # --- views ---------------------------------------------------------------

    @property
    def scheduled_ticks(self) -> int:
        """Control ticks the fleet's daemons were due to run, including
        those lost to machine outages."""
        return self.ticks + self.down_ticks

    def availability(self) -> float:
        """Fraction of scheduled control ticks with live, usable
        telemetry — machine-down time counts against it."""
        if self.scheduled_ticks == 0:
            return 1.0
        return self.available_ticks / self.scheduled_ticks

    def mean_time_to_recovery_ns(self) -> Optional[float]:
        """Mean incident (detected -> recovered) time; ``None`` when no
        incident recovered."""
        if self.recovered_incidents == 0:
            return None
        return self.recovery_time_ns / self.recovered_incidents

    def mean_detection_latency_ns(self) -> Optional[float]:
        """Mean (fault onset -> detection) time; ``None`` without
        incidents."""
        if self.incidents == 0:
            return None
        return self.detection_latency_ns / self.incidents

    def duty_cycle_disabled(self) -> float:
        """Fraction of observed state ticks with prefetchers disabled."""
        if self.state_ticks == 0:
            return 0.0
        return self.disabled_ticks / self.state_ticks


def collect_chaos_metrics(machines) -> ChaosMetrics:
    """Reduce a fleet's daemons (and crash counters) to one
    :class:`ChaosMetrics`.

    Iterates machines in fleet order; since every field is additive the
    result is independent of that order anyway.
    """
    metrics = ChaosMetrics()
    for machine in machines:
        daemons = getattr(machine, "daemons", [])
        chaos = getattr(machine, "chaos", None)
        metrics.machine_restarts += getattr(machine, "restarts", 0)
        if chaos is not None:
            metrics.machine_crashes += chaos.crashes
            metrics.down_ticks += chaos.down_epochs * len(daemons)
        for daemon in daemons:
            report = daemon.report
            metrics.ticks += report.ticks
            metrics.available_ticks += report.samples
            metrics.dropouts += report.dropouts
            metrics.invalid_samples += report.invalid_samples
            metrics.actuation_attempts += report.actuation_attempts
            metrics.actuation_failures += report.actuation_failures
            metrics.transitions += report.transitions
            metrics.failsafe_engagements += report.failsafe_engagements
            metrics.disabled_ticks += report.disabled_ticks
            metrics.state_ticks += report.enabled_ticks + report.disabled_ticks
            for incident in report.incidents:
                metrics.incidents += 1
                metrics.incident_kinds[incident.kind] = (
                    metrics.incident_kinds.get(incident.kind, 0) + 1)
                metrics.detection_latency_ns += incident.detection_latency_ns
                if incident.recovered_ns is not None:
                    metrics.recovered_incidents += 1
                    metrics.recovery_time_ns += (
                        incident.recovered_ns - incident.detected_ns)
    return metrics
