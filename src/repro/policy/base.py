"""The policy protocol, the two threshold policies, and the daemon adapter.

A :class:`Policy` maps a bandwidth-utilization sample to per-prefetcher
enable decisions. Policies are deliberately small, deterministic, and
JSON-serializable:

* :class:`HysteresisPolicy` — the paper's Figure 8 state machine
  (wrapping :class:`~repro.core.controller.HardLimoncelloController`)
  as the baseline; all prefetchers toggle together.
* :class:`SingleThresholdPolicy` — the no-hysteresis straw man.

:class:`PolicyController` adapts any policy to the controller interface
:class:`~repro.core.daemon.LimoncelloDaemon` expects (``observe`` /
``reset`` / ``prefetchers_enabled`` / ``state`` / ``decisions``), so a
policy drops into the existing fleet, chaos, and obs machinery
unchanged. Per-prefetcher decisions are reduced to the socket-level
actuation the analytic fleet models (prefetchers count as "on" unless
the policy disables *all* of them, matching the socket's MSR
semantics); the full per-prefetcher decisions are still recorded in
:class:`~repro.policy.metrics.PolicyMetrics`.

Serialization: ``policy.to_dict()`` → :func:`policy_from_dict` is a
byte-identical round trip under canonical JSON, and
:func:`policy_digest` content-hashes a policy the same way study caches
hash their results.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple, Type

from repro.core.config import LimoncelloConfig
from repro.core.controller import (ControllerState, Decision,
                                   HardLimoncelloController)
from repro.errors import ConfigError, TelemetryError
from repro.serialization import canonical_json

#: Serialized-policy schema; bumped on incompatible changes.
POLICY_SCHEMA_VERSION = 1

#: The prefetchers a policy decides over, in the platform MSR-map
#: control order (:data:`repro.msr.platform_defs.INTEL_LIKE_MAP`).
#: Fixed ordering keeps every per-prefetcher iteration — decisions,
#: metrics, serialization — deterministic.
DEFAULT_PREFETCHERS: Tuple[str, ...] = (
    "l2_stream", "l2_adjacent_line", "l1_stride", "l1_next_line")


class Policy:
    """Base class for prefetcher-control policies.

    Subclasses set :attr:`kind`, decide per-prefetcher enables from a
    utilization sample, and serialize to a canonical dict. Policies
    must be deterministic given their configuration: no wall-clock, no
    ambient RNG.
    """

    #: The ``kind`` field of the serialized form.
    kind: str = ""

    #: The prefetchers this policy decides over, in decision order.
    prefetchers: Tuple[str, ...] = DEFAULT_PREFETCHERS

    def decide(self, time_ns: float,
               utilization: float) -> Dict[str, bool]:
        """Per-prefetcher enable decisions for one telemetry sample."""
        raise NotImplementedError

    def reset(self) -> None:
        """Return to the boot state (machine restart)."""

    def to_dict(self) -> dict:
        """Canonical JSON-serializable form (configuration only, not
        accumulated runtime state)."""
        raise NotImplementedError


def policy_from_dict(payload: dict) -> Policy:
    """Rebuild a policy from its serialized form."""
    if not isinstance(payload, dict):
        raise ConfigError(f"policy payload must be a dict, got "
                          f"{type(payload).__name__}")
    schema = payload.get("schema")
    if schema != POLICY_SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported policy schema {schema!r} "
            f"(this build reads {POLICY_SCHEMA_VERSION})")
    kind = payload.get("kind")
    cls = _KINDS.get(kind)
    if cls is None:
        known = ", ".join(sorted(_KINDS))
        raise ConfigError(f"unknown policy kind {kind!r} (known: {known})")
    return cls.from_dict(payload)


def policy_from_spec(spec) -> Policy:
    """A *fresh* policy instance from a spec.

    Accepts a :class:`Policy` (cloned through serialization so shared
    specs never share mutable state), a serialized dict, or a canonical
    JSON string. Every call returns a new instance — per-socket
    controllers must not share policy state.
    """
    if isinstance(spec, Policy):
        return policy_from_dict(spec.to_dict())
    if isinstance(spec, str):
        import json
        return policy_from_dict(json.loads(spec))
    return policy_from_dict(spec)


def policy_digest(policy) -> str:
    """Content hash of a policy's canonical serialized form."""
    payload = policy.to_dict() if isinstance(policy, Policy) else policy
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _coerce_prefetchers(names) -> Tuple[str, ...]:
    names = tuple(names)
    if not names:
        raise ConfigError("a policy needs at least one prefetcher")
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate prefetcher names: {names}")
    return names


class HysteresisPolicy(Policy):
    """The paper's hysteresis controller as a policy (the baseline).

    Wraps a private :class:`HardLimoncelloController`; all prefetchers
    follow its single socket-level decision, so a fleet running this
    policy behaves bit-identically to the stock Hard deployment.
    """

    kind = "hysteresis"

    def __init__(self, config: Optional[LimoncelloConfig] = None,
                 prefetchers=DEFAULT_PREFETCHERS) -> None:
        self.config = config or LimoncelloConfig()
        self.prefetchers = _coerce_prefetchers(prefetchers)
        self._controller = HardLimoncelloController(self.config)

    def decide(self, time_ns: float,
               utilization: float) -> Dict[str, bool]:
        decision = self._controller.observe(time_ns, utilization)
        enabled = decision.prefetchers_enabled
        return {name: enabled for name in self.prefetchers}

    def reset(self) -> None:
        self._controller.reset()

    def to_dict(self) -> dict:
        return {
            "schema": POLICY_SCHEMA_VERSION,
            "kind": self.kind,
            "prefetchers": list(self.prefetchers),
            "lower_threshold": self.config.lower_threshold,
            "upper_threshold": self.config.upper_threshold,
            "sustain_duration_ns": self.config.sustain_duration_ns,
            "sample_period_ns": self.config.sample_period_ns,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "HysteresisPolicy":
        config = LimoncelloConfig(
            lower_threshold=payload["lower_threshold"],
            upper_threshold=payload["upper_threshold"],
            sustain_duration_ns=payload["sustain_duration_ns"],
            sample_period_ns=payload["sample_period_ns"])
        return cls(config=config, prefetchers=payload["prefetchers"])


class SingleThresholdPolicy(Policy):
    """One threshold, immediate flips — the no-hysteresis straw man."""

    kind = "single-threshold"

    def __init__(self, threshold: float = 0.8,
                 prefetchers=DEFAULT_PREFETCHERS) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ConfigError(f"threshold must be in (0, 1], got {threshold}")
        self.threshold = threshold
        self.prefetchers = _coerce_prefetchers(prefetchers)

    def decide(self, time_ns: float,
               utilization: float) -> Dict[str, bool]:
        enabled = utilization <= self.threshold
        return {name: enabled for name in self.prefetchers}

    def to_dict(self) -> dict:
        return {
            "schema": POLICY_SCHEMA_VERSION,
            "kind": self.kind,
            "prefetchers": list(self.prefetchers),
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SingleThresholdPolicy":
        return cls(threshold=payload["threshold"],
                   prefetchers=payload["prefetchers"])


#: Every policy kind, keyed by its serialized ``kind``.
_KINDS: Dict[str, Type[Policy]] = {
    cls.kind: cls for cls in (HysteresisPolicy, SingleThresholdPolicy)}


class PolicyController:
    """Adapts a :class:`Policy` to the daemon's controller interface.

    Feeds each validated utilization sample to the policy, reduces
    per-prefetcher decisions to the socket-level state the actuator
    applies, and accumulates :class:`~repro.policy.metrics.PolicyMetrics`
    (duty cycle, band-oracle mismatches, per-prefetcher disables).

    Args:
        policy: The decision policy (owned by this controller; use
            :func:`policy_from_spec` per socket, never share instances).
        config: Thresholds for the band oracle; defaults match the
            daemon's.
        tracer: Optional :class:`repro.obs.Tracer`; socket-level flips
            emit ``policy-decision`` events.
        ident: Stable ``"<machine>/<socket>"`` identity, carried on the
            ``policy-decision`` events.
    """

    def __init__(self, policy: Policy,
                 config: Optional[LimoncelloConfig] = None,
                 tracer=None, ident: str = "") -> None:
        from repro.policy.metrics import PolicyMetrics
        self.policy = policy
        self.config = config or LimoncelloConfig()
        self.tracer = tracer
        self.ident = ident
        self.policy_metrics = PolicyMetrics()
        self._enabled = True
        self._last_decisions: Dict[str, bool] = {
            name: True for name in policy.prefetchers}
        self._last_time: Optional[float] = None
        self.transitions = 0
        self.decisions: List[Decision] = []

    @property
    def prefetchers_enabled(self) -> bool:
        """Socket-level prefetcher state (off only when the policy has
        disabled every prefetcher)."""
        return self._enabled

    @property
    def state(self) -> ControllerState:
        """Coarse controller state for daemon bookkeeping."""
        return (ControllerState.ENABLED if self._enabled
                else ControllerState.DISABLED)

    @property
    def prefetcher_decisions(self) -> Dict[str, bool]:
        """The most recent per-prefetcher decisions."""
        return dict(self._last_decisions)

    def observe(self, time_ns: float, utilization: float) -> Decision:
        """Feed one utilization sample; returns the socket-level decision."""
        if self._last_time is not None and time_ns < self._last_time:
            raise TelemetryError(
                f"controller time moved backwards: {time_ns} < {self._last_time}")
        self._last_time = time_ns

        actions = self.policy.decide(time_ns, utilization)
        enabled = any(actions.values())
        changed = enabled != self._enabled

        metrics = self.policy_metrics
        metrics.samples += 1
        if not enabled:
            metrics.disabled_samples += 1
        for name, on in actions.items():
            if not on:
                metrics.prefetcher_disabled[name] = (
                    metrics.prefetcher_disabled.get(name, 0) + 1)
        oracle = self._band_oracle(utilization)
        if oracle is not None:
            metrics.band_samples += 1
            if enabled != oracle:
                metrics.band_mismatches += 1
        if changed:
            metrics.transitions += 1
            self.transitions += 1
            if self.tracer:
                self.tracer.event("policy-decision", time_ns,
                                  ident=self.ident, policy=self.policy.kind,
                                  enabled=enabled)

        self._enabled = enabled
        self._last_decisions = actions
        decision = Decision(time_ns=time_ns, utilization=utilization,
                            state=self.state, changed=changed)
        self.decisions.append(decision)
        return decision

    def reset(self) -> None:
        """Return to the boot state (all prefetchers enabled, fresh
        policy state). Cumulative metrics and the decision history
        survive, like the daemon's report."""
        self.policy.reset()
        self._enabled = True
        self._last_decisions = {name: True
                                for name in self.policy.prefetchers}
        self._last_time = None

    # --- internals -----------------------------------------------------------

    def _band_oracle(self, utilization: float) -> Optional[bool]:
        """The unambiguous correct socket state, or ``None`` in-band."""
        if utilization > self.config.upper_threshold:
            return False
        if utilization < self.config.lower_threshold:
            return True
        return None
