"""Deterministic, seed-driven fault plans.

The deployed Hard Limoncello controller ran fleetwide, where partial
failure is the steady state: telemetry samplers get descheduled, perf
counters return garbage, ``wrmsr`` races firmware, and machines reboot
mid-experiment. A :class:`FaultPlan` describes such an environment as
data — a list of fault clauses plus a seed — so a faulted study can be
replayed bit-for-bit, sharded across workers, and keyed into the
on-disk result cache like any other study parameter.

Plans are written as compact specs (the CLI's ``--fault-plan``)::

    telemetry-blackout:start=120,duration=60;msr-transient:rate=0.3

Every clause is ``kind[:key=value,...]``; clauses join with ``;``. A
leading ``seed=N`` clause overrides the plan seed. Times are in
seconds (converted to ns internally), rates are probabilities per
sample/write/epoch.

Determinism contract: every random draw a fault injector makes comes
from a :class:`random.Random` seeded by :func:`fault_seed` over
``(plan seed, fleet seed, machine name, role)`` — independent of
``PYTHONHASHSEED``, process, platform, and crucially of *worker
count*: a sharded study builds the same fleets from the same seeds
whether shards run serially or on a process pool, so the injected
fault streams (and therefore the study result) are identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ConfigError
from repro.seeds import FAULT_NAMESPACE, stable_rng, stable_seed
from repro.units import SECOND

#: Machine restart policies: prefetcher state after a crash-reboot.
RESTART_POLICIES = ("enabled", "disabled", "preserved")

#: Registry of fault kinds -> {param: (default, validator)}. ``None``
#: defaults mark required parameters.
_RATE = ("rate", "probability in [0, 1)")
_TELEMETRY_KINDS: Dict[str, Dict[str, Optional[Union[float, str]]]] = {
    "telemetry-drop": {"rate": None},
    "telemetry-nan": {"rate": None},
    "telemetry-stale": {"rate": None},
    "telemetry-latency": {"rate": None, "delay": 2.0},
    "telemetry-skew": {"offset": None},
    "telemetry-blackout": {"start": None, "duration": None},
}
_ACTUATION_KINDS: Dict[str, Dict[str, Optional[Union[float, str]]]] = {
    "msr-transient": {"rate": None},
    "msr-permanent": {"after": None},
    "msr-partial": {"rate": None},
}
_MACHINE_KINDS: Dict[str, Dict[str, Optional[Union[float, str]]]] = {
    "machine-crash": {"rate": None, "outage": 2.0, "restart": "enabled"},
}
_KINDS = {**_TELEMETRY_KINDS, **_ACTUATION_KINDS, **_MACHINE_KINDS}
#: Kinds that fault a daemon's sampler or actuator, so only take effect
#: where a daemon runs.
_DAEMON_KINDS = frozenset(_TELEMETRY_KINDS) | frozenset(_ACTUATION_KINDS)

_RATE_PARAMS = {"rate"}
_TIME_PARAMS = {"delay", "offset", "start", "duration"}
_COUNT_PARAMS = {"after", "outage"}


def fault_seed(*parts) -> int:
    """Stable 63-bit seed for one fault injector's random stream
    (:func:`~repro.seeds.stable_seed` in the ``fault`` namespace)."""
    return stable_seed(FAULT_NAMESPACE, *parts)


def fault_rng(*parts) -> random.Random:
    """A seeded ``random.Random`` for one injector (see :func:`fault_seed`)."""
    return stable_rng(FAULT_NAMESPACE, *parts)


@dataclass(frozen=True)
class FaultClause:
    """One fault kind plus its parameters (validated, immutable)."""

    kind: str
    #: Sorted (name, value) pairs — a tuple so clauses stay hashable
    #: and picklable for shards crossing process boundaries.
    params: Tuple[Tuple[str, Union[float, str]], ...]

    def param(self, name: str) -> Union[float, str]:
        """Look up one parameter value (validation guarantees presence)."""
        for key, value in self.params:
            if key == name:
                return value
        raise ConfigError(f"clause {self.kind!r} has no parameter {name!r}")

    def time_ns(self, name: str) -> float:
        """A time parameter, converted from spec seconds to ns."""
        return float(self.param(name)) * SECOND

    def spec(self) -> str:
        """This clause back in compact spec syntax."""
        if not self.params:
            return self.kind
        rendered = ",".join(f"{key}={value}" for key, value in self.params)
        return f"{self.kind}:{rendered}"


@dataclass(frozen=True)
class FaultPlan:
    """A validated set of fault clauses plus the plan seed."""

    clauses: Tuple[FaultClause, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        kinds = [clause.kind for clause in self.clauses]
        if len(set(kinds)) != len(kinds):
            raise ConfigError(f"duplicate fault kinds in plan: {kinds}")

    # --- construction ---------------------------------------------------------

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a compact plan spec (see the module docstring).

        An empty/whitespace spec is rejected — "no faults" is spelled by
        not passing a plan at all, so a typo'd empty ``--fault-plan``
        cannot silently run a fault-free study.
        """
        clauses: List[FaultClause] = []
        chunks = [chunk.strip() for chunk in spec.split(";") if chunk.strip()]
        if not chunks:
            raise ConfigError("empty fault plan spec")
        for chunk in chunks:
            if chunk.startswith("seed="):
                try:
                    seed = int(chunk[len("seed="):])
                except ValueError:
                    raise ConfigError(
                        f"fault plan seed must be an integer: {chunk!r}")
                continue
            kind, _, param_text = chunk.partition(":")
            kind = kind.strip()
            params: Dict[str, Union[float, str]] = {}
            if param_text.strip():
                for pair in param_text.split(","):
                    key, eq, value = pair.partition("=")
                    if not eq:
                        raise ConfigError(
                            f"malformed fault parameter {pair!r} in "
                            f"{chunk!r} (want key=value)")
                    params[key.strip()] = value.strip()
            clauses.append(_validate_clause(kind, params))
        return cls(clauses=tuple(clauses), seed=seed)

    # --- queries --------------------------------------------------------------

    def clause(self, kind: str) -> Optional[FaultClause]:
        """The clause for ``kind``, or ``None`` when the plan lacks it."""
        for clause in self.clauses:
            if clause.kind == kind:
                return clause
        return None

    def has(self, kind: str) -> bool:
        """Whether the plan includes the given fault kind."""
        return self.clause(kind) is not None

    @property
    def kinds(self) -> Tuple[str, ...]:
        """The fault kinds this plan injects, in clause order."""
        return tuple(clause.kind for clause in self.clauses)

    @property
    def daemon_kinds(self) -> Tuple[str, ...]:
        """The telemetry- and actuation-plane kinds of this plan: the
        faults that need a running daemon to inject into."""
        return tuple(kind for kind in self.kinds if kind in _DAEMON_KINDS)

    def crash_only_rate(self, study: str) -> float:
        """The ``machine-crash`` rate (0.0 without that clause) for a
        study that can only crash machines.

        Such a study has no daemon sampler or actuator to fault, so a
        telemetry or MSR clause would inject nothing and silently run a
        fault-free study; it raises :class:`ConfigError` instead.
        """
        if self.daemon_kinds:
            raise ConfigError(
                f"{study} only injects machine-crash faults; fault kinds "
                f"{list(self.daemon_kinds)} need an ablation or rollout")
        clause = self.clause("machine-crash")
        return float(clause.param("rate")) if clause is not None else 0.0

    def spec(self) -> str:
        """The plan back in compact spec syntax (round-trips parse)."""
        parts = [f"seed={self.seed}"] if self.seed else []
        parts.extend(clause.spec() for clause in self.clauses)
        return ";".join(parts)

    def to_key_material(self) -> Dict:
        """Plain-data form for result-cache keys (stable, canonical)."""
        return {
            "seed": self.seed,
            "clauses": [
                {"kind": clause.kind,
                 "params": {key: value for key, value in clause.params}}
                for clause in self.clauses
            ],
        }


def _validate_clause(kind: str,
                     params: Dict[str, Union[float, str]]) -> FaultClause:
    """Check a clause against the registry; normalize parameter types."""
    if kind not in _KINDS:
        raise ConfigError(
            f"unknown fault kind {kind!r}; known: {sorted(_KINDS)}")
    schema = _KINDS[kind]
    unknown = set(params) - set(schema)
    if unknown:
        raise ConfigError(
            f"fault {kind!r} has no parameters {sorted(unknown)}; "
            f"accepts {sorted(schema)}")
    normalized: Dict[str, Union[float, str]] = {}
    for name, default in schema.items():
        raw = params.get(name, default)
        if raw is None:
            raise ConfigError(f"fault {kind!r} requires parameter {name!r}")
        normalized[name] = _coerce_param(kind, name, raw)
    return FaultClause(kind=kind, params=tuple(sorted(normalized.items())))


def _coerce_param(kind: str, name: str,
                  raw: Union[float, str]) -> Union[float, str]:
    if name == "restart":
        if raw not in RESTART_POLICIES:
            raise ConfigError(
                f"{kind}: restart policy must be one of {RESTART_POLICIES}, "
                f"got {raw!r}")
        return raw
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{kind}: parameter {name!r} must be numeric, got {raw!r}")
    if name in _RATE_PARAMS and not 0.0 <= value < 1.0:
        raise ConfigError(
            f"{kind}: {name} must be a {_RATE[1]}, got {value}")
    if name in _TIME_PARAMS and name != "offset" and value < 0:
        raise ConfigError(f"{kind}: {name} cannot be negative, got {value}")
    if name in _COUNT_PARAMS:
        if value < 0 or value != int(value):
            raise ConfigError(
                f"{kind}: {name} must be a non-negative integer, got {raw!r}")
        return float(int(value))
    return value
