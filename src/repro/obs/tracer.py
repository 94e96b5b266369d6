"""Event tracing primitives for deterministic run observability.

Events carry only **simulated time** (``t_ns``), which is deterministic —
a pure function of the study parameters — so serial and sharded runs of
the same study can produce byte-identical logs. The tracer keeps no wall
clock: the manifest's wall-clock phases come from
:meth:`repro.obs.session.ObsSession.phase`, outside the determinism
contract.

Disabled tracing must cost nothing on hot paths, so call sites guard
with truthiness (``if tracer: tracer.event(...)``): :data:`NULL_TRACER`
is falsy and every one of its methods is a no-op, which means a disabled
daemon tick performs a single branch and allocates nothing.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.obs.events import EVENT_SCHEMA_VERSION


class NullTracer:
    """The disabled tracer: falsy, stateless, every method a no-op.

    A single shared instance (:data:`NULL_TRACER`) stands in wherever a
    tracer is optional, so instrumented code never needs ``None`` checks
    beyond the idiomatic ``if tracer:`` guard.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def event(self, kind: str, t_ns: float, **fields) -> None:
        """Discard the event."""

    @contextmanager
    def context(self, **fields) -> Iterator[None]:
        """No-op context scope."""
        yield


#: The shared disabled tracer.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects structured events (simulated time) for one execution
    scope — a study or a single shard.

    Events are plain dicts carrying the schema version, the kind, the
    simulated timestamp, any fields pushed by enclosing
    :meth:`context` scopes, and the call's own fields. Emission order is
    the deterministic merge order within the scope.
    """

    def __init__(self) -> None:
        self.events: List[Dict] = []
        self._ctx: Dict = {}

    def __bool__(self) -> bool:
        return True

    def event(self, kind: str, t_ns: float, **fields) -> None:
        """Record one event at simulated time ``t_ns``."""
        record: Dict = {"v": EVENT_SCHEMA_VERSION, "kind": kind,
                        "t_ns": float(t_ns)}
        record.update(self._ctx)
        record.update(fields)
        self.events.append(record)

    @contextmanager
    def context(self, **fields) -> Iterator[None]:
        """Attach ``fields`` to every event emitted inside the scope
        (e.g. ``arm="experiment"`` around one study arm)."""
        saved = self._ctx
        self._ctx = {**saved, **fields}
        try:
            yield
        finally:
            self._ctx = saved


#: Environment override for the default run-directory location; unset or
#: empty leaves observability off.
OBS_ENV_VAR = "REPRO_OBS_DIR"


def resolve_obs_dir(obs_dir: Optional[str] = None) -> Optional[str]:
    """The run directory to write: explicit arg, else ``$REPRO_OBS_DIR``,
    else ``None`` (observability off). Lives beside the tracers so a
    study driver can tell whether to load :mod:`repro.obs.session`."""
    if obs_dir is None:
        obs_dir = os.environ.get(OBS_ENV_VAR, "").strip() or None
    return obs_dir or None
