"""The engine switch: fast paths or the reference path.

Four layers keep a fast path beside a reference path that is its
correctness oracle: the memsys timing engines (the compiled engine vs
the record-at-a-time interpreter, DESIGN.md §5), the fleet driver tape
(taped arms vs every arm driving itself, DESIGN.md §6), the trace
builder (columnar vs record-backed generation) and the software-prefetch
injector (compiled columns vs the record path). One switch picks the
reference path for all four. This module imports nothing from
the package, so reading the switch never loads a simulator.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

#: Set to "1" (or "true"/"yes"/"on") to force the reference paths.
SLOW_ENGINE_ENV = "REPRO_SLOW_ENGINE"


def slow_engine_requested() -> bool:
    """Whether ``$REPRO_SLOW_ENGINE`` asks for the reference paths."""
    return os.environ.get(SLOW_ENGINE_ENV, "").strip().lower() in (
        "1", "true", "yes", "on")


@contextmanager
def reference_engine() -> Iterator[None]:
    """Run the enclosed code on the reference paths: sets
    ``REPRO_SLOW_ENGINE=1`` for the scope, then restores the previous
    value (or its absence)."""
    previous = os.environ.get(SLOW_ENGINE_ENV)
    os.environ[SLOW_ENGINE_ENV] = "1"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(SLOW_ENGINE_ENV, None)
        else:
            os.environ[SLOW_ENGINE_ENV] = previous
