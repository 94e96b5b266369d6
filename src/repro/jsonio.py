"""Canonical JSON and atomic text writes: the leaf both persistence and
observability build on.

The result cache, the shard journal and the run directory need these two
helpers and nothing else of :mod:`repro.serialization`, which also
round-trips traces and so loads the trace record types. Keeping them here,
importing nothing from ``repro``, lets a study that persists or logs
nothing about traces stay clear of them; :mod:`repro.serialization`
re-exports both under their old names.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from typing import Union

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
