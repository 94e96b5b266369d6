"""Stable namespaced seeds: the one hash every deterministic stream in the
simulator derives from.

Shard seeds, machine seeds, workload-generator defaults, fault injectors
and scenario entities all draw from a 63-bit BLAKE2b digest of
``"limoncello-<namespace>:<part>:<part>..."``. It is independent of
``PYTHONHASHSEED``, process and platform (``hash()`` is salted per
process and is never used for seeds). Imports nothing from ``repro``.
"""

from __future__ import annotations

import hashlib
import random

#: The fault stream's namespace. The fault injectors and the sweep's
#: per-arm background-load and crash draws share it, so a sweep arm and
#: an analytic study's injector derive from one stream family without
#: the sweep importing ``repro.faults``.
FAULT_NAMESPACE = "fault"


def stable_seed(namespace: str, *parts) -> int:
    """Stable 63-bit seed for ``parts`` within ``namespace``."""
    text = f"limoncello-{namespace}:" + ":".join(str(part) for part in parts)
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") & 0x7FFF_FFFF_FFFF_FFFF


def stable_rng(namespace: str, *parts) -> random.Random:
    """A fresh ``random.Random`` seeded by :func:`stable_seed`."""
    return random.Random(stable_seed(namespace, *parts))
