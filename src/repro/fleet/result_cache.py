"""On-disk cache for fleet-study results.

Repeated benchmark and report runs recompute identical studies from
scratch; at paper scale (thousands of machines) that dominates the
suite's wall clock. This cache keys each result by a content hash of
everything the result depends on — study type, mode, machine count,
epochs, seed, shard size, controller config, and a schema version — so
a hit is guaranteed to be the exact result the computation would have
produced (studies are pure functions of those parameters).

Integrity is verified on every read: each entry embeds its key and a
SHA-256 digest of the canonical payload, so a truncated file, a stale
entry written under another schema, or any bit-rot hashes wrong and is
treated as a miss — the study recomputes and overwrites the bad entry
rather than crashing or returning garbage. The payload is encoded once,
as the entry's leading ``"payload"`` member, and a read hashes those
stored bytes instead of re-encoding what it parsed. Fleet studies store
the compact form of their results
(:func:`repro.serialization.ablation_result_to_payload` and its rollout
twin): each sample column is one base64 string of little-endian
doubles, and the derived summaries are left out because a load rebuilds
them from the samples; ``Result.to_dict()``/``Result.from_dict()``
reach this stored form. Digests hash a different form, the one
:func:`repro.serialization.ablation_result_to_dict` gives, so the
stored layout can change without moving a digest; that digest form is
only ever encoded, never read back, and ``AblationResult.to_dict()`` is
not ``ablation_result_to_dict()``. Writes are atomic
(temp-file + ``os.replace`` via
:func:`repro.jsonio.atomic_write_text`) so concurrent study
processes can share one cache directory and a process killed mid-store
can never leave a torn entry.

The same store underlies the shard checkpoint journal
(:class:`repro.fleet.queue.ShardCheckpoint`), which disables eviction —
a journal must never silently drop a finished shard mid-study.

Cumulative hit/miss/store counters persist to a ``_stats`` sidecar
(deliberately extension-less so cache-entry globs never see it)
(best effort, atomic) so ``repro cache`` can report hit rates across
processes; the sidecar is not an entry and is never evicted.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Dict, Optional, Tuple, Union

from repro.jsonio import atomic_write_text, canonical_json

#: Environment override for the default cache directory; unset or empty
#: disables caching.
CACHE_ENV_VAR = "REPRO_CACHE_DIR"

#: Bumped whenever the engine or the payload layout changes meaning;
#: part of the key, so results from older code never resolve.
KEY_VERSION = 1

#: The entry file's layout, checked on every read, so entries written
#: in another layout are misses (and ``scan`` counts them as stale).
#: (2: the payload's canonical text leads the entry and a read hashes
#: those bytes. 3: packed float columns, no derived summaries.)
SCHEMA_VERSION = 3

#: Every entry starts with this, then the payload's canonical JSON, then
#: ``,`` and the rest of the entry's members; the whole file is one
#: JSON object.
_PAYLOAD_HEAD = '{"payload":'

_DECODER = json.JSONDecoder()

#: Default cap on cached entries per directory; the oldest (by mtime)
#: are evicted past it. ``None`` disables eviction entirely (the shard
#: checkpoint journal runs that way).
DEFAULT_MAX_ENTRIES = 256

#: Sidecar file holding cumulative hit/miss/store counters. Not an
#: entry: it is excluded from eviction, scans, and entry counts.
STATS_NAME = "_stats"


def study_cache(cache_dir: Optional[Union[str, pathlib.Path]] = None
                ) -> Optional["StudyResultCache"]:
    """The cache for ``cache_dir``, falling back to ``$REPRO_CACHE_DIR``.

    Returns ``None`` (caching disabled) when neither names a directory.
    """
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV_VAR, "").strip() or None
    if not cache_dir:
        return None
    return StudyResultCache(cache_dir)


def _schema_status(entry) -> str:
    """``"stale"`` for a parsed entry that names another integer schema,
    ``"corrupt"`` for anything else."""
    schema = entry.get("schema") if isinstance(entry, dict) else None
    if isinstance(schema, int) and schema != SCHEMA_VERSION:
        return "stale"
    return "corrupt"


class StudyResultCache:
    """Content-addressed JSON store for study results.

    Args:
        root: Cache directory (created on first write).
        max_entries: Eviction cap; oldest entries beyond it are removed
            on each store. ``None`` disables eviction.
    """

    def __init__(self, root: Union[str, pathlib.Path],
                 max_entries: Optional[int] = DEFAULT_MAX_ENTRIES) -> None:
        self.root = pathlib.Path(root)
        self.max_entries = max_entries

    # --- keys -----------------------------------------------------------------

    def key_for(self, material: Dict) -> str:
        """Content hash of the key material (plus the key version)."""
        payload = {"schema": KEY_VERSION, "material": material}
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

    def path_for(self, material: Dict) -> pathlib.Path:
        """Where the entry for ``material`` lives (whether or not it
        exists)."""
        return self.root / f"{self.key_for(material)}.json"

    @staticmethod
    def _is_entry(path: pathlib.Path) -> bool:
        """Whether ``path`` names a cache entry (64-hex-char key)."""
        stem = path.stem
        return len(stem) == 64 and all(c in "0123456789abcdef"
                                       for c in stem)

    def _entries(self):
        """Every entry file currently on disk (sidecars excluded)."""
        try:
            return [path for path in self.root.glob("*.json")
                    if self._is_entry(path)]
        except OSError:
            return []

    # --- persistent hit statistics ------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Cumulative hit/miss/store counters from the sidecar.

        Best effort: a missing or corrupt sidecar reads as all zeros.
        """
        counters = {"hits": 0, "misses": 0, "stores": 0}
        try:
            data = json.loads((self.root / STATS_NAME).read_text())
        except (OSError, ValueError, UnicodeDecodeError):
            return counters
        if isinstance(data, dict):
            for name in counters:
                value = data.get(name)
                if isinstance(value, int) and value >= 0:
                    counters[name] = value
        return counters

    def _bump(self, **deltas: int) -> None:
        """Fold counter deltas into the sidecar (best effort, atomic).

        Never creates the cache directory (a read-only probe of a cache
        that does not exist yet must not leave one behind), and never
        raises: losing a count under a crash or a concurrent-writer race
        is acceptable — the counters are reporting, not correctness.
        """
        if not self.root.is_dir():
            return
        counters = self.stats()
        for name, delta in deltas.items():
            counters[name] = counters.get(name, 0) + delta
        try:
            atomic_write_text(self.root / STATS_NAME,
                              json.dumps(counters, sort_keys=True) + "\n")
        except OSError:
            pass

    # --- raw payloads -----------------------------------------------------------

    def load(self, material: Dict) -> Optional[Dict]:
        """The stored payload for ``material``, or ``None`` on a miss.

        Corruption in any form — unreadable file, invalid JSON, schema
        or key mismatch, digest mismatch over the payload — is a miss,
        never an error: the caller recomputes and the next store
        replaces the bad entry.
        """
        entry, _ = self._read_entry(self.path_for(material))
        if entry is None or entry.get("key") != self.key_for(material):
            self._bump(misses=1)
            return None
        self._bump(hits=1)
        return entry["payload"]

    def _read_entry(self, path: pathlib.Path) -> Tuple[Optional[Dict], str]:
        """``(entry, "valid")`` for a verified entry, else ``(None,
        "stale")`` for a well-formed entry written under another
        ``SCHEMA_VERSION``, or ``(None, "corrupt")`` for one that does
        not parse or fails its digest. The digest covers the payload's
        stored bytes, so nothing is re-encoded."""
        start = len(_PAYLOAD_HEAD)
        try:
            data = path.read_bytes()
            text = data.decode("ascii")  # canonical JSON is pure ASCII
        except (OSError, UnicodeDecodeError):
            return None, "corrupt"
        try:
            if not text.startswith(_PAYLOAD_HEAD):
                raise ValueError("not the current entry layout")
            payload, end = _DECODER.raw_decode(text, start)
            if text[end:end + 1] != ",":
                raise ValueError("no members after the payload")
            entry = json.loads("{" + text[end + 1:])
        except ValueError:
            try:  # an older layout (schema 1 put the payload last)?
                return None, _schema_status(json.loads(text))
            except ValueError:
                return None, "corrupt"
        if not isinstance(entry, dict) \
                or entry.get("schema") != SCHEMA_VERSION:
            return None, _schema_status(entry)
        digest = hashlib.sha256(memoryview(data)[start:end]).hexdigest()
        if entry.get("digest") != digest:
            return None, "corrupt"
        entry["payload"] = payload
        return entry, "valid"

    def store(self, material: Dict, payload: Dict,
              embed_material: bool = False) -> pathlib.Path:
        """Write ``payload`` under ``material``'s key (atomically).

        ``embed_material`` additionally records the key material inside
        the entry — the checkpoint journal uses it so status tooling can
        group entries by study without re-deriving keys.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        text = canonical_json(payload)
        entry = {
            "schema": SCHEMA_VERSION,
            "key": self.key_for(material),
            "digest": hashlib.sha256(text.encode()).hexdigest(),
        }
        if embed_material:
            entry["material"] = material
        text = "".join((_PAYLOAD_HEAD, text, ",", canonical_json(entry)[1:]))
        path = atomic_write_text(self.path_for(material), text)
        self._bump(stores=1)
        self.prune()
        return path

    def prune(self, max_entries: Optional[int] = None) -> int:
        """Evict the oldest entries beyond the cap; returns how many
        were removed.

        ``max_entries`` overrides the instance cap for this call (the
        ``repro cache --prune`` front door). With both ``None``,
        eviction is disabled and nothing is removed.
        """
        if max_entries is None:
            max_entries = self.max_entries
        if max_entries is None:
            return 0
        try:
            entries = sorted(self._entries(),
                             key=lambda p: p.stat().st_mtime)
        except OSError:
            return 0
        removed = 0
        excess = len(entries) - max_entries
        for path in entries[:max(excess, 0)]:
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def scan(self) -> Dict:
        """Integrity summary of the directory: entry count, bytes on
        disk, and how many entries verify (schema + digest), are stale
        (well-formed, written under another ``SCHEMA_VERSION``) or are
        corrupt. Never raises; a missing directory scans as empty."""
        entries = self._entries()
        counts = {"entries": len(entries), "bytes": 0, "valid": 0,
                  "stale": 0, "corrupt": 0}
        for path in entries:
            try:
                counts["bytes"] += path.stat().st_size
            except OSError:
                pass
            counts[self._read_entry(path)[1]] += 1
        return counts

    # --- typed study entry points --------------------------------------------------

    def load_ablation(self, material: Dict):
        """A cached :class:`~repro.fleet.ablation.AblationResult`, or
        ``None``. A payload that no longer deserializes (e.g. written by
        a different code version despite matching keys) is a miss."""
        from repro.errors import TraceError
        from repro.serialization import ablation_result_from_payload

        payload = self.load(material)
        if payload is None:
            return None
        try:
            return ablation_result_from_payload(payload)
        except TraceError:
            return None

    def store_ablation(self, material: Dict, result) -> pathlib.Path:
        """Archive one ablation result under ``material``'s key."""
        from repro.serialization import ablation_result_to_payload

        return self.store(material, ablation_result_to_payload(result))
