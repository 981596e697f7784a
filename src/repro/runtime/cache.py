"""Two-level artifact cache for compiled programs.

In-memory layer: an LRU keyed by content fingerprint (compiled bootstraps
run to ~1 GB of Python objects, so the default capacity is small).  All
public methods are thread-safe: ``run_batch`` worker threads and the
serving layer's shard pool hit one cache instance concurrently.

On-disk layer: one versioned pickle per fingerprint, ``<key>.pkl``,
under ``cache_dir``.  Each carries ``{"schema", "key", "compiled"}``;
entries whose schema version differs from the running code's (or whose
key does not match the filename, e.g. after a hash-algorithm change) are
treated as misses and deleted, so bumping
:data:`~repro.runtime.fingerprint.CACHE_SCHEMA_VERSION` invalidates
every stale artifact without manual cleanup.

The directory belongs to one signed
:class:`~repro.trust.manifest.ArtifactManifest` (:mod:`repro.trust`),
and this module reaches the files only through its ``store`` / ``load``
/ ``forget`` / ``clear`` — file and signed row change together under the
manifest's one cross-process ``flock``, so the disk layer is safe for
concurrent *processes* (a :mod:`repro.cluster` deployment points every
worker at one ``cache_dir``), not just threads.  Beside the pickles the
directory holds ``MANIFEST.json``, ``.manifest.lock`` and, after
tampering, ``quarantine/`` — nothing else.

``load`` returns only bytes that match their row, so every
``pickle.loads`` here is of verified bytes.  A mismatch is tampering: it
degrades to a cache miss, ``stats.tampered`` / ``stats.quarantined``
bump, and the ``on_tamper`` hook fires (the session uses it to journal a
``kind: "trust"`` row and bump ``trust_tamper_detected_total``).  A file
with *no* row is a plain miss and is still never unpickled, so deleting
the manifest cannot re-open the unpickle-untrusted-bytes path it exists
to close.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Tuple

from ..core.compiler import CompiledProgram
from ..trust.errors import TamperDetectedError
from ..trust.manifest import ArtifactManifest
from .fingerprint import CACHE_SCHEMA_VERSION

#: Where a compile was served from (also the trace's ``cache`` field).
MISS = "miss"
MEMORY_HIT = "memory"
DISK_HIT = "disk"


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    invalidated: int = 0  # on-disk entries dropped for schema/key mismatch
    tampered: int = 0     # manifest hash mismatches caught before unpickle
    quarantined: int = 0  # tampered files moved into quarantine/

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class CompileCache:
    """LRU memory cache with an optional write-through disk layer."""

    capacity: Optional[int] = None   # None = unbounded memory cache
    cache_dir: Optional[Path] = None  # None = memory-only
    schema_version: Optional[int] = None
    stats: CacheStats = field(default_factory=CacheStats)
    trust_key: Optional[bytes] = None  # manifest signing key override
    #: Called with each TamperDetectedError after stats are bumped; the
    #: session points this at its trace recorder (kind:"trust" rows).
    on_tamper: Optional[object] = None

    def __post_init__(self):
        self._memory: "OrderedDict[str, CompiledProgram]" = OrderedDict()
        # Guards the OrderedDict and the stats counters: get/put/invalidate
        # are called concurrently from run_batch workers and serve shards.
        self._lock = threading.RLock()
        if self.schema_version is None:
            self.schema_version = CACHE_SCHEMA_VERSION
        #: The signed manifest that owns ``cache_dir`` (None = memory-only).
        self.manifest: Optional[ArtifactManifest] = None
        if self.cache_dir is not None:
            self.cache_dir = Path(self.cache_dir)
            self.manifest = ArtifactManifest(
                self.cache_dir, key=self.trust_key,
                on_tamper=self._note_tamper)

    # ------------------------------------------------------------------ #

    def get(self, key: str) -> Tuple[Optional[CompiledProgram], str]:
        """Look up ``key``; returns ``(compiled | None, source)`` where
        ``source`` is ``"memory"``, ``"disk"``, or ``"miss"``."""
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
                return self._memory[key], MEMORY_HIT
            compiled = self._disk_load(key)
            if compiled is not None:
                self.stats.disk_hits += 1
                self._remember(key, compiled)
                return compiled, DISK_HIT
            self.stats.misses += 1
            return None, MISS

    def put(self, key: str, compiled: CompiledProgram) -> None:
        with self._lock:
            self.stats.stores += 1
            self._remember(key, compiled)
            self._disk_store(key, compiled)

    def invalidate(self, key: Optional[str] = None) -> None:
        """Drop one entry (or everything, with no key) from both layers."""
        with self._lock:
            if key is None:
                self._memory.clear()
                if self.manifest is not None:
                    self.manifest.clear()
                return
            self._memory.pop(key, None)
            if self.manifest is not None:
                self.manifest.forget(self._name(key))

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._memory or (
                self.manifest is not None
                and self._name(key) in self.manifest)

    # ------------------------------------------------------------------ #

    def _remember(self, key: str, compiled: CompiledProgram) -> None:
        self._memory[key] = compiled
        self._memory.move_to_end(key)
        while self.capacity is not None and len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    @staticmethod
    def _name(key: str) -> str:
        return f"{key}.pkl"

    def _note_tamper(self, error: TamperDetectedError) -> None:
        """Manifest tamper callback: count, then forward to the session
        (or server) hook that journals the ``kind:"trust"`` row."""
        self.stats.tampered += 1
        if self.on_tamper is not None:
            self.on_tamper(error)

    def _disk_load(self, key: str) -> Optional[CompiledProgram]:
        if self.manifest is None:
            return None
        try:
            data = self.manifest.load(self._name(key))
        except TamperDetectedError:
            # _note_tamper already counted and reported; the evidence is
            # in quarantine/ and the row is gone.  Degrade to a miss.
            self.stats.quarantined += 1
            return None
        if data is None:
            return None
        try:
            payload = pickle.loads(data)
        except Exception:
            payload = None
        if (not isinstance(payload, dict)
                or payload.get("schema") != self.schema_version
                or payload.get("key") != key):
            self.stats.invalidated += 1
            self.manifest.forget(self._name(key))
            return None
        return payload["compiled"]

    def _disk_store(self, key: str, compiled: CompiledProgram) -> None:
        if self.manifest is None:
            return
        payload = {
            "schema": self.schema_version,
            "key": key,
            "compiled": compiled,
        }
        self.manifest.store(
            self._name(key), pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
