"""The persisted tuning database.

One versioned JSON file (by default ``tuning.json`` under the compile
cache directory) mapping *tuning keys* to best-known configurations.  A
key fingerprints everything that makes a tuned config transferable: the
program's structural signature, the parameter set and the target machine
label — so a config tuned for the paper-scale
bootstrap on Cinnamon-4 is never applied to a different program, scale,
or machine.

Entries survive processes (``repro.compile(tune=...)`` picks them up as
defaults, and :meth:`TuningDB.tuned_options` hands them to a served
request as its ``options``) and the whole
file self-invalidates when :data:`TUNING_DB_SCHEMA` is bumped, exactly
like the compile cache's pickle schema.

Concurrent *writers* are safe too: :meth:`TuningDB.save` runs under an
advisory ``flock`` (a ``tuning.json.lock`` sibling file), re-reads the
entries another process may have persisted meanwhile, and merges them
per-key keeping the faster incumbent before atomically replacing the
file — so two cluster workers tuning disjoint (or even the same)
targets never clobber each other's results.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Optional

from ..runtime.fingerprint import params_signature, program_signature
from ..runtime.locking import FileLock
from .space import Candidate

#: Bump whenever the entry layout or the key derivation changes; entries
#: written under another version are discarded on load.
#: 2: the key and the entry drop ``goal`` (cycles is the only one).
TUNING_DB_SCHEMA = 2

#: Default location, relative to a cache directory.
DB_FILENAME = "tuning.json"


def tuning_key(program, params, machine_label: str) -> str:
    """Content key of one (program, params, machine) tuning target."""
    payload = {
        "schema": TUNING_DB_SCHEMA,
        "program": program_signature(program),
        "params": params_signature(params),
        "machine": machine_label,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TuningDB:
    """Thread-safe, atomically-persisted map of tuning keys to configs."""

    def __init__(self, path, schema_version: Optional[int] = None):
        self.path = Path(path)
        self.schema_version = (TUNING_DB_SCHEMA if schema_version is None
                               else schema_version)
        self._lock = threading.Lock()
        self._file_lock = FileLock(
            self.path.with_name(self.path.name + ".lock"))
        self._entries: Dict[str, dict] = {}
        self.invalidated = 0
        self._load()

    # ------------------------------------------------------------------ #

    def _load(self) -> None:
        disk = self._read_disk()
        if disk is not None:
            self._entries = disk

    def _read_disk(self) -> Optional[Dict[str, dict]]:
        """Entries currently persisted, or ``None`` if absent/invalid."""
        if not self.path.exists():
            return None
        try:
            doc = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.invalidated += 1
            return None
        if not isinstance(doc, dict) \
                or doc.get("schema") != self.schema_version:
            # Schema bump: every persisted config is stale by definition.
            self.invalidated += 1
            return None
        entries = doc.get("entries", {})
        if not isinstance(entries, dict):
            return None
        return {str(k): dict(v) for k, v in entries.items()
                if isinstance(v, dict)}

    @staticmethod
    def _better(a: dict, b: dict) -> dict:
        """Of two records for one key, the one with fewer cycles wins."""
        if b.get("cycles", float("inf")) < a.get("cycles", float("inf")):
            return b
        return a

    def save(self) -> Path:
        """Persist the current entries; returns the path.

        Safe against concurrent writer *processes*: the read-merge-write
        cycle runs under a cross-process ``flock``, re-reading what other
        writers persisted since our load and keeping, per key, whichever
        record has the faster (fewer-cycles) config.  The final write is
        temp + ``os.replace`` so readers never see a torn file.
        """
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self._file_lock:
                disk = self._read_disk() or {}
                for key, record in disk.items():
                    mine = self._entries.get(key)
                    self._entries[key] = (record if mine is None
                                          else self._better(mine, record))
                doc = {
                    "schema": self.schema_version,
                    "updated_unix": time.time(),
                    "entries": self._entries,
                }
                fd, tmp = tempfile.mkstemp(dir=self.path.parent,
                                           suffix=".tmp")
                try:
                    with os.fdopen(fd, "w") as handle:
                        json.dump(doc, handle, indent=2, sort_keys=True)
                    os.replace(tmp, self.path)
                except Exception:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
        return self.path

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __bool__(self) -> bool:
        # An empty DB is still a DB: without this, ``db or default`` would
        # silently swap a freshly-created (len 0) DB for the default one.
        return True

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: str) -> Optional[dict]:
        with self._lock:
            entry = self._entries.get(key)
            return dict(entry) if entry is not None else None

    def put(self, key: str, record: dict, persist: bool = True) -> dict:
        """Store ``record`` under ``key`` (only if it improves on what is
        already there) and persist.  Returns the entry now in force."""
        with self._lock:
            incumbent = self._entries.get(key)
            if incumbent is not None and \
                    incumbent.get("cycles", float("inf")) <= \
                    record.get("cycles", float("inf")):
                return dict(incumbent)
            record = dict(record)
            record.setdefault("created_unix", time.time())
            self._entries[key] = record
        if persist:
            self.save()
        return dict(record)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------ #
    # Lookup conveniences used by the repro.compile / serve integrations.

    def best_candidate(self, program, params,
                       machine_label: str) -> Optional[Candidate]:
        """The tuned :class:`Candidate` for this target, if one is known."""
        entry = self.get(tuning_key(program, params, machine_label))
        if entry is None:
            return None
        try:
            return Candidate.from_dict(entry["assignment"])
        except (KeyError, TypeError, ValueError):
            return None

    def tuned_options(self, program, params, machine_label: str,
                      base_options=None):
        """``base_options`` overridden by the stored best config, or
        ``None`` when no entry exists for this target."""
        candidate = self.best_candidate(program, params, machine_label)
        if candidate is None:
            return None
        return candidate.options(base_options)


def default_db_path(cache_dir=None) -> Path:
    """Where the tuning DB lives for a given cache directory.

    ``cache_dir=None`` falls back to ``$CINNAMON_CACHE_DIR`` or the
    conventional ``.cinnamon-cache`` next to the working directory — the
    same convention the runtime's on-disk compile cache documents.
    """
    if cache_dir is None:
        cache_dir = os.environ.get("CINNAMON_CACHE_DIR", ".cinnamon-cache")
    return Path(cache_dir) / DB_FILENAME
