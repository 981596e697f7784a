"""Signed per-directory artifact manifests.

One :class:`ArtifactManifest` owns one directory of on-disk artifacts
(the compile cache's pickles): the bytes *and* their signed record.
``MANIFEST.json`` maps artifact name to one row — ``sha256`` of the
exact file bytes, ``size``, ``recorded_unix`` — and is itself signed:
an HMAC-SHA256 over the canonical JSON of the rows, keyed by the
deployment's trust key (``CINNAMON_TRUST_KEY`` or an explicit
``key=``).  A manifest whose signature does not verify is quarantined
wholesale — every row in it is untrusted — and an empty one takes its
place.

The two calls its user goes through:

* :meth:`ArtifactManifest.store` writes the bytes to a temp file, then
  ``os.replace``s it into place and lands its row in one critical
  section, file first: a crash in between leaves an unrecorded file,
  never a row without its bytes, and two workers racing on one name can
  never pair worker A's file with worker B's row;
* :meth:`ArtifactManifest.load` reads the file and checks it against its
  row in one critical section and returns the bytes only if they match.
  A file with no row is *unrecorded* (``None`` — it was dropped in
  out-of-band, or its manifest was voided): never handed back, so never
  deserialized.  A row whose hash mismatches the file is *tampering*:
  reported through ``on_tamper``, the file moved to ``quarantine/`` as
  evidence, the row dropped, :class:`TamperDetectedError` raised.

Concurrency: every mutation and every ``load`` runs under one
cross-process ``flock`` per directory
(:class:`~repro.runtime.locking.FileLock` on ``.manifest.lock``), so
cluster workers sharing one cache directory cannot lose each other's
rows, and a (file, row) pair read by one process is never half of
another's update.  :meth:`entries` and :meth:`verify_directory` are
lock-free (the manifest is replaced atomically).
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional

from .errors import ManifestSignatureError, TamperDetectedError

#: Name of the signed per-directory manifest.
MANIFEST_FILENAME = "MANIFEST.json"
#: Lock file guarding manifest read-modify-write cycles across processes.
MANIFEST_LOCK_FILENAME = ".manifest.lock"
#: Subdirectory tampered artifacts are moved into (never deleted: they
#: are evidence).
QUARANTINE_DIRNAME = "quarantine"

#: Environment variable carrying the deployment's manifest-signing key.
TRUST_KEY_ENV = "CINNAMON_TRUST_KEY"

#: Manifest document layout version.
MANIFEST_SCHEMA_VERSION = 1

#: What a manifest guards, as tamper reports and ``kind: "trust"`` rows
#: name it.  The compile cache is the one user.
ARTIFACT_TARGET = "cache"

#: Fallback signing key for deployments that have not provisioned one.
#: It still turns accidental corruption and casual tampering into loud
#: failures; real deployments must set ``CINNAMON_TRUST_KEY`` (see
#: docs/trust.md for the threat model).
_DEFAULT_KEY = b"cinnamon-dev-trust-key"


def resolve_trust_key(key=None) -> bytes:
    """The manifest-signing key: explicit ``key`` > environment >
    built-in development default."""
    if key is not None:
        return key.encode("utf-8") if isinstance(key, str) else bytes(key)
    env = os.environ.get(TRUST_KEY_ENV)
    if env:
        return env.encode("utf-8")
    return _DEFAULT_KEY


def sha256_file(path) -> str:
    """Streaming SHA-256 of a file's bytes (hex digest)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sign_entries(entries: dict, key: bytes,
                 schema: int = MANIFEST_SCHEMA_VERSION) -> str:
    """HMAC-SHA256 over the canonical JSON of ``(schema, entries)``."""
    blob = json.dumps({"schema": schema, "entries": entries},
                      sort_keys=True, separators=(",", ":"))
    return hmac.new(key, blob.encode("utf-8"), hashlib.sha256).hexdigest()


class ArtifactManifest:
    """One directory's artifacts and their signed rows (see module doc).

    ``on_tamper`` (optional) is called with a
    :class:`~repro.trust.errors.TamperDetectedError` every time this
    manifest detects tampering — the cache layer uses it to bump the
    ``trust_tamper_detected_total`` counter and journal a ``kind:
    "trust"`` row without the manifest importing any of that machinery.
    """

    def __init__(self, directory, key=None, on_tamper=None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / MANIFEST_FILENAME
        self.quarantine_dir = self.directory / QUARANTINE_DIRNAME
        self.key = resolve_trust_key(key)
        self.on_tamper = on_tamper
        # Imported here, not at module scope: runtime.cache imports this
        # module, so a top-level import of repro.runtime would be circular.
        from ..runtime.locking import FileLock
        self._lock = FileLock(self.directory / MANIFEST_LOCK_FILENAME)

    # ------------------------------------------------------------------ #
    # The manifest file

    def entries(self) -> Dict[str, dict]:
        """The verified manifest rows (empty if absent).

        An unverifiable signature is treated as tampering with the
        manifest itself: the file is quarantined and an empty manifest
        takes its place (every artifact becomes unrecorded, i.e. a cache
        miss — fail closed, not open).
        """
        try:
            return self._read_verified()
        except ManifestSignatureError:
            with self._lock:
                return self._rows()

    def _rows(self) -> Dict[str, dict]:
        """:meth:`entries` for a caller that already holds the flock
        (which is not reentrant): a bad signature is handled here, once,
        and the caller continues from an empty manifest."""
        try:
            return self._read_verified()
        except ManifestSignatureError:
            self._report(TamperDetectedError(
                ARTIFACT_TARGET, MANIFEST_FILENAME, expected="valid-hmac",
                actual="bad-hmac"))
            self._quarantine_file(self.path)
            self._write({})
            return {}

    def _read_verified(self) -> Dict[str, dict]:
        try:
            doc = json.loads(self.path.read_text())
        except FileNotFoundError:
            return {}
        except (OSError, ValueError) as exc:
            raise ManifestSignatureError(
                f"unreadable manifest {self.path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ManifestSignatureError("manifest is not a JSON object")
        entries = doc.get("entries")
        if not isinstance(entries, dict):
            raise ManifestSignatureError("manifest has no entries map")
        schema = doc.get("schema", MANIFEST_SCHEMA_VERSION)
        expected = sign_entries(entries, self.key, schema=schema)
        if not hmac.compare_digest(str(doc.get("sig", "")), expected):
            raise ManifestSignatureError(
                f"manifest signature mismatch in {self.directory}")
        return entries

    def _write(self, entries: Dict[str, dict]) -> None:
        """Sign and atomically replace the manifest (under the flock)."""
        doc = {
            "schema": MANIFEST_SCHEMA_VERSION,
            "entries": entries,
            "sig": sign_entries(entries, self.key),
        }
        blob = json.dumps(doc, sort_keys=True, indent=1)
        os.replace(self._write_temp(blob.encode("utf-8")), self.path)

    def _write_temp(self, data: bytes) -> str:
        """``data`` in a temp file next to its destination, so the
        ``os.replace`` that publishes it is atomic: a concurrent reader
        sees the old bytes or the new ones, never a torn file."""
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
        except Exception:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return tmp

    # ------------------------------------------------------------------ #
    # Bytes and their row, together

    def store(self, name: str, data: bytes) -> dict:
        """Write ``data`` as artifact ``name`` and record its row (file
        first, both in one critical section); returns the row."""
        sha256 = hashlib.sha256(data).hexdigest()
        tmp = self._write_temp(data)
        with self._lock:
            os.replace(tmp, self.directory / name)
            return self._set_row(name, sha256, len(data))

    def load(self, name: str) -> Optional[bytes]:
        """The bytes of artifact ``name``, verified against its row —
        the only way file bytes should reach a deserializer.  ``None``
        if missing or unrecorded; a mismatch is reported, quarantined,
        its row dropped and :class:`TamperDetectedError` raised."""
        path = self.directory / name
        with self._lock:
            try:
                data = path.read_bytes()
            except OSError:
                return None
            rows = self._rows()
            try:
                recorded = self._verify(rows.get(name), name, data)
            except TamperDetectedError:
                self._quarantine_file(path)
                del rows[name]
                self._write(rows)
                raise
        return data if recorded else None

    def forget(self, name: str) -> None:
        """Delete artifact ``name``: its file and its row."""
        with self._lock:
            (self.directory / name).unlink(missing_ok=True)
            rows = self._rows()
            if rows.pop(name, None) is not None:
                self._write(rows)

    def clear(self) -> None:
        """Delete every recorded artifact and its row."""
        with self._lock:
            for name in self._rows():
                (self.directory / name).unlink(missing_ok=True)
            self._write({})

    # ------------------------------------------------------------------ #
    # Rows

    def record(self, name: str, *, sha256: str,
               size: Optional[int] = None) -> dict:
        """Record (or refresh) the row of bytes written elsewhere and
        re-sign; ``sha256`` is the hash of the exact file bytes."""
        with self._lock:
            return self._set_row(name, sha256, size)

    def _set_row(self, name: str, sha256: str, size: Optional[int]) -> dict:
        entry = {"sha256": sha256, "recorded_unix": time.time()}
        if size is not None:
            entry["size"] = int(size)
        rows = self._rows()
        rows[name] = entry
        self._write(rows)
        return entry

    # ------------------------------------------------------------------ #
    # Verification

    def verify_bytes(self, name: str, data: bytes) -> bool:
        """Verify in-memory artifact bytes against the manifest.

        Returns ``True`` when the row exists and matches, ``False``
        when the artifact is *unrecorded*, and reports and raises
        :class:`TamperDetectedError` on a hash mismatch.
        """
        return self._verify(self.entries().get(name), name, data)

    def _verify(self, entry: Optional[dict], name: str,
                data: bytes) -> bool:
        if entry is None:
            return False
        actual = hashlib.sha256(data).hexdigest()
        if not hmac.compare_digest(entry["sha256"], actual):
            error = TamperDetectedError(ARTIFACT_TARGET, name,
                                        expected=entry["sha256"],
                                        actual=actual)
            self._report(error)
            raise error
        return True

    def verify_directory(self) -> dict:
        """Audit every recorded artifact that exists on disk.

        Returns ``{"verified": [...], "tampered": [...], "missing":
        [...]}`` without quarantining anything — the CLI's read-only
        audit mode.
        """
        report = {"verified": [], "tampered": [], "missing": []}
        for name, entry in sorted(self.entries().items()):
            path = self.directory / name
            if not path.exists():
                report["missing"].append(name)
                continue
            if hmac.compare_digest(entry["sha256"], sha256_file(path)):
                report["verified"].append(name)
            else:
                report["tampered"].append(name)
        return report

    # ------------------------------------------------------------------ #

    def _quarantine_file(self, path: Path) -> None:
        """Move ``path`` into ``quarantine/``: evidence, not deletion."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        stamp = int(time.time() * 1e6)
        try:
            os.replace(path, self.quarantine_dir / f"{path.name}.{stamp}")
        except OSError:  # stays put; its row is voided either way
            pass

    def _report(self, error: TamperDetectedError) -> None:
        if self.on_tamper is not None:
            try:
                self.on_tamper(error)
            except Exception:  # pragma: no cover - observer must not mask
                pass

    def __len__(self) -> int:
        return len(self.entries())

    def __contains__(self, name: str) -> bool:
        return name in self.entries()
