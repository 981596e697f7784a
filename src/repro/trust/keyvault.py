"""Multi-tenant evaluation-key lifecycle: versioning, rotation, staleness.

A production encrypted-AI service holds *public* key material per tenant
— the encryption key and the digit-decomposition evaluation keys that
:mod:`repro.fhe.keys` generates — and has to answer three lifecycle
questions the functional library does not:

* **Which version is live?**  Tenants rotate keys (compromise, policy,
  parameter change); requests pinned to an old version must be rejected
  with a typed :class:`~repro.trust.errors.StaleKeyError`, not silently
  served under retired material.
* **Who else needs to know?**  Every cluster worker validating requests
  needs the same view; the vault exports a *signed key manifest*
  (versions, ids, status, fingerprints — never secret material) that the
  router replicates to workers at hello time and on rotation.
* **What exactly was used?**  Each record carries a key fingerprint so
  audits can tie a served request to the precise key generation.

The vault itself is in-memory (key generation is deterministic from the
per-version seed via :class:`~repro.fhe.keys.KeyChain`); persistence and
distribution happen through the signed manifest.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .errors import (KeyVaultError, ManifestSignatureError, StaleKeyError,
                     UnknownKeyError)
from .manifest import resolve_trust_key

#: Key-manifest document layout version.
KEY_MANIFEST_SCHEMA_VERSION = 1

#: Lifecycle states of one key version.
ACTIVE = "active"
RETIRED = "retired"      # rotated out; rejected once past the grace depth
REVOKED = "revoked"      # compromised; rejected everywhere, immediately


@dataclass
class KeyRecord:
    """Metadata of one (tenant, version) key generation — no secrets."""

    tenant: str
    version: int
    key_id: str                       # short stable id (audit handle)
    fingerprint: str                  # sha256 over the generation inputs
    status: str = ACTIVE
    created_unix: float = field(default_factory=time.time)

    def as_dict(self) -> dict:
        return {
            "tenant": self.tenant, "version": self.version,
            "key_id": self.key_id, "fingerprint": self.fingerprint,
            "status": self.status, "created_unix": self.created_unix,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "KeyRecord":
        return cls(tenant=doc["tenant"], version=int(doc["version"]),
                   key_id=doc["key_id"], fingerprint=doc["fingerprint"],
                   status=doc.get("status", ACTIVE),
                   created_unix=doc.get("created_unix", 0.0))


def _key_fingerprint(tenant: str, version: int, seed: int,
                     params_repr: str) -> str:
    blob = json.dumps([tenant, version, seed, params_repr],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class KeyVault:
    """Versioned multi-tenant key registry (see module docstring).

    ``grace_versions`` is how many *retired* generations behind the
    active one remain acceptable (0 = a rotation instantly invalidates
    the old version).  ``params`` (a CKKS/arch parameter set) enables
    :meth:`keychain` to materialize actual key material; a metadata-only
    vault (a worker holding a replicated manifest) works without it.
    """

    def __init__(self, params=None, signing_key=None,
                 grace_versions: int = 0, seed: int = 2025,
                 on_event=None):
        self.params = params
        self.key = resolve_trust_key(signing_key)
        self.grace_versions = grace_versions
        self.on_event = on_event      # callable(event:str, record) | None
        self._seed = seed
        self._lock = threading.RLock()
        self._records: Dict[str, List[KeyRecord]] = {}
        self._chains: Dict[tuple, object] = {}

    # ------------------------------------------------------------------ #
    # Issuance / rotation

    def issue(self, tenant: str) -> KeyRecord:
        """Issue version 1 for a new tenant (idempotent: returns the
        active record if the tenant already has keys)."""
        with self._lock:
            chain = self._records.get(tenant)
            if chain:
                return self.active(tenant)
            return self._mint(tenant, version=1)

    def rotate(self, tenant: str) -> KeyRecord:
        """Retire the tenant's active version and mint the next one."""
        with self._lock:
            if tenant not in self._records:
                raise UnknownKeyError(tenant)
            current = self.active(tenant)
            current.status = RETIRED
            record = self._mint(tenant, version=current.version + 1)
        self._emit("rotation", record)
        return record

    def revoke(self, tenant: str, version: int) -> KeyRecord:
        """Hard-kill one version (compromise response): rejected
        everywhere immediately, grace does not apply."""
        with self._lock:
            record = self._find(tenant, version)
            if record is None:
                raise UnknownKeyError(tenant, version)
            record.status = REVOKED
        self._emit("revocation", record)
        return record

    def _mint(self, tenant: str, version: int) -> KeyRecord:
        seed = self._derive_seed(tenant, version)
        record = KeyRecord(
            tenant=tenant, version=version,
            key_id=hashlib.sha256(
                f"{tenant}:{version}:{seed}".encode()).hexdigest()[:16],
            fingerprint=_key_fingerprint(tenant, version, seed,
                                         repr(self.params)))
        self._records.setdefault(tenant, []).append(record)
        return record

    def _derive_seed(self, tenant: str, version: int) -> int:
        blob = f"{self._seed}:{tenant}:{version}".encode("utf-8")
        return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")

    # ------------------------------------------------------------------ #
    # Lookup / validation

    def tenants(self) -> List[str]:
        with self._lock:
            return sorted(self._records)

    def _find(self, tenant: str, version: int) -> Optional[KeyRecord]:
        for record in self._records.get(tenant, ()):
            if record.version == version:
                return record
        return None

    def active(self, tenant: str) -> KeyRecord:
        """The tenant's newest non-revoked record."""
        with self._lock:
            for record in reversed(self._records.get(tenant, [])):
                if record.status != REVOKED:
                    return record
        raise UnknownKeyError(tenant)

    def active_version(self, tenant: str) -> int:
        return self.active(tenant).version

    def validate(self, tenant: str, version: Optional[int]) -> KeyRecord:
        """Accept or reject one request's key reference.

        ``version=None`` means "whatever is active" and always passes
        for a known tenant.  Raises :class:`UnknownKeyError` for never-
        issued material and :class:`StaleKeyError` for revoked versions
        or retirements beyond ``grace_versions``.
        """
        with self._lock:
            if tenant not in self._records:
                raise UnknownKeyError(tenant)
            current = self.active(tenant)
            if version is None:
                return current
            record = self._find(tenant, version)
            if record is None:
                raise UnknownKeyError(tenant, version)
            if record.status == REVOKED:
                raise StaleKeyError(tenant, version, current.version,
                                    status=REVOKED)
            behind = current.version - record.version
            if record.status == RETIRED and behind > self.grace_versions:
                raise StaleKeyError(tenant, version, current.version)
            return record

    # ------------------------------------------------------------------ #
    # Key material

    def keychain(self, tenant: str, version: Optional[int] = None):
        """The :class:`~repro.fhe.keys.KeyChain` of one validated
        (tenant, version) — generated on first use from the per-version
        seed, cached after (evaluation keys are expensive)."""
        if self.params is None:
            raise KeyVaultError(
                "this vault holds key metadata only (no params): it can "
                "validate versions but not materialize key material")
        record = self.validate(tenant, version)
        cache_key = (tenant, record.version)
        with self._lock:
            chain = self._chains.get(cache_key)
            if chain is None:
                from ..fhe.keys import KeyChain

                chain = KeyChain(self.params,
                                 seed=self._derive_seed(tenant,
                                                        record.version))
                chain.key_id = record.key_id
                chain.key_version = record.version
                self._chains[cache_key] = chain
        return chain

    # ------------------------------------------------------------------ #
    # Signed manifest (replication across workers)

    def manifest(self) -> dict:
        """Signed, secret-free snapshot of every tenant's key records."""
        with self._lock:
            records = [r.as_dict()
                       for chain in self._records.values()
                       for r in chain]
        records.sort(key=lambda d: (d["tenant"], d["version"]))
        doc = {"schema": KEY_MANIFEST_SCHEMA_VERSION,
               "grace_versions": self.grace_versions,
               "records": records}
        doc["sig"] = self._sign(doc)
        return doc

    def install_manifest(self, doc: dict) -> int:
        """Adopt a replicated manifest (verify-then-install).

        Replaces this vault's records wholesale — the manifest is the
        router's authoritative view.  Returns the record count.  Raises
        :class:`ManifestSignatureError` on a bad signature.
        """
        expected = self._sign(doc)
        if not hmac.compare_digest(str(doc.get("sig", "")), expected):
            raise ManifestSignatureError("key manifest signature mismatch")
        records: Dict[str, List[KeyRecord]] = {}
        for entry in doc.get("records", ()):
            record = KeyRecord.from_dict(entry)
            records.setdefault(record.tenant, []).append(record)
        for chain in records.values():
            chain.sort(key=lambda r: r.version)
        with self._lock:
            self._records = records
            self.grace_versions = int(
                doc.get("grace_versions", self.grace_versions))
        return sum(len(chain) for chain in records.values())

    def _sign(self, doc: dict) -> str:
        payload = {k: v for k, v in doc.items() if k != "sig"}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hmac.new(self.key, blob.encode("utf-8"),
                        hashlib.sha256).hexdigest()

    # ------------------------------------------------------------------ #

    def _emit(self, event: str, record: KeyRecord) -> None:
        if self.on_event is not None:
            try:
                self.on_event(event, record)
            except Exception:  # pragma: no cover - observer must not mask
                pass
