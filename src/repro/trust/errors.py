"""Typed errors of the trust layer.

Every rejection the trust layer makes — a tampered artifact, a stale or
revoked evaluation key, a replayed or reordered request — surfaces as
one of these, never as a hang, a bare ``Exception``, or a silent
re-execution.  Callers (the serving router, the cache load path) catch
the *typed* class, convert it into a terminal request status or a cache
miss, and record a ``kind: "trust"`` trace row plus a metrics counter.
"""

from __future__ import annotations


class TrustError(RuntimeError):
    """Base class of every trust-layer rejection."""


class TamperDetectedError(TrustError):
    """An artifact's content hash does not match its signed manifest."""

    def __init__(self, target: str, name: str, expected: str = "",
                 actual: str = ""):
        self.target = target        # what was tampered with: "cache"
        self.name = name            # artifact key / file name
        self.expected = expected
        self.actual = actual
        detail = ""
        if expected or actual:
            detail = (f" (manifest sha256 {expected[:12]}…, "
                      f"file {actual[:12]}…)")
        super().__init__(
            f"tampered {target} artifact {name!r}{detail}")


class ManifestSignatureError(TrustError):
    """A manifest's HMAC signature failed verification — the manifest
    itself (not just one artifact) is untrusted."""


class KeyVaultError(TrustError):
    """Base class of key-lifecycle rejections."""


class UnknownKeyError(KeyVaultError):
    """The referenced tenant or key version was never issued."""

    def __init__(self, tenant: str, version=None):
        self.tenant = tenant
        self.version = version
        what = (f"key version {version} of tenant {tenant!r}"
                if version is not None else f"tenant {tenant!r}")
        super().__init__(f"unknown {what}")


class StaleKeyError(KeyVaultError):
    """The referenced evaluation/public key version has been rotated
    out (or explicitly revoked) and may no longer authorize work."""

    def __init__(self, tenant: str, version: int, active: int,
                 status: str = "retired"):
        self.tenant = tenant
        self.version = version
        self.active = active
        self.status = status
        super().__init__(
            f"{status} key version {version} of tenant {tenant!r} "
            f"rejected (active version is {active})")


class FreshnessError(TrustError):
    """Base class of request-freshness rejections."""


class ReplayError(FreshnessError):
    """A request envelope's nonce was already consumed (replay) or its
    sequence number ran backwards (reorder)."""

    def __init__(self, reason: str, nonce: str = "", sender: str = ""):
        self.reason = reason        # "nonce-reuse" | "sequence-reorder"
        self.nonce = nonce
        self.sender = sender
        super().__init__(
            f"replayed request rejected ({reason}, nonce={nonce!r})")


class StaleRequestError(FreshnessError):
    """A request envelope's timestamp falls outside the replay window
    (too old to vouch for, or too far in the future to be honest)."""

    def __init__(self, age_s: float, window_s: float):
        self.age_s = age_s
        self.window_s = window_s
        direction = "old" if age_s >= 0 else "far in the future"
        super().__init__(
            f"request envelope is {abs(age_s):.1f}s {direction} "
            f"(replay window {window_s:.1f}s)")
