"""repro.trust: artifact integrity, key lifecycle, replay protection.

The trust layer answers "can I run what I just loaded, with the key the
request named, for a request I haven't already served?" across every
place this repo persists or ships state:

* :mod:`~repro.trust.manifest` — signed per-directory hash manifests
  guarding the compile cache's pickles; tampered
  files degrade to a cache miss and are quarantined as evidence;
* :mod:`~repro.trust.keyvault` — versioned multi-tenant evaluation-key
  lifecycle (issue / rotate / revoke) with signed, secret-free key
  manifests the cluster router replicates to workers;
* :mod:`~repro.trust.freshness` — nonce + timestamp + sequence
  envelopes and the bounded-window :class:`ReplayGuard` that rejects
  replayed, reordered, or stale requests;
* :mod:`~repro.trust.rebuild` — the reproducibility gate behind
  ``python -m repro.trust --rebuild-check``.

Every rejection is a typed exception from :mod:`~repro.trust.errors`,
traced as a ``kind: "trust"`` journal row, and counted in
``trust_*_total`` metrics — see docs/trust.md for the threat model.

Exports resolve lazily (PEP 562), matching :mod:`repro.cluster`.
"""

_LAZY_ATTRS = {
    "ArtifactManifest": ("repro.trust.manifest", "ArtifactManifest"),
    "EnvelopeMinter": ("repro.trust.freshness", "EnvelopeMinter"),
    "FreshnessEnvelope": ("repro.trust.freshness", "FreshnessEnvelope"),
    "FreshnessError": ("repro.trust.errors", "FreshnessError"),
    "KeyRecord": ("repro.trust.keyvault", "KeyRecord"),
    "KeyVault": ("repro.trust.keyvault", "KeyVault"),
    "KeyVaultError": ("repro.trust.errors", "KeyVaultError"),
    "ManifestSignatureError": ("repro.trust.errors",
                               "ManifestSignatureError"),
    "ReplayError": ("repro.trust.errors", "ReplayError"),
    "ReplayGuard": ("repro.trust.freshness", "ReplayGuard"),
    "StaleKeyError": ("repro.trust.errors", "StaleKeyError"),
    "StaleRequestError": ("repro.trust.errors", "StaleRequestError"),
    "TamperDetectedError": ("repro.trust.errors", "TamperDetectedError"),
    "TrustError": ("repro.trust.errors", "TrustError"),
    "UnknownKeyError": ("repro.trust.errors", "UnknownKeyError"),
    "artifact_digest": ("repro.trust.rebuild", "artifact_digest"),
    "rebuild_check": ("repro.trust.rebuild", "rebuild_check"),
    "resolve_trust_key": ("repro.trust.manifest", "resolve_trust_key"),
    "sha256_file": ("repro.trust.manifest", "sha256_file"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY_ATTRS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.trust' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value


__all__ = sorted(_LAZY_ATTRS)
