"""Reproducibility gate: prove a cold rebuild is bit-identical.

A compiled artifact's pickle is not byte-reproducible — it embeds
wall-clock pass timings — so reproducibility is judged on a *content
digest*: :func:`artifact_digest`, a SHA-256 over the deterministic
substance of the artifact (program structure, resolved options, IR
counters, and the full register-allocated instruction streams).  Two
compiles of the same request must produce identical digests, or the
toolchain is nondeterministic — the bitrot/reproducibility posture of
the dstack attestation checklist (ROADMAP item 4).

:func:`rebuild_check` compiles a workload mix twice, cold, in two fresh
memory-only sessions and diffs the two digest maps (and, optionally, a
committed reference map).  ``python -m repro.trust --rebuild-check``
wraps it.  It is the compiler's determinism under test; the disk tier's
integrity is :func:`verify_cache_dir`'s side (``--verify``).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional

from ..runtime.fingerprint import (_canonical, options_signature,
                                   params_signature, program_signature)


def artifact_digest(compiled) -> str:
    """Deterministic content digest of one compiled artifact.

    Everything that affects execution is covered (program DAG, options,
    IR counters, per-chip instruction streams); wall-clock timings and
    memory addresses are excluded by construction.
    """
    stats = getattr(compiled, "compile_stats", None)
    isa = getattr(compiled, "isa", None)
    program = getattr(compiled, "ct_program", None)
    params = getattr(compiled, "params", None)
    options = getattr(compiled, "options", None)
    streams = {}
    if isa is not None:
        streams = {
            str(chip): [[ins.opcode, ins.dest, list(ins.srcs),
                         _canonical(ins.attrs)]
                        for ins in isa.streams[chip]]
            for chip in sorted(isa.streams)
        }
    payload = {
        "name": getattr(compiled, "name", type(compiled).__name__),
        "program": (program_signature(program)
                    if program is not None else None),
        "params": (params_signature(params)
                   if params is not None else None),
        "options": (options_signature(options)
                    if options is not None else _canonical(options)),
        "counters": dict(getattr(stats, "counters", {}) or {}),
        "streams": streams,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _compile_mix(mix, machine) -> Dict[str, str]:
    """Compile every workload of ``mix`` cold, in a fresh memory-only
    session; returns {fingerprint-key: content-digest}."""
    from ..runtime.session import CinnamonSession

    session = CinnamonSession()
    digests: Dict[str, str] = {}
    for name, entry in sorted(mix.items()):
        compiled = session.compile(entry.build(), entry.params,
                                   machine=machine, job=name)
        digests[compiled.cache_key] = artifact_digest(compiled)
    return digests


def rebuild_check(mix, machine="cinnamon_4", *,
                  reference: Optional[Dict[str, str]] = None) -> dict:
    """Compile ``mix`` twice (cold both times) and diff digests.

    Returns a report dict with ``ok``, the per-run digest maps, and the
    keys that diverged.  ``reference`` (optional) additionally compares
    the first run against a committed digest map — the "bit-identical to
    the committed run" gate.
    """
    warm = _compile_mix(mix, machine)
    cold = _compile_mix(mix, machine)
    mismatched = sorted(
        key for key in set(warm) | set(cold)
        if warm.get(key) != cold.get(key))
    report = {
        "ok": not mismatched,
        "machine": str(machine),
        "workloads": sorted(mix),
        "artifacts": len(warm),
        "warm": warm,
        "cold": cold,
        "mismatched": mismatched,
    }
    if reference is not None:
        drifted = sorted(
            key for key in set(reference) | set(warm)
            if reference.get(key) != warm.get(key))
        report["reference_drift"] = drifted
        report["ok"] = report["ok"] and not drifted
    return report


def verify_cache_dir(cache_dir, key=None) -> dict:
    """Read-only audit of an existing cache directory's manifest."""
    from .manifest import ArtifactManifest

    manifest = ArtifactManifest(cache_dir, key=key)
    return manifest.verify_directory()
