"""Content hashing of ``(program, params, options)`` compile requests.

The runtime cache is *content*-addressed: two structurally identical
:class:`CinnamonProgram` DAGs hash the same regardless of object identity,
so rebuilding a workload generator and recompiling is a cache hit.  The
fingerprint covers everything that can change the emitted ISA:

* the full ciphertext-level DAG (opcodes, operand edges, levels, streams,
  attrs) plus input/output/plaintext bindings and stream count;
* the parameter set (CKKS prime chain or architectural shape);
* every :class:`CompilerOptions` field (machine layout, keyswitch policy,
  register file size, bootstrap plan, optimization switches);
* ``emit_isa`` and the cache schema version.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass

from ..core.compiler import CompilerOptions
from ..core.dsl.program import CinnamonProgram

#: Bump whenever the pickled artifact layout or the meaning of the
#: fingerprint changes; on-disk entries written under a different version
#: are ignored (and lazily rewritten).
#: 2: the trust layer (repro.trust) — disk loads verify against the
#:    signed MANIFEST.json before unpickling, so pre-trust cache
#:    directories (no manifest rows) must re-compile, not half-load.
#: 3: columnar limb IR and ISA streams — a pickled artifact holds
#:    LimbProgram / InstructionStream columns, not LimbOp / Instruction
#:    lists.
#: 4: typed ISA streams — an InstructionStream holds int numpy columns
#:    (opcode codes, -1-for-none registers, CSR sources), not lists.
CACHE_SCHEMA_VERSION = 4


def _canonical(value):
    """Reduce ``value`` to JSON-serializable canonical form."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            **{f.name: _canonical(getattr(value, f.name))
               for f in fields(value)},
        }
    # Last resort: repr.  Frozen dataclasses and numbers never reach this.
    return {"__repr__": repr(value), "__type__": type(value).__name__}


def program_signature(program: CinnamonProgram) -> dict:
    """Canonical structural description of a captured program."""
    return {
        "name": program.name,
        "input_level": program.input_level,
        "bootstrap_output_level": program.bootstrap_output_level,
        "auto_bootstrap": program.auto_bootstrap,
        "num_streams": program.num_streams,
        "inputs": _canonical(program.inputs),
        "outputs": _canonical(program.outputs),
        "plaintexts": _canonical(program.plaintexts),
        "ops": [
            [op.id, op.opcode, list(op.inputs), op.level, op.stream,
             _canonical(op.attrs)]
            for op in program.ops
        ],
    }


def options_signature(options: CompilerOptions) -> dict:
    """Canonical description of compiler options (plan by value)."""
    return _canonical(options)


def params_signature(params) -> dict:
    """Canonical description of CKKS/arch parameters."""
    sig = _canonical(params)
    if isinstance(sig, dict):
        sig.setdefault("__type__", type(params).__name__)
    return {"type": type(params).__name__, "value": sig}


def fingerprint(program: CinnamonProgram, params,
                options: CompilerOptions, emit_isa: bool = True,
                schema_version: int = None) -> str:
    """SHA-256 content hash of one compile request (hex digest)."""
    payload = {
        "schema": (CACHE_SCHEMA_VERSION if schema_version is None
                   else schema_version),
        "program": program_signature(program),
        "params": params_signature(params),
        "options": options_signature(options),
        "emit_isa": bool(emit_isa),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
