"""Serialization of parameters, ciphertexts, and plaintexts.

A deployable FHE stack has to move ciphertexts between client and server;
this module provides a compact ``.npz``-based wire format:

* parameters travel as their defining integers (primes, digit count,
  scale table), so both sides reconstruct identical ``CKKSParams``;
* ciphertexts/plaintexts travel as their limb matrices plus scale and a
  parameter fingerprint that guards against mixing incompatible contexts.

Secret keys are deliberately *not* serializable here — a reproduction of a
server-side system has no business shipping them around; tests generate
keys from seeds instead.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
import zlib

import numpy as np

from .ciphertext import Ciphertext
from .encoding import Plaintext
from .params import CKKSParams
from .polynomial import EVAL, RnsPolynomial

_MAGIC = "repro-cinnamon-v1"

#: Version of the framed wire format (the CRC32 header below).  v1 blobs
#: were headerless ``.npz`` archives; nothing writes them any more and
#: loaders reject them like any other unframed bytes.
SERIALIZE_SCHEMA_VERSION = 2

#: Frame header: magic + big-endian (version: u16, crc32: u32).
_FRAME_MAGIC = b"CNMN"
_FRAME_FMT = ">HI"
_FRAME_LEN = len(_FRAME_MAGIC) + struct.calcsize(_FRAME_FMT)


class CorruptPayloadError(ValueError):
    """A serialized blob failed its integrity check (bad header, wrong
    version, or CRC mismatch from corruption/truncation)."""


def frame_payload(payload: bytes) -> bytes:
    """Prefix ``payload`` with the versioned CRC32 frame header."""
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return _FRAME_MAGIC + struct.pack(
        _FRAME_FMT, SERIALIZE_SCHEMA_VERSION, crc) + payload


def unframe_payload(data: bytes) -> bytes:
    """Validate and strip the frame header; raises
    :class:`CorruptPayloadError` on corruption."""
    if not data.startswith(_FRAME_MAGIC):
        raise CorruptPayloadError(
            "not a framed cinnamon payload (bad magic); refusing to "
            "deserialize")
    if len(data) < _FRAME_LEN:
        raise CorruptPayloadError("truncated payload: header incomplete")
    version, crc = struct.unpack(
        _FRAME_FMT, data[len(_FRAME_MAGIC):_FRAME_LEN])
    if version > SERIALIZE_SCHEMA_VERSION:
        raise CorruptPayloadError(
            f"payload schema v{version} is newer than this reader "
            f"(v{SERIALIZE_SCHEMA_VERSION})")
    payload = data[_FRAME_LEN:]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CorruptPayloadError(
            "payload CRC32 mismatch: blob is corrupt or truncated")
    return payload


def params_fingerprint(params: CKKSParams) -> str:
    """Stable hash identifying a parameter set (not its keys)."""
    payload = json.dumps({
        "ring_degree": params.ring_degree,
        "moduli": list(params.moduli),
        "extension": list(params.extension_moduli),
        "digits": params.num_digits,
    }, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def dump_params(params: CKKSParams) -> bytes:
    """Serialize a parameter set to bytes."""
    blob = json.dumps({
        "magic": _MAGIC,
        "kind": "params",
        "ring_degree": params.ring_degree,
        "moduli": list(params.moduli),
        "extension_moduli": list(params.extension_moduli),
        "num_digits": params.num_digits,
        "scale": params.scale,
        "error_std": params.error_std,
        "secret_hamming_weight": params.secret_hamming_weight,
        "level_scales": list(params.level_scales),
    })
    return blob.encode()


def load_params(data: bytes) -> CKKSParams:
    payload = json.loads(data.decode())
    if payload.get("magic") != _MAGIC or payload.get("kind") != "params":
        raise ValueError("not a serialized parameter set")
    return CKKSParams(
        ring_degree=payload["ring_degree"],
        moduli=tuple(payload["moduli"]),
        extension_moduli=tuple(payload["extension_moduli"]),
        num_digits=payload["num_digits"],
        scale=payload["scale"],
        error_std=payload["error_std"],
        secret_hamming_weight=payload["secret_hamming_weight"],
        level_scales=tuple(payload["level_scales"]),
    )


def _dump_polys(kind: str, polys, scale: float, params: CKKSParams) -> bytes:
    buffer = io.BytesIO()
    arrays = {f"poly{i}": poly.to_eval().data for i, poly in enumerate(polys)}
    meta = json.dumps({
        "magic": _MAGIC,
        "kind": kind,
        "scale": scale,
        "level": polys[0].level,
        "degree": len(polys),
        "fingerprint": params_fingerprint(params),
    })
    np.savez_compressed(buffer, meta=np.frombuffer(meta.encode(), dtype=np.uint8),
                        **arrays)
    return frame_payload(buffer.getvalue())


def _load_polys(data: bytes, expect_kind: str, params: CKKSParams):
    data = unframe_payload(data)
    with np.load(io.BytesIO(data)) as archive:
        meta = json.loads(bytes(archive["meta"]).decode())
        if meta.get("magic") != _MAGIC or meta.get("kind") != expect_kind:
            raise ValueError(f"not a serialized {expect_kind}")
        if meta["fingerprint"] != params_fingerprint(params):
            raise ValueError(
                "parameter fingerprint mismatch: ciphertext belongs to a "
                "different context")
        basis = params.basis_at_level(meta["level"])
        polys = [
            RnsPolynomial(basis, archive[f"poly{i}"], EVAL)
            for i in range(meta["degree"])
        ]
        return polys, meta["scale"]


def dump_ciphertext(ct: Ciphertext, params: CKKSParams) -> bytes:
    return _dump_polys("ciphertext", ct.polys, ct.scale, params)


def load_ciphertext(data: bytes, params: CKKSParams) -> Ciphertext:
    polys, scale = _load_polys(data, "ciphertext", params)
    return Ciphertext(polys, scale)


def dump_plaintext(pt: Plaintext, params: CKKSParams) -> bytes:
    return _dump_polys("plaintext", [pt.poly], pt.scale, params)


def load_plaintext(data: bytes, params: CKKSParams) -> Plaintext:
    polys, scale = _load_polys(data, "plaintext", params)
    return Plaintext(polys[0], scale)


def ciphertext_wire_bytes(params: CKKSParams, level: int,
                          degree: int = 2) -> int:
    """Uncompressed wire size of a ciphertext (the paper's ~20 MB at
    N = 64K, L ~ 40)."""
    return degree * level * params.limb_bytes
