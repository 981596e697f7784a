"""Length-prefixed wire protocol between router and worker processes.

One frame on the wire is::

    MAGIC (4B) | header_len u32 | header JSON | blob_len u32 | blob

The header is a small JSON dict — always carrying ``kind`` — that frames
routing/service metadata (ids, tenant, deadline, trace context).  The
blob is an optional opaque payload: for ``submit`` it is the pickled
``(program, params, machine, options)`` tuple, for ``result`` the
pickled :class:`~repro.serve.request.RequestResult`, for ``journal`` a
JSON list of trace rows.  The header records ``crc32`` of the blob so a
torn or corrupted payload is detected before it is decoded (same
posture as the CRC-framed ciphertexts of :mod:`repro.fhe.serialize`).

A frame is built whole by :func:`encode_frame` and leaves in one
``sendall``; a worker writes a result's ``journal`` and ``result``
frames together in one ``sendall``, and both ends set ``TCP_NODELAY``,
so no frame waits on the peer's delayed ACK.

Message kinds
-------------

========== ======== =======================================================
kind       sender   meaning
========== ======== =======================================================
hello      worker   first frame after connect: worker_id + auth token +
                    ``protocol`` (:data:`PROTOCOL_VERSION`; the router
                    refuses a mismatch)
submit     router   one inference request (blob: program/params/machine)
result     worker   terminal outcome of one submit (blob: RequestResult)
journal    worker   trace rows recorded since the last ship (JSON,
                    :func:`pack_rows`), written in the same ``sendall``
                    as, and ahead of, each result so a later worker
                    death cannot orphan an answered request's trace
ping       router   heartbeat probe, carries ``seq``
pong       worker   heartbeat answer: echoes ``seq``; blob is the worker's
                    *state* (:func:`pack_state`)
keys       router   the signed evaluation-key manifest (JSON blob)
drain      router   stop accepting, finish in-flight, reply ``drained``
drained    worker   drain complete; blob is the final state
shutdown   router   exit after this frame
========== ======== =======================================================

The heartbeat is the one worker->router state channel.  A *state* blob
is JSON, never pickle: the worker's cumulative metrics snapshot, its
compile-cache counters, and the journal rows recorded since the cursor
that have not already ridden ahead of a result — so every row crosses
the wire exactly once, in one encoding whichever frame carries it, and
the router's periodic ping is also its periodic metrics refresh.

Pickle is exchanged only for ``submit`` and ``result`` blobs,
between the router and workers it spawned itself over a loopback socket
authenticated by a per-cluster random token, mirroring
:mod:`multiprocessing.connection`'s trust model.

Trust extensions (:mod:`repro.trust`):

* every frame between token-holding peers carries an ``auth`` field —
  an HMAC-SHA256 over the canonical header (sans ``auth``) plus the
  blob, keyed by the cluster token (:func:`frame_auth`); a receiver
  holding a token rejects a missing or mismatched ``auth`` with a
  :class:`ProtocolError`, so the frame never reaches pickle;
* ``submit`` headers carry a freshness envelope (``nonce`` /
  ``issued_unix`` / ``seq`` / ``sender``, see
  :class:`repro.trust.freshness.FreshnessEnvelope`) plus the tenant's
  ``key_version``, letting the worker re-check replay and key staleness
  independently of the router;
* bounded reads: :func:`recv_frame` with a socket timeout raises
  :class:`FrameTimeout` when the timeout expires *between* frames (a
  clean boundary — the caller may retry or probe liveness) and
  :class:`ProtocolError` when it expires *mid-frame* (the stream lost
  sync and the connection is unusable).
"""

from __future__ import annotations

import hashlib
import hmac
import json
import pickle
import socket
import struct
import zlib
from typing import Optional, Tuple

#: First bytes of every frame; a mismatch means the peer is not speaking
#: this protocol (or the stream lost sync) and the connection is dead.
MAGIC = b"CNC1"

#: Environment variable carrying the cluster's shared auth token (the
#: router exports it; the worker echoes it in its ``hello`` frame).
TOKEN_ENV = "CINNAMON_CLUSTER_TOKEN"

#: Protocol revision, sent in ``hello``; the router refuses any other.
#: 2: ``pong``/``drained`` carry the worker state (10 frame kinds, was
#:    13); ``auth`` is mandatory.
#: 3: ``journal`` blobs are JSON (:func:`pack_rows`), no longer pickle.
#: 4: ``keys`` blobs are the signed key manifest as UTF-8 JSON, not
#:    pickle; ``submit`` headers no longer carry ``tuned``.
PROTOCOL_VERSION = 4

#: Hard cap on header/blob sizes — a corrupt length prefix must not make
#: us try to allocate gigabytes.
MAX_HEADER_BYTES = 1 << 20
MAX_BLOB_BYTES = 1 << 30

_U32 = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """The stream violated the framing contract (bad magic/crc/length)."""


class FrameTimeout(ProtocolError):
    """A bounded read expired at a clean frame boundary — no bytes were
    consumed, the stream is still in sync, and the caller may retry,
    probe liveness, or reconnect."""


class ConnectionClosed(ConnectionError):
    """The peer closed the socket (EOF mid-frame or between frames)."""


# ---------------------------------------------------------------------- #
# Frame authentication

def frame_auth(header: dict, blob: bytes, token: str) -> str:
    """HMAC-SHA256 over the canonical header (sans ``auth``) + blob."""
    payload = {k: v for k, v in header.items() if k != "auth"}
    blob_hdr = json.dumps(payload, separators=(",", ":"),
                          sort_keys=True).encode("utf-8")
    mac = hmac.new(token.encode("utf-8"), blob_hdr, hashlib.sha256)
    mac.update(blob)
    return mac.hexdigest()


# ---------------------------------------------------------------------- #
# Framing

def encode_frame(header: dict, blob: bytes = b"",
                 token: Optional[str] = None) -> bytes:
    """The bytes of one frame.

    With ``token``, the frame carries an ``auth`` HMAC binding header
    and blob to the cluster token.
    """
    if blob or token:
        header = dict(header)
    if blob:
        header["crc32"] = zlib.crc32(blob) & 0xFFFFFFFF
    if token:
        header["auth"] = frame_auth(header, blob, token)
    header_bytes = json.dumps(header, separators=(",", ":"),
                              sort_keys=True).encode("utf-8")
    return b"".join((
        MAGIC,
        _U32.pack(len(header_bytes)),
        header_bytes,
        _U32.pack(len(blob)),
        blob,
    ))


def send_frame(sock: socket.socket, header: dict,
               blob: bytes = b"", token: Optional[str] = None) -> None:
    """Send one frame as one write (thread-unsafe per socket: callers
    serialize writers, see the router's per-worker send lock)."""
    sock.sendall(encode_frame(header, blob, token))


def recv_frame(sock: socket.socket,
               token: Optional[str] = None) -> Tuple[dict, bytes]:
    """Receive one frame; raises :class:`ConnectionClosed` on EOF,
    :class:`FrameTimeout` when a socket timeout expires between frames,
    and :class:`ProtocolError` on framing/CRC/auth violations (including
    a timeout that strikes mid-frame).

    With ``token``, the frame must carry a valid ``auth``: an unsigned
    frame is rejected like a tampered one.
    """
    magic = _recv_exact(sock, len(MAGIC), eof_ok=True)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    (header_len,) = _U32.unpack(_recv_exact(sock, 4))
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"header length {header_len} exceeds cap")
    try:
        header = json.loads(_recv_exact(sock, header_len))
    except ValueError as exc:
        raise ProtocolError(f"unparseable frame header: {exc}") from exc
    if not isinstance(header, dict) or "kind" not in header:
        raise ProtocolError("frame header missing 'kind'")
    (blob_len,) = _U32.unpack(_recv_exact(sock, 4))
    if blob_len > MAX_BLOB_BYTES:
        raise ProtocolError(f"blob length {blob_len} exceeds cap")
    blob = _recv_exact(sock, blob_len) if blob_len else b""
    if blob:
        expect = header.get("crc32")
        actual = zlib.crc32(blob) & 0xFFFFFFFF
        if expect != actual:
            raise ProtocolError(
                f"blob crc mismatch (header {expect}, actual {actual})")
    if token is not None:
        expected = frame_auth(header, blob, token)
        if not hmac.compare_digest(str(header.get("auth")), expected):
            raise ProtocolError(
                f"frame auth missing or wrong on {header.get('kind')!r}")
    return header, blob


def _recv_exact(sock: socket.socket, n: int,
                eof_ok: bool = False) -> bytes:
    """Read exactly ``n`` bytes.  EOF before the first byte raises
    :class:`ConnectionClosed`; EOF mid-read always does (a frame was
    torn), regardless of ``eof_ok``.  A socket timeout before the first
    byte of a frame raises :class:`FrameTimeout` (clean boundary, retry
    is safe); mid-frame it raises :class:`ProtocolError` (stream
    desynchronized)."""
    if n == 0:
        return b""
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 16))
        except socket.timeout:
            if not chunks and eof_ok:
                raise FrameTimeout(
                    "no frame arrived within the read timeout") from None
            got = n - remaining
            raise ProtocolError(
                f"read timed out mid-frame ({got}/{n} bytes)") from None
        if not chunk:
            if chunks or not eof_ok:
                got = n - remaining
                raise ConnectionClosed(
                    f"peer closed mid-frame ({got}/{n} bytes)"
                    if got else "peer closed the connection")
            raise ConnectionClosed("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------- #
# Payload helpers

def pack_submit(request, resolved_options, key: str,
                trace_id: Optional[str] = None,
                parent_span_id: Optional[str] = None,
                envelope=None,
                key_version: Optional[int] = None) -> Tuple[dict, bytes]:
    """Frame one :class:`~repro.serve.request.InferenceRequest`.

    The router ships the *resolved* compiler options (machine folded in)
    so the worker's session computes the identical fingerprint
    and hits the shared disk cache.  ``envelope`` (a
    :class:`~repro.trust.freshness.FreshnessEnvelope`) and
    ``key_version`` ride in the header so the worker can re-check
    freshness and key staleness on its side; the router mints a *fresh*
    envelope per dispatch attempt, so a legitimate failover re-dispatch
    is never mistaken for a replay.
    """
    header = {
        "kind": "submit",
        "request_id": request.request_id,
        "name": request.label,
        "tenant": request.tenant,
        "priority": int(request.priority),
        "deadline_s": request.deadline_s,
        "simulate": request.simulate,
        "tag": request.tag,
        "key": key,
    }
    if envelope is not None:
        header.update(envelope.as_header_fields())
    if key_version is not None:
        header["key_version"] = int(key_version)
    if trace_id:
        header["trace_id"] = trace_id
        header["parent_span_id"] = parent_span_id
    blob = pickle.dumps(
        (request.program, request.params, request.machine,
         resolved_options),
        pickle.HIGHEST_PROTOCOL)
    return header, blob


def unpack_submit(header: dict, blob: bytes):
    """Inverse of :func:`pack_submit`: returns
    ``(program, params, machine, options)``."""
    return pickle.loads(blob)


def pack_result(result) -> Tuple[dict, bytes]:
    """Frame one RequestResult.  Compiled artifacts and simulator objects
    stay worker-side (they can be ~GB); the result crossing the wire is
    stripped to the outcome + latency + cycle count."""
    slim = type(result)(
        request_id=result.request_id,
        name=result.name,
        status=result.status,
        latency=result.latency,
        attempts=result.attempts,
        shard=result.shard,
        batch_size=result.batch_size,
        cache=result.cache,
        cycles=result.cycles,
        error=result.error,
        cost=result.cost,
    )
    header = {"kind": "result", "request_id": result.request_id,
              "status": str(result.status)}
    return header, pickle.dumps(slim, pickle.HIGHEST_PROTOCOL)


def unpack_result(header: dict, blob: bytes):
    return pickle.loads(blob)


def pack_rows(rows: list) -> bytes:
    """The blob of a ``journal`` frame: the rows as one JSON list."""
    return json.dumps(rows, separators=(",", ":")).encode("utf-8")


def unpack_rows(blob: bytes) -> list:
    """Inverse of :func:`pack_rows`; anything but a JSON list of objects
    is a :class:`ProtocolError`."""
    try:
        rows = json.loads(blob)
    except ValueError as exc:
        raise ProtocolError(f"unparseable journal blob: {exc}") from exc
    return _check_rows(rows, "journal blob")


def _check_rows(rows, where: str) -> list:
    if not isinstance(rows, list):
        raise ProtocolError(f"{where} is not a list")
    if not all(isinstance(row, dict) for row in rows):
        raise ProtocolError(f"{where} holds a non-object row")
    return rows


def pack_state(snapshot: dict, cache: dict, journal: list) -> bytes:
    """The worker state blob of a ``pong``/``drained`` frame."""
    return json.dumps({"snapshot": snapshot, "cache": cache,
                       "journal": journal},
                      separators=(",", ":")).encode("utf-8")


def unpack_state(blob: bytes) -> dict:
    """Inverse of :func:`pack_state`; anything but a JSON object with a
    dict ``snapshot``, dict ``cache`` and a list of dict rows as
    ``journal`` is a :class:`ProtocolError`."""
    try:
        state = json.loads(blob)
    except ValueError as exc:
        raise ProtocolError(f"unparseable state blob: {exc}") from exc
    if not isinstance(state, dict):
        raise ProtocolError("state blob is not a JSON object")
    for field, kind in (("snapshot", dict), ("cache", dict)):
        if not isinstance(state.get(field), kind):
            raise ProtocolError(
                f"state field {field!r} is not a {kind.__name__}")
    _check_rows(state.get("journal"), "state field 'journal'")
    return state


def pack_keys(manifest: dict) -> bytes:
    """The blob of a ``keys`` frame: the signed key manifest as JSON
    (the document its signature is computed over)."""
    return json.dumps(manifest, separators=(",", ":")).encode("utf-8")


def unpack_keys(blob: bytes) -> dict:
    """Inverse of :func:`pack_keys`; anything but a JSON object is a
    :class:`ProtocolError`.  The signature is the vault's to check."""
    try:
        manifest = json.loads(blob)
    except ValueError as exc:
        raise ProtocolError(f"unparseable keys blob: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ProtocolError("keys blob is not a JSON object")
    return manifest
