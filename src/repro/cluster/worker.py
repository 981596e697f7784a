"""The cluster worker process: one socket, one session, a small pool.

``python -m repro.cluster.worker --connect PORT --worker-id w0`` dials
the router's loopback listener once, authenticates with the token the
router exported in ``CINNAMON_CLUSTER_TOKEN`` (the trust model of
``multiprocessing.connection``), and serves frames until a ``shutdown``
frame arrives or the connection ends:

* ``submit`` frames go to a pool of :data:`WORKER_THREADS` threads where the
  process's :class:`~repro.serve.executor.ShardExecutor` — the attempt
  loop a :class:`~repro.serve.CinnamonServer` shard runs, here as a
  batch of one with ``max_retries=0`` (the router owns failover) — runs
  the job under the router-side request's trace id; its outcome goes
  back as a ``result`` frame;
* ``ping`` is answered inline with ``pong`` so heartbeats stay timely
  while the pool is busy.  The pong is the one worker->router state
  channel: the process's cumulative metrics snapshot, its compile-cache
  counters and the journal rows recorded since the previous ship (a
  cursor, so nothing is ever shipped twice or lost);
* ``drain`` stops accepting new submits, waits out the in-flight jobs,
  and answers ``drained`` with the final state.

Robustness & trust (:mod:`repro.trust`; details on :meth:`ClusterWorker.run`
and :meth:`ClusterWorker._trust_check`):

* reads are *bounded* (``read_timeout_s``): EOF, a stream desync or
  silence past ``liveness_timeout_s`` (a half-open socket) ends the
  worker with exit code 0.  It never redials: a connection the router
  dropped stays dropped, and the router respawns a replacement;
* every frame carries (and is verified against) the cluster token's
  HMAC (:func:`~repro.cluster.protocol.frame_auth`);
* ``keys`` frames install the router's signed key manifest, so each
  submit's ``key_version`` and freshness envelope are re-checked on this
  side of the wire (revoked/unknown keys and replayed frames refused);
* ``--chaos-chip-crash N`` arms N chip-kill faults on the executor's
  :class:`~repro.serve.faults.FaultInjector`, one per submit, refunded
  until each fires; the executor replays one degrade-ladder rung down,
  so a chaos run loses zero legitimate requests.
"""

from __future__ import annotations

import argparse
import os
import re
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from ..obs import tracing
from ..obs.metrics import default_registry
from ..runtime.session import CinnamonSession
from ..serve.executor import ShardExecutor
from ..serve.faults import FaultInjector
from ..serve.request import InferenceRequest, RequestResult, RequestStatus
from ..trust.errors import (FreshnessError, ReplayError, StaleKeyError,
                            UnknownKeyError)
from ..trust.freshness import FreshnessEnvelope, ReplayGuard
from ..trust.keyvault import KeyVault, REVOKED
from .protocol import (ConnectionClosed, FrameTimeout, PROTOCOL_VERSION,
                       ProtocolError, TOKEN_ENV, encode_frame, pack_result,
                       pack_rows, pack_state, recv_frame, unpack_keys,
                       unpack_submit)

#: Submits a worker executes at once.
WORKER_THREADS = 2

#: What a compile fingerprint looks like (a SHA-256 hex digest).
_FINGERPRINT = re.compile(r"[0-9a-f]{64}")


class ClusterWorker:
    """One worker process's event loop (see module docstring)."""

    def __init__(self, worker_id: str, host: str, port: int,
                 token: str = "", cache_dir=None,
                 capacity: Optional[int] = None,
                 watchdog_s: Optional[float] = None,
                 read_timeout_s: float = 5.0,
                 liveness_timeout_s: float = 15.0,
                 chaos_chip_crash: int = 0, chaos_cycle: int = 2000):
        self.worker_id = worker_id
        self.host = host
        self.port = port
        self.token = token
        self.read_timeout_s = read_timeout_s
        self.liveness_timeout_s = liveness_timeout_s
        self._metrics = default_registry()
        # max_retries=0: a failed attempt goes back to the router, whose
        # failover re-dispatches it (possibly to another worker).
        self.executor = ShardExecutor(
            CinnamonSession(cache_dir=cache_dir, capacity=capacity),
            self._metrics, shard=worker_id, max_retries=0,
            watchdog_s=watchdog_s,
            faults=FaultInjector().chip_crash(
                chip=0, cycle=chaos_cycle, count=chaos_chip_crash))
        self._pool = ThreadPoolExecutor(
            max_workers=WORKER_THREADS,
            thread_name_prefix=f"cluster-{worker_id}")
        self._sock: Optional[socket.socket] = None
        self._send_lock = threading.Lock()
        self._draining = False
        self._journal_cursor = 0        # advanced under _send_lock
        # Trust plumbing: an (initially empty) metadata-only vault filled
        # by the router's "keys" frames, and an independent replay guard.
        self._keyvault = KeyVault()
        self._replay_guard = ReplayGuard()
        self._submits_total = self._metrics.counter(
            "cluster_worker_submits_total",
            "Submit frames accepted by this worker.")
        self._inflight_gauge = self._metrics.gauge(
            "cluster_worker_inflight",
            "Jobs executing or queued on the worker pool.")

    # ------------------------------------------------------------------ #
    # Lifecycle

    def run(self) -> int:
        """Connect, say hello, serve frames until shutdown; 1 if the
        router cannot be reached, else 0.

        Reads are bounded: a :class:`FrameTimeout` at a clean frame
        boundary is routine (the read timeout is shorter than the
        heartbeat gap only under load) and merely prompts a liveness
        check — a socket silent past ``liveness_timeout_s`` is half-open,
        and the worker exits.  So does it on EOF, a mid-frame timeout or
        a torn frame (the stream lost sync).
        """
        try:
            self._sock = socket.create_connection((self.host, self.port),
                                                  timeout=30)
            # Frames are whole messages: send each at once, never wait
            # on the router's delayed ACK.
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock.sendall(self._encode({
                "kind": "hello", "worker_id": self.worker_id,
                "token": self.token, "pid": os.getpid(),
                "protocol": PROTOCOL_VERSION}, b""))
        except OSError:
            return 1
        self._sock.settimeout(self.read_timeout_s)
        last_frame = time.monotonic()
        try:
            while True:
                try:
                    header, blob = recv_frame(self._sock,
                                              token=self.token or None)
                except FrameTimeout:
                    # The router pings every ~0.5s, so prolonged total
                    # silence means the connection is half-open.
                    if time.monotonic() - last_frame \
                            < self.liveness_timeout_s:
                        continue
                    return 0
                except (ConnectionClosed, ProtocolError, OSError):
                    return 0      # EOF or stream desync
                last_frame = time.monotonic()
                if not self._handle(header, blob):
                    return 0
        finally:
            self._pool.shutdown(wait=False)
            self._sock.close()

    def _handle(self, header: dict, blob: bytes) -> bool:
        """Process one frame; returns ``False`` to exit the loop."""
        kind = header.get("kind")
        if kind == "submit":
            self._accept_submit(header, blob)
        elif kind == "ping":
            self._send_state("pong", seq=header.get("seq"))
        elif kind == "keys":
            self._install_keys(blob)
        elif kind == "drain":
            self._draining = True
            self._pool.shutdown(wait=True)     # in-flight jobs finish
            self._send_state("drained")
        elif kind == "shutdown":
            return False
        else:
            raise ProtocolError(f"worker got unexpected frame {kind!r}")
        return True

    # ------------------------------------------------------------------ #
    # Trust: replicated keys + worker-side freshness/staleness re-checks

    def _install_keys(self, blob: bytes) -> None:
        """Adopt the router's signed key manifest (verify-then-install);
        a blob that is not a JSON object, or a bad signature, leaves the
        previous vault state untouched."""
        try:
            count = self._keyvault.install_manifest(unpack_keys(blob))
        except Exception as exc:  # ProtocolError, ManifestSignatureError
            self.executor.session.record(
                "trust", event="key_manifest_rejected", target=self.worker_id,
                detail={"error": f"{type(exc).__name__}: {exc}"})
        else:
            self.executor.session.record(
                "trust", event="keys_installed", target=self.worker_id,
                detail={"records": count})

    def _trust_check(self, header: dict) -> Optional[str]:
        """Re-check a submit's freshness envelope and key version on this
        side of the wire; returns a rejection reason or ``None``.

        The router mints a *fresh* envelope per dispatch attempt, so a
        legitimate submit (including a failover re-dispatch) never trips
        this guard — only a frame replayed on the wire does.  Key checks
        reject only *revoked* or never-issued versions: a merely retired
        one may be a mid-rotation race the router already admitted under
        its grace window.
        """
        tenant = header.get("tenant", "default")
        envelope = FreshnessEnvelope.from_header(header)
        if envelope is not None:
            try:
                self._replay_guard.check(envelope)
            except FreshnessError as exc:
                event = ("replay_rejected" if isinstance(exc, ReplayError)
                         else "stale_request")
                self.executor.session.record(
                    "trust", event=event, target=tenant,
                    detail={"worker": self.worker_id,
                            "nonce": envelope.nonce,
                            "reason": getattr(exc, "reason", "stale")})
                return f"{type(exc).__name__}: {exc}"
        version = header.get("key_version")
        if version is not None and self._keyvault.tenants():
            try:
                self._keyvault.validate(tenant, int(version))
            except UnknownKeyError as exc:
                self.executor.session.record(
                    "trust", event="stale_key", target=tenant,
                    detail={"worker": self.worker_id, "version": version,
                            "status": "unknown"})
                return f"{type(exc).__name__}: {exc}"
            except StaleKeyError as exc:
                if exc.status == REVOKED:
                    self.executor.session.record(
                        "trust", event="stale_key", target=tenant,
                        detail={"worker": self.worker_id,
                                "version": version, "status": REVOKED})
                    return f"{type(exc).__name__}: {exc}"
        return None

    # ------------------------------------------------------------------ #
    # Submit execution

    def _accept_submit(self, header: dict, blob: bytes) -> None:
        if self._draining:
            self._send_error(header, "worker is draining")
            return
        reason = self._trust_check(header)
        if reason is not None:
            self._send_error(header, reason, retryable=False)
            return
        self._submits_total.inc()
        self._inflight_gauge.inc()
        self._pool.submit(self._execute, header, blob)

    def _execute(self, header: dict, blob: bytes) -> None:
        request_id = header.get("request_id", 0)
        name = header.get("name", f"req-{request_id}")
        span = None
        trace_id = header.get("trace_id")
        if trace_id:
            # Re-hydrate the router-side request span as this job's
            # parent so every journal row recorded here joins the trace.
            span = tracing.Span(
                f"worker:{name}", kind="execute", trace_id=trace_id,
                parent_id=header.get("parent_span_id"),
                attrs={"worker": self.worker_id,
                       "request_id": request_id})
            tracing.tracer().add_span(span)
        key = header.get("key")
        try:
            # Options arrive pre-resolved (machine folded in, tuning swap
            # applied), and the header's key is the router's fingerprint
            # of this very frame's program, params and options: the
            # session compiles and caches under it without hashing the
            # program again.  The key names the shared disk cache's
            # file, so anything but a SHA-256 hex digest is recomputed.
            program, params, _machine, options = unpack_submit(header, blob)
            (result,) = self.executor.execute([InferenceRequest(
                program=program, params=params, options=options,
                simulate=header.get("simulate", True),
                tag=header.get("tag", ""), name=name,
                request_id=request_id, span=span,
                key=key if isinstance(key, str)
                and _FINGERPRINT.fullmatch(key) else None)])
        except Exception as exc:   # an undecodable submit blob
            result = RequestResult(
                request_id=request_id, name=name,
                status=RequestStatus.FAILED, attempts=1, batch_size=1,
                error=f"{type(exc).__name__}: {exc}")
        finally:
            if span is not None:
                span.finish()
            self._inflight_gauge.dec()
        try:
            self._send_result(result)
        except OSError:
            pass  # router died; its failover path re-runs the request

    def _send_error(self, header: dict, reason: str,
                    retryable: bool = True) -> None:
        """``retryable=False`` marks a terminal rejection (a trust
        refusal): re-dispatching the same frame cannot succeed."""
        self._send_result(RequestResult(
            request_id=header.get("request_id", 0),
            name=header.get("name", "?"), status=RequestStatus.FAILED,
            error=reason), retryable=retryable)

    def _send_result(self, result: RequestResult, **extra) -> None:
        """One write: the journal rows recorded since the last ship, then
        the result.  Any request whose result the router holds also has
        its compile/simulate trace rows router-side, so a SIGKILL of
        this process can never orphan an already-answered trace."""
        res_header, res_blob = pack_result(result)
        res_header.update(extra, worker_id=self.worker_id)
        with self._send_lock:
            rows = self._fresh_journal_rows()
            frames = [self._encode({"kind": "journal",
                                    "worker_id": self.worker_id},
                                   pack_rows(rows))] if rows else []
            frames.append(self._encode(res_header, res_blob))
            self._sock.sendall(b"".join(frames))

    # ------------------------------------------------------------------ #
    # State / journal shipping

    def _fresh_journal_rows(self) -> list:
        """Journal rows recorded since the last ship (cursor semantics:
        each row crosses the wire exactly once).  Callers hold
        ``_send_lock``, so rows leave in the order they were taken."""
        fresh, self._journal_cursor = self.executor.session.rows_since(
            self._journal_cursor)
        return fresh

    def _send_state(self, kind: str, **extra) -> None:
        """The worker->router state channel (``pong`` / ``drained``)."""
        header = {"kind": kind, "worker_id": self.worker_id, **extra}
        with self._send_lock:
            blob = pack_state(self._metrics.snapshot(),
                              self.executor.session.cache_stats.as_dict(),
                              self._fresh_journal_rows())
            self._sock.sendall(self._encode(header, blob))

    def _encode(self, header: dict, blob: bytes) -> bytes:
        return encode_frame(header, blob, token=self.token or None)


# ---------------------------------------------------------------------- #


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.worker",
        description="Cinnamon cluster worker (spawned by ClusterRouter).")
    parser.add_argument("--connect", type=int, required=True,
                        help="router listener port on --host")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--worker-id", required=True)
    parser.add_argument("--cache-dir", default=None,
                        help="shared on-disk compile cache directory")
    parser.add_argument("--capacity", type=int, default=None,
                        help="in-memory LRU bound for the session cache")
    parser.add_argument("--watchdog-s", type=float, default=None)
    parser.add_argument("--read-timeout-s", type=float, default=5.0,
                        help="bounded per-read socket timeout")
    parser.add_argument("--liveness-timeout-s", type=float, default=15.0,
                        help="silence past this means a half-open router "
                             "connection: the worker exits")
    parser.add_argument("--chaos-chip-crash", type=int, default=0,
                        help="arm N scripted chip-kill faults, one per "
                             "submit, refunded until each fires "
                             "(chaos testing)")
    parser.add_argument("--chaos-cycle", type=int, default=2000,
                        help="simulated cycle at which a chaos chip dies")
    parser.add_argument("--obs", action="store_true",
                        help="enable repro.obs span tracing in-process")
    args = parser.parse_args(argv)
    if args.obs:
        tracing.enable()
    worker = ClusterWorker(
        worker_id=args.worker_id, host=args.host, port=args.connect,
        token=os.environ.get(TOKEN_ENV, ""), cache_dir=args.cache_dir,
        capacity=args.capacity, watchdog_s=args.watchdog_s,
        read_timeout_s=args.read_timeout_s,
        liveness_timeout_s=args.liveness_timeout_s,
        chaos_chip_crash=args.chaos_chip_crash,
        chaos_cycle=args.chaos_cycle)
    return worker.run()


if __name__ == "__main__":
    sys.exit(main())
