"""The cluster front-end: routing, trust admission, failover.

``ClusterRouter`` is API-compatible with
:class:`~repro.serve.CinnamonServer` (``submit``/``drain``/``shutdown``/
``metrics_snapshot``/``trace``/context manager) and drives the same
:class:`~repro.serve.lifecycle.RequestLifecycle`, but its *executor* is
N worker processes instead of in-process thread shards, each hosting one
:class:`~repro.runtime.session.CinnamonSession` — so compiles and
simulations run on separate interpreters and the GIL stops being the
cluster's throughput ceiling.

Data path of one request::

    submit() --admit (the one fingerprint)--> trust checks --> AdmissionQueue
        --loop--> RouterCore: HashRing.owner(fingerprint) --> worker socket
        --worker session, cached under the header's key--> result frame
        --> reader --> inbox --loop--> RouterCore: ok/fail/timeout, or failover

Every decision is :class:`~repro.cluster.core.RouterCore`'s; this
module is its IO shell, and its threads only move bytes.  The accept
thread checks each hello's token and protocol, and one reader per
worker posts every frame it receives, then its EOF or first bad frame,
to an inbox.  One loop thread hands the inbox to the core an event at a
time and carries out the actions it returns; the heartbeat is the
loop's tick.  See docs/cluster.md.
"""

from __future__ import annotations

import os
import secrets
import socket
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from queue import Empty, SimpleQueue
from typing import Dict, List, Optional

from ..obs.metrics import render_snapshot_prometheus
from ..obs.tracing import tracer
from ..serve.lifecycle import ServingFrontend
from ..serve.request import InferenceRequest, RequestHandle
from ..trust.errors import FreshnessError, KeyVaultError
from ..trust.freshness import EnvelopeMinter, ReplayGuard
from .core import (SHUTDOWN_GRACE_S, Absorb, Close, Journal, Kill,
                   RouterCore, Send, Spawn, Wake)
from .merge import merge_snapshots
from .protocol import (ConnectionClosed, FrameTimeout, PROTOCOL_VERSION,
                       ProtocolError, TOKEN_ENV, pack_keys, pack_submit,
                       recv_frame, send_frame)


class ClusterRouter(ServingFrontend):
    """Multi-process scale-out serving front-end (see module docstring).
    ``cache_dir`` is the shared on-disk compile cache every worker
    mounts — by default a temporary directory as long-lived as the
    router."""

    def __init__(self, num_workers: int = 2, queue_depth: int = 256,
                 max_retries: int = 2,
                 request_timeout_s: Optional[float] = None,
                 default_machine=None, cache_dir=None,
                 capacity: Optional[int] = None,
                 disk_cache: bool = True, heartbeat_s: float = 0.5,
                 liveness_timeout_s: float = 15.0,
                 spawn_workers: bool = True,
                 keyvault=None,
                 chaos_chip_crash: int = 0, chaos_cycle: int = 2000):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        super().__init__(queue_depth, default_machine, request_timeout_s)
        self.max_retries = max_retries
        self.capacity = capacity
        self.heartbeat_s = heartbeat_s
        self.liveness_timeout_s = liveness_timeout_s

        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if cache_dir is None and disk_cache:
            self._tmpdir = tempfile.TemporaryDirectory(
                prefix="cinnamon-cluster-")
            cache_dir = self._tmpdir.name
        # None = workers run memory-only sessions (bench isolation mode).
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None

        self._core = RouterCore(
            self.lifecycle, target=num_workers, max_retries=max_retries,
            liveness_timeout_s=liveness_timeout_s, spawn=spawn_workers)
        self._token = secrets.token_hex(16)
        self._inbox: SimpleQueue = SimpleQueue()
        self._socks: Dict[str, socket.socket] = {}
        self._procs: Dict[str, subprocess.Popen] = {}

        # Trust layer (repro.trust): key lifecycle, client replay window.
        self.keyvault = keyvault
        if keyvault is not None and keyvault.on_event is None:
            keyvault.on_event = self._on_key_event
        self._replay_guard = ReplayGuard()
        self._minter = EnvelopeMinter(sender="router")
        self.chaos_chip_crash = chaos_chip_crash
        self.chaos_cycle = chaos_cycle

        self._stopping = False
        self._listener: Optional[socket.socket] = None
        self._port: Optional[int] = None
        self._loop: Optional[threading.Thread] = None
        self._cluster_span = None

        self._trust_rejected_total = {
            reason: self.metrics.counter(
                "cluster_trust_rejections_total",
                "Submits rejected by the trust layer.",
                labels={"reason": reason})
            for reason in ("replay", "stale-request", "stale-key")
        }

    # ------------------------------------------------------------------ #
    # Start / stop

    def start(self) -> "ClusterRouter":
        if self._started:
            return self
        self._started = True
        tr = tracer()
        if tr.enabled:
            # Cluster rows recorded under it carry a trace_id (check()).
            self._cluster_span = tr.begin(
                "cluster", kind="cluster",
                attrs={"target_workers": self._core.target})
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(64)
        self._port = self._listener.getsockname()[1]
        threading.Thread(target=self._accept_loop, name="cluster-accept",
                         daemon=True).start()
        # The first tick spawns the fleet, here so a failed spawn raises.
        self._act(self._core.tick(time.monotonic()))
        self._loop = threading.Thread(target=self._run_loop,
                                      name="cluster-loop", daemon=True)
        self._loop.start()
        return self

    def wait_ready(self, count: Optional[int] = None,
                   timeout: float = 30.0) -> bool:
        """Block until ``count`` (default: the target) workers are
        connected, so throughput timing starts with the fleet up."""
        want = count if count is not None else self._core.target
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if len(self._core.live) >= want:
                return True
            time.sleep(0.02)
        return False

    def submit(self, request: InferenceRequest) -> RequestHandle:
        handle = super().submit(request)
        self._inbox.put((self._feed,))
        return handle

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        if self._stopping:
            return
        drain = drain and self._started
        if drain:
            self.drain(timeout)
        else:
            self._queue.close()
        self._stopping = True

        def stop():
            queued = [self._queue.get(timeout=0)
                      for _ in range(self._queue.depth())]
            self._act(self._core.shutdown(drain, time.monotonic(), queued))

        self._in_loop(stop)
        if self._loop is not None:
            self._loop.join(SHUTDOWN_GRACE_S + 5)
        if self._listener is not None:
            self._listener.close()
        for proc in self._procs.values():
            proc.kill()          # the core has let every worker go
            proc.wait(timeout=5)
        if self._cluster_span is not None:
            self._cluster_span.finish()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def _check_admission(self, request: InferenceRequest) -> None:
        """Trust admission: key-version staleness, then replay/freshness."""
        if self.keyvault is not None:
            try:
                self.keyvault.validate(request.tenant, request.key_version)
            except KeyVaultError as exc:
                self._trust_rejected_total["stale-key"].inc()
                self._record_trust(
                    "stale_key", target=request.tenant, request=request,
                    detail={"key_version": request.key_version,
                            "error": str(exc)})
                raise
        if request.envelope is not None:
            try:
                self._replay_guard.check(request.envelope)
            except FreshnessError as exc:
                reason = getattr(exc, "reason", "stale-request")
                replay = reason in ("nonce-reuse", "sequence-reorder")
                self._trust_rejected_total[
                    "replay" if replay else "stale-request"].inc()
                self._record_trust(
                    "replay_rejected" if replay else "stale_request",
                    target=request.tenant, request=request,
                    detail={"reason": reason,
                            "nonce": getattr(exc, "nonce", ""),
                            "name": request.label})
                raise

    # ------------------------------------------------------------------ #
    # The loop: one thread owns the core

    def _run_loop(self) -> None:
        """Until the core has shut down: run each inbox event ``(fn,
        *args)`` as ``fn(*args, now)`` and every ``heartbeat_s`` a tick,
        and carry out the actions they return."""
        next_tick = time.monotonic() + self.heartbeat_s
        while not self._core.finished:
            try:
                event = self._inbox.get(
                    timeout=max(0.0, next_tick - time.monotonic()))
            except Empty:
                event = None
            now = time.monotonic()
            try:
                if event is not None:
                    fn, *args = event
                    self._act(fn(*args, now) or ())
                if now >= next_tick:
                    next_tick = now + self.heartbeat_s
                    exited = [worker_id for worker_id, proc
                              in self._procs.items()
                              if proc.poll() is not None]
                    for worker_id in exited:
                        del self._procs[worker_id]     # reaped by poll()
                    self._act(self._core.tick(now, exited))
                self._act(self._feed(now))
            except Exception:
                # The loop is the router: report the fault, keep serving.
                traceback.print_exc()

    def _in_loop(self, fn, timeout: float = 10.0):
        """Run ``fn()`` on the loop thread (here, if it is not running)
        and return its value."""
        if self._loop is None or not self._loop.is_alive():
            return fn()
        reply: SimpleQueue = SimpleQueue()
        self._inbox.put((lambda now: reply.put(fn()),))
        try:
            return reply.get(timeout=timeout)
        except Empty:
            return None

    def _feed(self, now: float) -> list:
        """Hand admitted requests to the core while it can dispatch them;
        until then they wait in the bounded admission queue."""
        out: list = []
        while self._core.accepting and self._queue.depth():
            out += self._core.submit(self._queue.get(timeout=0), now)
            self.lifecycle.queue_depth.set(self._queue.depth())
        return out

    def _act(self, actions) -> None:
        for action in actions:
            kind = type(action)
            if kind is Send:
                self._send(action.worker, action.header, action.request)
            elif kind is Journal:
                with tracer().use_span(self._cluster_span):
                    self._recorder.record(
                        "cluster", event=action.event, worker=action.worker,
                        detail=action.detail)
            elif kind is Absorb:
                self._recorder.absorb(action.rows, worker=action.worker)
            elif kind is Close:
                sock = self._socks.pop(action.worker, None)
                if sock is not None:
                    try:
                        # Wakes the reader blocked in recv on it.
                        sock.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass
                    sock.close()
            elif kind is Kill:
                proc = self._procs.get(action.worker)
                if proc is not None:
                    proc.kill()
            elif kind is Spawn:
                self._spawn_worker(action.worker)
            elif kind is Wake:
                action.token.set()

    def _send(self, worker_id: str, header: dict,
              request: Optional[InferenceRequest] = None,
              blob: bytes = b"") -> bool:
        """One frame to ``worker_id`` (if not closed yet); a failed write
        loses the worker.  Every submit gets a fresh envelope, so the
        worker's replay guard passes a failover re-dispatch."""
        sock = self._socks.get(worker_id)
        if sock is None:
            return False
        if request is not None:
            header, blob = pack_submit(
                request, request.options, request.key,
                trace_id=request.span.trace_id,
                parent_span_id=request.span.span_id,
                envelope=self._minter.mint(),
                key_version=request.key_version)
        try:
            send_frame(sock, header, blob, token=self._token)
        except OSError:
            self._act(self._core.worker_lost(worker_id, time.monotonic()))
            return False
        return True

    # ------------------------------------------------------------------ #
    # IO threads: they post events, they decide nothing

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return
            # A ping right after a submit is two writes back to back:
            # neither may wait on the worker's delayed ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(5)
            try:
                header, _blob = recv_frame(sock, token=self._token)
            except (ConnectionClosed, ProtocolError, OSError):
                sock.close()
                continue
            if header.get("kind") != "hello" \
                    or header.get("token") != self._token \
                    or header.get("protocol") != PROTOCOL_VERSION:
                sock.close()
                continue
            self._inbox.put((self._on_hello, str(header.get("worker_id")),
                             sock, header.get("pid")))

    def _read(self, worker_id: str, sock: socket.socket) -> None:
        while True:
            try:
                header, blob = recv_frame(sock, token=self._token)
            except FrameTimeout:
                continue     # silence is the liveness check's call
            except (ConnectionClosed, ProtocolError, OSError):
                self._inbox.put((self._core.worker_lost, worker_id))
                return
            self._inbox.put((self._core.frame, worker_id, header, blob))

    def _on_hello(self, worker_id: str, sock: socket.socket, pid,
                  now: float) -> list:
        actions = self._core.worker_up(worker_id, pid, now)
        if actions is None:
            sock.close()
            return []
        # Bounded writes: a worker that stops reading stalls the loop no
        # longer than the liveness timeout.
        sock.settimeout(self.liveness_timeout_s)
        self._socks[worker_id] = sock
        threading.Thread(target=self._read, args=(worker_id, sock),
                         name=f"cluster-read-{worker_id}",
                         daemon=True).start()
        # The vault goes first: the worker checks key versions against it.
        self._replicate_keys([worker_id])
        return actions

    def _spawn_worker(self, worker_id: str) -> None:
        argv = [sys.executable, "-m", "repro.cluster.worker",
                "--connect", str(self._port),
                "--worker-id", worker_id]
        if self.cache_dir is not None:
            argv += ["--cache-dir", str(self.cache_dir)]
        if self.capacity is not None:
            argv += ["--capacity", str(self.capacity)]
        if tracer().enabled:
            argv += ["--obs"]
        if self.chaos_chip_crash > 0:
            # Every worker carries the budget (hash routing may put the
            # whole mix on one); a worker refunds faults that don't land.
            argv += ["--chaos-chip-crash", str(self.chaos_chip_crash),
                     "--chaos-cycle", str(self.chaos_cycle)]
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH",
                                                            "")
        env[TOKEN_ENV] = self._token
        self._procs[worker_id] = subprocess.Popen(argv, env=env)

    def _record_trust(self, event: str, target: str = "",
                      request: Optional[InferenceRequest] = None,
                      detail: Optional[dict] = None) -> None:
        """Journal one trust decision under the request's span (so the
        rejection joins its trace) or the long-lived cluster span."""
        span = getattr(request, "span", None) or self._cluster_span
        with tracer().use_span(span):
            self._recorder.record("trust", event=event, target=target,
                                  detail=detail)

    def _on_key_event(self, event: str, record) -> None:
        """KeyVault rotation/revocation hook: journal it and have the loop
        push the refreshed signed key manifest to every live worker."""
        self._record_trust(
            "key_rotation" if event == "rotation" else "key_revocation",
            target=record.tenant,
            detail={"version": record.version, "key_id": record.key_id})
        self._inbox.put((lambda now: self._replicate_keys(self._core.live),))

    def _replicate_keys(self, worker_ids) -> None:
        """Ship the vault's signed key manifest to ``worker_ids``."""
        if self.keyvault is None:
            return
        doc = self.keyvault.manifest()
        blob = pack_keys(doc)
        shipped = sum(self._send(worker_id, {"kind": "keys"}, blob=blob)
                      for worker_id in worker_ids)
        if shipped:
            self._record_trust(
                "keys_replicated", target="cluster",
                detail={"workers": shipped,
                        "records": len(doc.get("records", ()))})

    # ------------------------------------------------------------------ #
    # Introspection (CinnamonServer-compatible surface)

    @property
    def num_workers(self) -> int:
        return len(self._core.live)

    def worker_ids(self) -> List[str]:
        return list(self._core.live)

    def _ping_round(self, wait_s: float = 2.0) -> None:
        """Wait until every live worker has answered a ping sent after
        this call began (or died), or ``wait_s`` passed."""
        if self._stopping or self._loop is None:
            return
        done = threading.Event()
        self._inbox.put((lambda now: self._core.ping(done),))
        done.wait(wait_s)

    def cache_stats(self) -> dict:
        """Summed compile-cache counters across worker processes."""
        self._ping_round()
        return self._cache_totals()

    def _cache_totals(self) -> dict:
        totals: Dict[str, int] = dict(self._core.retired_cache)
        for worker in list(self._core.workers.values()):
            for field, value in worker.cache.items():
                totals[field] = totals.get(field, 0) + value
        return totals

    def metrics_snapshot(self) -> dict:
        """The router's own registry merged with every worker's last
        reported snapshot (:func:`~repro.cluster.merge.merge_snapshots`),
        retired workers' included."""
        self._ping_round()
        worker_snaps = [worker.snapshot
                        for worker in list(self._core.workers.values())
                        if worker.snapshot]
        return merge_snapshots([self.metrics.snapshot(),
                                self._core.retired_snapshot] + worker_snaps)

    def trace(self) -> dict:
        """The merged journal: router-side serve/cluster rows plus every
        absorbed worker row (compile/simulate), trace_ids intact."""
        self._ping_round()
        return self._recorder.document(self._cache_totals())

    def metrics_prometheus(self) -> str:
        """Prometheus text exposition of :meth:`metrics_snapshot`."""
        return render_snapshot_prometheus(self.metrics_snapshot())

    # ------------------------------------------------------------------ #
    # Chaos hooks (tests / loadgen --chaos-kill-worker)

    def kill_worker(self, worker_id: Optional[str] = None) -> Optional[str]:
        """SIGKILL one live worker (default: the one with the most
        in-flight requests — the most disruptive choice).  Returns the
        killed worker's id, or ``None`` if none are live."""
        if self._stopping:
            return None

        def kill():
            actions = self._core.kill(worker_id)
            self._act(actions)
            return actions[0].worker if actions else None

        return self._in_loop(kill)
