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

    submit() --admit--> trust checks --> AdmissionQueue
        --dispatcher--> HashRing.owner(fingerprint) --> worker socket
        --worker session--> result frame --> ok/fail/timeout

Design notes:

* **Topology.**  The router binds one loopback listener; workers are
  spawned with ``python -m repro.cluster.worker --connect PORT`` and
  dial *in*, authenticating with a per-cluster random token passed via
  the environment.  One reader thread per worker demultiplexes result/
  journal/pong frames; sends are serialized per socket.
* **Routing.**  Consistent hashing on the compile fingerprint gives
  every program a home worker whose in-memory cache stays warm, and
  :meth:`HashRing.preferred` yields the failover order when that worker
  is gone.  Membership changes remap only ~1/N of the key space.
* **Failover.**  A worker death (EOF on its socket — covers SIGKILL)
  removes it from the ring, requeues its in-flight requests with
  ``force=True`` (bypassing the depth bound and the drain-closed check:
  they were already admitted once), and lets the monitor respawn a
  replacement, so the fleet stays at ``num_workers``.  Requests
  exceeding ``max_retries`` failovers resolve FAILED, as do the orphans
  of a worker lost during shutdown (nothing is left to re-run them).
  Zero requests are ever dropped.
* **Observability.**  The router opens one long-lived ``cluster`` root
  span; membership/failover events become ``kind="cluster"`` journal
  rows under it (trace schema 6).  Each submit ships its request span's
  ``trace_id`` to the worker, whose compile/simulate rows come back
  ahead of each result and are absorbed into the router's journal — one
  merged timeline across processes.
* **Worker state.**  The heartbeat is the only worker->router state
  channel: every ``pong`` (and the final ``drained``) carries the
  worker's metrics snapshot, cache counters and leftover journal rows.
  The monitor's ping keeps that view fresh;
  ``trace()``/``metrics_snapshot()``/``cache_stats()`` wait out one ping
  round of their own for a consistent cut.
"""

from __future__ import annotations

import itertools
import os
import secrets
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from ..obs.metrics import render_snapshot_prometheus
from ..obs.tracing import tracer
from ..serve.lifecycle import ServingFrontend
from ..serve.queue import Empty
from ..serve.request import InferenceRequest
from ..trust.errors import FreshnessError, KeyVaultError
from ..trust.freshness import EnvelopeMinter, ReplayGuard
from .merge import merge_snapshots
from .protocol import (ConnectionClosed, PROTOCOL_VERSION, ProtocolError,
                       TOKEN_ENV, pack_keys, pack_submit, recv_frame,
                       send_frame, unpack_result, unpack_rows, unpack_state)
from .ring import HashRing

#: Poll period of the dispatcher while the admission queue is idle.
IDLE_POLL_S = 0.05


class _Worker:
    """Router-side state of one worker process."""

    def __init__(self, worker_id: str, index: int,
                 proc: subprocess.Popen):
        self.id = worker_id
        self.index = index             # numeric shard id in results
        self.proc = proc
        self.sock: Optional[socket.socket] = None
        self.reader: Optional[threading.Thread] = None
        self.send_lock = threading.Lock()
        self.connected = threading.Event()
        self.drained = threading.Event()
        self.pending: Dict[int, InferenceRequest] = {}
        self.last_pong = time.monotonic()
        self.pong_seq = 0              # newest ping this worker answered
        self.dead = False
        self.snapshot: dict = {}
        self.cache: dict = {}
        self.token = ""                # cluster token: HMAC frame auth

    @property
    def live(self) -> bool:
        return self.connected.is_set() and not self.dead

    def send(self, header: dict, blob: bytes = b"") -> None:
        sock = self.sock
        if sock is None:
            raise OSError("worker not connected")
        with self.send_lock:
            send_frame(sock, header, blob, token=self.token or None)


class ClusterRouter(ServingFrontend):
    """Multi-process scale-out serving front-end (see module docstring).

    ``num_workers`` is the process count the monitor keeps the fleet
    at.  ``cache_dir`` is the shared on-disk compile cache every worker
    mounts — by default a private temporary directory that lives as
    long as the router.
    """

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
        self._spawn_enabled = spawn_workers

        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if cache_dir is None and disk_cache:
            self._tmpdir = tempfile.TemporaryDirectory(
                prefix="cinnamon-cluster-")
            cache_dir = self._tmpdir.name
        # None = workers run memory-only sessions (bench isolation mode).
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None

        self._ring = HashRing()
        self._workers: Dict[str, _Worker] = {}
        self._worker_seq = itertools.count()
        self._lock = threading.RLock()
        self._target = num_workers
        self._token = secrets.token_hex(16)
        self._ping_seq = itertools.count(1)
        self._state_cond = threading.Condition()

        # Trust layer (repro.trust): evaluation-key lifecycle, replay
        # window on client submits, fresh per-dispatch envelopes so a
        # legitimate failover re-dispatch is never itself "a replay".
        self.keyvault = keyvault
        if keyvault is not None and keyvault.on_event is None:
            keyvault.on_event = self._on_key_event
        self._replay_guard = ReplayGuard()
        self._minter = EnvelopeMinter(sender="router")
        # Chaos: every spawned worker arms N chip-crash faults on its
        # executor's FaultInjector.
        self.chaos_chip_crash = chaos_chip_crash
        self.chaos_cycle = chaos_cycle

        self._stopping = False
        self._listener: Optional[socket.socket] = None
        self._port: Optional[int] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._dispatcher: Optional[threading.Thread] = None
        self._monitor: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()
        self._cluster_span = None

        m = self.metrics
        self._workers_g = m.gauge(
            "cluster_workers", "Live (connected, serving) workers.")
        self._deaths_total = m.counter(
            "cluster_worker_deaths_total",
            "Workers lost to crashes/kills (not graceful shutdown).")
        self._requeued_total = m.counter(
            "cluster_requeued_total",
            "Requests re-queued after their worker died.")
        self._trust_rejected_total = {
            reason: m.counter(
                "cluster_trust_rejections_total",
                "Submits rejected by the trust layer.",
                labels={"reason": reason})
            for reason in ("replay", "stale-request", "stale-key")
        }
        self._dispatch_total = m.counter(
            "cluster_dispatches_total", "Submit frames sent to workers.")

    # ------------------------------------------------------------------ #
    # Start / stop

    def start(self) -> "ClusterRouter":
        if self._started:
            return self
        self._started = True
        tr = tracer()
        if tr.enabled:
            # Long-lived root span: membership/failover journal rows
            # recorded under it carry a trace_id (obs check() invariant).
            self._cluster_span = tr.begin(
                "cluster", kind="cluster",
                attrs={"target_workers": self._target})
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(64)
        self._port = self._listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="cluster-accept", daemon=True)
        self._accept_thread.start()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="cluster-dispatch",
            daemon=True)
        self._dispatcher.start()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="cluster-monitor", daemon=True)
        self._monitor.start()
        if self._spawn_enabled:
            for _ in range(self._target):
                self._spawn_worker()
        return self

    def wait_ready(self, count: Optional[int] = None,
                   timeout: float = 30.0) -> bool:
        """Block until ``count`` (default: the target) workers are
        connected; loadgen uses this so throughput timing starts with
        the fleet actually up."""
        want = count if count is not None else self._target
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if len(self._live_workers()) >= want:
                return True
            time.sleep(0.02)
        return False

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        if self._stopping:
            return
        drain = drain and self._started
        if drain:
            self.drain(timeout)
        else:
            self._queue.close()
        # Under the lock _fail_or_retry requeues under: a failover
        # requeue either landed before this line, or will see the flag.
        with self._lock:
            self._stopping = True
        self._monitor_stop.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=10)
        # While no worker is live the dispatcher parks each request and
        # re-queues it, so the queue is final only now that it stopped.
        if drain:
            self._sweep_queue(self.lifecycle.fail,
                              "shut down with the request still queued")
        else:
            self._sweep_queue(self.lifecycle.reject, "shut down")
        if self._monitor is not None:
            self._monitor.join(timeout=5)
        # Graceful worker teardown: drain (collect the final journal),
        # then shutdown; SIGKILL only as a last resort.
        with self._lock:
            workers = list(self._workers.values())
        for worker in workers:
            if worker.dead or worker.sock is None:
                continue
            try:
                worker.send({"kind": "drain"})
            except OSError:
                continue
        for worker in workers:
            if worker.dead or worker.sock is None:
                continue
            worker.drained.wait(timeout=15)
            try:
                worker.send({"kind": "shutdown"})
            except OSError:
                pass
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for worker in workers:
            if worker.proc.poll() is None:
                try:
                    worker.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    worker.proc.kill()
                    worker.proc.wait(timeout=5)
            if not worker.dead:
                self._record_cluster("worker_exit", worker=worker.id,
                                     detail={"pid": worker.proc.pid})
        if self._cluster_span is not None:
            self._cluster_span.finish()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    # ------------------------------------------------------------------ #
    # Admission: trust checks on the shared submit() path

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
    # Dispatch

    def _dispatch_loop(self) -> None:
        while not self._stopping:
            try:
                request = self._queue.get(timeout=IDLE_POLL_S)
            except Empty:
                if self._queue.closed and self.lifecycle.wait_drained(0):
                    return
                continue
            self._dispatch(request)
            self.lifecycle.queue_depth.set(self._queue.depth())

    def _live_workers(self) -> List[_Worker]:
        with self._lock:
            return [w for w in self._workers.values() if w.live]

    def _dispatch(self, request: InferenceRequest) -> None:
        now = time.monotonic()
        if request.expired(now):
            self.lifecycle.timeout(request, now)
            return
        worker = self._pick_worker(request.key)
        if worker is None:
            # No live worker right now (cold start or mid-failover):
            # park briefly and requeue — admission already happened, so
            # force past the depth bound and a drain-closed queue.
            time.sleep(0.02)
            self._queue.put(request, force=True)
            return
        request.attempts += 1
        # A fresh envelope per dispatch attempt: the worker-side replay
        # guard must accept a legitimate failover re-dispatch.
        header, blob = pack_submit(
            request, request.options, request.key,
            trace_id=request.span.trace_id,
            parent_span_id=request.span.span_id,
            envelope=self._minter.mint(),
            key_version=request.key_version)
        with self._lock:
            worker.pending[request.request_id] = request
        self.lifecycle.dispatched([request], now)
        try:
            worker.send(header, blob)
        except OSError:
            # The send never reached a worker: not an execution attempt.
            # Stop routing to this socket now (the reader thread's EOF
            # does the full worker_lost bookkeeping) or the dispatcher
            # would tight-loop the corpse until the EOF lands.
            with self._lock:
                worker.pending.pop(request.request_id, None)
            request.attempts -= 1
            self.lifecycle.requeued(request)
            worker.connected.clear()
            try:
                worker.sock.close()
            except OSError:
                pass
            self._queue.put(request, force=True)
            return
        self._dispatch_total.inc()

    def _pick_worker(self, key: str) -> Optional[_Worker]:
        with self._lock:
            for worker_id in self._ring.preferred(key):
                worker = self._workers.get(worker_id)
                if worker is not None and worker.live:
                    return worker
            # Ring empty (all lost): any connected worker.
            for worker in self._workers.values():
                if worker.live:
                    return worker
        return None

    # ------------------------------------------------------------------ #
    # Worker processes

    def _spawn_worker(self) -> _Worker:
        index = next(self._worker_seq)
        worker_id = f"w{index}"
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
            # Every worker carries the fault budget: hash routing may
            # concentrate the whole mix on one worker, and a budget
            # armed on an idle process would never fire.  Workers
            # refund faults that don't land, so each loaded worker
            # injects at most chaos_chip_crash faults.
            argv += ["--chaos-chip-crash", str(self.chaos_chip_crash),
                     "--chaos-cycle", str(self.chaos_cycle)]
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH",
                                                            "")
        env[TOKEN_ENV] = self._token
        proc = subprocess.Popen(argv, env=env)
        worker = _Worker(worker_id, index, proc)
        worker.token = self._token
        with self._lock:
            self._workers[worker_id] = worker
        return worker

    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return
            # A ping right after a submit is two writes back to back:
            # neither may wait on the worker's delayed ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(5)
            try:
                header, _blob = recv_frame(sock,
                                           token=self._token or None)
            except (ConnectionClosed, ProtocolError, OSError):
                sock.close()
                continue
            if header.get("kind") != "hello" \
                    or header.get("token") != self._token \
                    or header.get("protocol") != PROTOCOL_VERSION:
                sock.close()
                continue
            worker_id = str(header.get("worker_id"))
            with self._lock:
                worker = self._workers.get(worker_id)
            if worker is None or worker.connected.is_set() or worker.dead:
                # Unknown id, duplicate hello, or a reconnect attempt
                # from a worker the router already failed over (its
                # replacement is spawning): refuse, the process exits
                # cleanly once its reconnect budget drains.
                sock.close()
                continue
            sock.settimeout(None)
            worker.sock = sock
            worker.last_pong = time.monotonic()
            worker.connected.set()
            with self._lock:
                self._ring.add(worker_id)
            self._workers_g.set(len(self._live_workers()))
            self._record_cluster(
                "worker_spawned", worker=worker_id,
                detail={"pid": header.get("pid"),
                        "ring_size": len(self._ring)})
            # Hello-time key replication: the worker validates key
            # versions against the same vault view as the router.
            self._replicate_keys([worker])
            worker.reader = threading.Thread(
                target=self._reader_loop, args=(worker,),
                name=f"cluster-read-{worker_id}", daemon=True)
            worker.reader.start()

    def _reader_loop(self, worker: _Worker) -> None:
        while True:
            try:
                header, blob = recv_frame(worker.sock,
                                          token=self._token or None)
            except (ConnectionClosed, ProtocolError, OSError):
                break
            kind = header.get("kind")
            if kind == "result":
                self._on_result(worker, header, blob)
            elif kind == "journal":
                try:
                    rows = unpack_rows(blob)
                except ProtocolError:
                    continue    # malformed rows: drop the frame
                self._recorder.absorb(rows, worker=worker.id)
            elif kind in ("pong", "drained"):
                try:
                    self._on_state(worker, header, unpack_state(blob))
                except ProtocolError:
                    # Malformed state: drop the frame, keep reading.  A
                    # worker that only ever sends such frames stops
                    # counting as alive and the monitor replaces it.
                    pass
        self._on_worker_lost(worker)

    def _on_state(self, worker: _Worker, header: dict,
                  state: dict) -> None:
        """Absorb one worker state (``pong`` or ``drained``)."""
        worker.last_pong = time.monotonic()
        if state["journal"]:
            self._recorder.absorb(state["journal"], worker=worker.id)
        worker.snapshot = state["snapshot"]
        worker.cache = state["cache"]
        if header["kind"] == "drained":
            worker.drained.set()
        seq = header.get("seq")
        with self._state_cond:
            if isinstance(seq, int):
                worker.pong_seq = max(worker.pong_seq, seq)
            self._state_cond.notify_all()

    def _on_result(self, worker: _Worker, header: dict,
                   blob: bytes) -> None:
        request_id = header.get("request_id")
        with self._lock:
            request = worker.pending.pop(request_id, None)
        if request is None:
            return  # already resolved (e.g. raced with a timeout)
        try:
            result = unpack_result(header, blob)
        except Exception as exc:
            self._fail_or_retry(request, f"undecodable result: {exc}")
            return
        now = time.monotonic()
        if header.get("retryable") and not result.ok:
            # Worker refused (draining at shutdown): not a real failure.
            self._fail_or_retry(request, result.error or "worker refused")
            return
        if request.expired(now):
            self.lifecycle.timeout(request, now, shard=worker.index)
            return
        outcome = dict(
            started=request.dispatched_at,
            execute_s=result.latency.execute_s, shard=worker.index,
            batch_size=result.batch_size, cache=result.cache,
            cycles=result.cycles, cost=result.cost)
        if result.ok:
            self.lifecycle.ok(request, now, **outcome)
        else:
            self.lifecycle.fail(request, result.error, now, **outcome)

    def _fail_or_retry(self, request: InferenceRequest,
                       error: str) -> None:
        # Check-then-requeue is one step against shutdown() setting
        # _stopping: its queue sweep must see every requeue that passed
        # the check, or the request is stranded in a queue nobody reads.
        with self._lock:
            if request.attempts <= self.max_retries and not self._stopping:
                self.lifecycle.retries_total.inc()
                self.lifecycle.requeued(request)
                self._queue.put(request, force=True)
                return
        # Out of retries — or the dispatcher has exited, so a requeue
        # would hang the handle instead of re-running it.
        self.lifecycle.fail(request, error)

    def _on_worker_lost(self, worker: _Worker) -> None:
        with self._lock:
            if worker.dead:
                return
            worker.dead = True
            self._ring.remove(worker.id)
            orphans = list(worker.pending.values())
            worker.pending.clear()
        worker.drained.set()
        with self._state_cond:
            self._state_cond.notify_all()
        self._workers_g.set(len(self._live_workers()))
        if self._stopping:
            self._record_cluster("worker_exit", worker=worker.id,
                                 detail={"pid": worker.proc.pid})
        else:
            self._deaths_total.inc()
            self._record_cluster(
                "worker_lost", worker=worker.id,
                detail={"pid": worker.proc.pid,
                        "orphaned_requests": len(orphans),
                        "ring_size": len(self._ring)})
        # Zero-loss failover: everything in flight on the lost worker —
        # also one that died while being shut down — goes
        # back through the dispatcher to the ring's survivors, or
        # resolves FAILED once the dispatcher has stopped.
        for request in orphans:
            self._requeued_total.inc()
            self._record_cluster(
                "requeued", worker=worker.id,
                detail={"request_id": request.request_id,
                        "name": request.label})
            self._fail_or_retry(request,
                                f"worker {worker.id} died mid-request")

    # ------------------------------------------------------------------ #
    # Monitor: heartbeats (= state refresh), respawn

    def _monitor_loop(self) -> None:
        while not self._monitor_stop.wait(self.heartbeat_s):
            now = time.monotonic()
            for worker in self._ping():
                if now - worker.last_pong > self.liveness_timeout_s:
                    # Hung worker: kill it; the reader's EOF path does
                    # the failover bookkeeping.
                    worker.proc.kill()
            self._reap_and_respawn()

    def _reap_and_respawn(self) -> None:
        if self._stopping or not self._spawn_enabled:
            return
        with self._lock:
            live_or_starting = [
                w for w in self._workers.values()
                if not w.dead and w.proc.poll() is None
            ]
            deficit = self._target - len(live_or_starting)
        for _ in range(max(0, deficit)):
            self._spawn_worker()

    def _ping(self, wait_s: float = 0.0) -> List[_Worker]:
        """Ping every live worker; each answers with its state.  With
        ``wait_s > 0`` block until every pinged worker has answered
        *this* ping (or died), so the caller reads a cut taken after the
        call began.  Returns the live workers."""
        seq = next(self._ping_seq)
        live = self._live_workers()
        pinged = []
        for worker in live:
            try:
                worker.send({"kind": "ping", "seq": seq})
            except OSError:
                continue
            pinged.append(worker)
        if wait_s > 0:
            with self._state_cond:
                self._state_cond.wait_for(
                    lambda: all(w.dead or w.pong_seq >= seq
                                for w in pinged), wait_s)
        return live

    # ------------------------------------------------------------------ #
    # Journal rows and key replication

    def _record_cluster(self, event: str, worker: Optional[str] = None,
                        detail: Optional[dict] = None) -> None:
        with tracer().use_span(self._cluster_span):
            self._recorder.record("cluster", event=event, worker=worker,
                                  detail=detail)

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
        """KeyVault rotation/revocation hook: journal it and push the
        refreshed signed key manifest to every live worker."""
        self._record_trust(
            "key_rotation" if event == "rotation" else "key_revocation",
            target=record.tenant,
            detail={"version": record.version, "key_id": record.key_id})
        self._replicate_keys(self._live_workers())

    def _replicate_keys(self, workers) -> int:
        """Ship the vault's signed key manifest to ``workers``."""
        if self.keyvault is None:
            return 0
        doc = self.keyvault.manifest()
        blob = pack_keys(doc)
        shipped = 0
        for worker in workers:
            try:
                worker.send({"kind": "keys"}, blob)
                shipped += 1
            except OSError:
                continue
        if shipped:
            self._record_trust(
                "keys_replicated", target="cluster",
                detail={"workers": shipped,
                        "records": len(doc.get("records", ()))})
        return shipped

    # ------------------------------------------------------------------ #
    # Introspection (CinnamonServer-compatible surface)

    @property
    def num_workers(self) -> int:
        return len(self._live_workers())

    def worker_ids(self) -> List[str]:
        return [w.id for w in self._live_workers()]

    def cache_stats(self) -> dict:
        """Summed compile-cache counters across worker processes."""
        if not self._stopping:
            self._ping(wait_s=2.0)
        return self._cache_totals()

    def _cache_totals(self) -> dict:
        totals: Dict[str, int] = {}
        with self._lock:
            caches = [dict(w.cache) for w in self._workers.values()]
        for cache in caches:
            for field, value in cache.items():
                totals[field] = totals.get(field, 0) + value
        return totals

    def metrics_snapshot(self) -> dict:
        """Merged cluster snapshot: the router's own registry plus every
        worker's last-reported snapshot (counters/gauges summed,
        histograms count-weight merged)."""
        if not self._stopping:
            self._ping(wait_s=2.0)
        with self._lock:
            worker_snaps = [dict(w.snapshot)
                            for w in self._workers.values() if w.snapshot]
        return merge_snapshots([self.metrics.snapshot()] + worker_snaps)

    def trace(self) -> dict:
        """The merged journal: router-side serve/cluster rows plus every
        absorbed worker row (compile/simulate), trace_ids intact."""
        if not self._stopping:
            self._ping(wait_s=2.0)
        return self._recorder.document(self._cache_totals())

    def metrics_prometheus(self) -> str:
        """Prometheus text exposition of :meth:`metrics_snapshot` (the
        merged cluster view, worker-side families included)."""
        return render_snapshot_prometheus(self.metrics_snapshot())

    # ------------------------------------------------------------------ #
    # Chaos hooks (tests / loadgen --chaos-kill-worker)

    def kill_worker(self, worker_id: Optional[str] = None) -> Optional[str]:
        """SIGKILL one live worker (default: the one with the most
        in-flight requests — the most disruptive choice).  Returns the
        killed worker's id, or ``None`` if none are live."""
        with self._lock:
            live = [w for w in self._workers.values() if w.live]
            if worker_id is not None:
                live = [w for w in live if w.id == worker_id]
            if not live:
                return None
            victim = max(live, key=lambda w: len(w.pending))
        victim.proc.kill()
        return victim.id
