"""Every decision of the cluster router, as one sans-IO state machine.

:class:`RouterCore` decides dispatch, retry and failover, liveness,
respawn, shutdown, ping rounds and the chaos victim.  Events are method
calls; each returns the IO it implies as a list of actions for
:class:`~repro.cluster.router.ClusterRouter`, its IO shell, to carry
out in order.  The core opens no socket, starts no thread or process
and reads no clock (events that need the time are handed ``now``), so
a test can drive any interleaving as a plain sequence of calls.
Requests resolve through :class:`~repro.serve.lifecycle.RequestLifecycle`,
the one resolver.  Closing admission needs no event: the shell's
admission queue refuses new submits before the core sees them.

An open request is either in the backlog (no live worker) or pending
on exactly one live worker: a dispatch picks the worker and records the
request on it in one call, so no ``worker_lost`` can fall in between.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque, Dict, List, NamedTuple, Optional

from ..serve.lifecycle import RequestLifecycle
from ..serve.request import InferenceRequest
from .merge import merge_snapshots
from .protocol import ProtocolError, unpack_result, unpack_rows, unpack_state
from .ring import HashRing

#: How long a shutdown waits for workers to drain and exit before it
#: drops the stragglers (their in-flight requests then resolve FAILED).
SHUTDOWN_GRACE_S = 15.0

#: A fleet slot whose worker died before its hello waits this long
#: before it starts the next one, doubling with each such death in a
#: row up to RESPAWN_BACKOFF_MAX_S; a hello resets it.  A worker that
#: cannot start (a broken install, a crash at import) then costs a few
#: processes a minute, not one per heartbeat.
RESPAWN_BACKOFF_S = 1.0
RESPAWN_BACKOFF_MAX_S = 30.0

#: Dead workers kept in :attr:`RouterCore.workers`; older ones leave it,
#: their last metrics snapshot and cache counters folded into
#: :attr:`RouterCore.retired_snapshot` / :attr:`RouterCore.retired_cache`.
DEAD_WORKERS_KEPT = 16


class Send(NamedTuple):
    """Write one frame to ``worker``; a ``request`` is a submit the shell
    packs, with a fresh freshness envelope, as the frame."""

    worker: str
    header: dict
    request: Optional[InferenceRequest] = None


# The other actions: start a new worker's process; SIGKILL a worker's
# process (if it has one); close the router's socket to it; journal a
# ``cluster`` row; absorb a worker's journal rows; wake a ping round.
Spawn = NamedTuple("Spawn", [("worker", str)])
Kill = NamedTuple("Kill", [("worker", str)])
Close = NamedTuple("Close", [("worker", str)])
Journal = NamedTuple("Journal", [("event", str), ("worker", Optional[str]),
                                 ("detail", dict)])
Absorb = NamedTuple("Absorb", [("worker", str), ("rows", list)])
Wake = NamedTuple("Wake", [("token", object)])


class WorkerState:
    """One worker: *starting* (no hello yet), then *live* (in the ring),
    then *dead*, never back."""

    def __init__(self, worker_id: str, index: int,
                 slot: Optional["_Slot"] = None):
        self.id = worker_id
        self.index = index             # numeric shard id in results
        self.slot = slot               # the fleet slot it was spawned for
        self.live = False
        self.dead = False
        self.pid: Optional[int] = None
        self.pending: Dict[int, InferenceRequest] = {}
        self.last_pong = 0.0
        self.pong_seq = 0              # newest ping this worker answered
        self.snapshot: dict = {}
        self.cache: dict = {}


class _Slot:
    """One place in the fleet :meth:`RouterCore.tick` keeps filled."""

    def __init__(self):
        self.worker: Optional[str] = None
        self.failures = 0              # deaths before a hello, in a row
        self.not_before = 0.0          # no spawn for it before this time


class RouterCore:
    """The router's decisions (see module docstring).  Not thread-safe:
    one thread owns it.  :attr:`live` is republished as a new tuple on
    every membership change, so other threads may read it."""

    def __init__(self, lifecycle: RequestLifecycle, *, target: int,
                 max_retries: int, liveness_timeout_s: float,
                 spawn: bool = True):
        self.lifecycle = lifecycle
        self.target = target
        self.max_retries = max_retries
        self.liveness_timeout_s = liveness_timeout_s
        self.spawn = spawn
        self.workers: Dict[str, WorkerState] = {}
        self.retired_snapshot: dict = {}
        self.retired_cache: Dict[str, int] = {}
        self._dead: Deque[str] = deque()   # dead ids in workers, oldest first
        self._slots = [_Slot() for _ in range(target)]
        self.backlog: Deque[InferenceRequest] = deque()
        self.live: tuple = ()
        self.stopping = False
        self._ring = HashRing()
        self._index = itertools.count()
        self._ping_seq = itertools.count(1)
        self._waiters: List[tuple] = []    # (seq, worker ids, token)
        self._deadline = 0.0

        m = lifecycle.metrics
        self._workers_g = m.gauge(
            "cluster_workers", "Live (connected, serving) workers.")
        self._deaths_total = m.counter(
            "cluster_worker_deaths_total",
            "Workers lost to crashes/kills (not graceful shutdown).")
        self._requeued_total = m.counter(
            "cluster_requeued_total",
            "Requests re-queued after their worker died.")
        self._dispatch_total = m.counter(
            "cluster_dispatches_total", "Submit frames sent to workers.")

    @property
    def accepting(self) -> bool:
        """A submit now would be dispatched: some worker is live."""
        return bool(self.live) and not self.stopping

    @property
    def finished(self) -> bool:
        """Shut down, and every worker is gone."""
        return self.stopping and all(w.dead for w in self.workers.values())

    def add_worker(self, worker_id: Optional[str] = None,
                   slot: Optional[_Slot] = None) -> WorkerState:
        """Register a starting worker; only registered ids may say hello."""
        index = next(self._index)
        worker = WorkerState(worker_id or f"w{index}", index, slot)
        self.workers[worker.id] = worker
        if slot is not None:
            slot.worker = worker.id
        return worker

    def submit(self, request: InferenceRequest, now: float) -> list:
        """An admitted request reaches the core (never after shutdown)."""
        return self._dispatch(request, now)

    def worker_up(self, worker_id: str, pid, now: float) -> Optional[list]:
        """A hello from ``worker_id``; ``None`` refuses it (unknown id,
        a second hello, or a worker already given up on)."""
        worker = self.workers.get(worker_id)
        if worker is None or worker.live or worker.dead:
            return None
        worker.live = True
        worker.pid = pid
        worker.last_pong = now
        if worker.slot is not None:
            worker.slot.failures = 0
        self._ring.add(worker_id)
        self._publish()
        out: list = [Journal("worker_spawned", worker_id,
                             {"pid": pid, "ring_size": len(self._ring)})]
        backlog, self.backlog = self.backlog, deque()
        for request in backlog:
            out += self._dispatch(request, now)
        return out

    def frame(self, worker_id: str, header: dict, blob: bytes,
              now: float) -> list:
        """One frame from ``worker_id``.  A malformed blob drops that
        frame only; a malformed state is no heartbeat either."""
        worker = self.workers.get(worker_id)
        if worker is None:
            return []      # a late frame from a worker long retired
        kind = header.get("kind")
        if kind == "result":
            return self._on_result(worker, header, blob, now)
        if kind == "journal":
            try:
                return [Absorb(worker_id, unpack_rows(blob))]
            except ProtocolError:
                return []
        if kind not in ("pong", "drained"):
            return []
        try:
            state = unpack_state(blob)
        except ProtocolError:
            return []
        worker.last_pong = now
        worker.snapshot = state["snapshot"]
        worker.cache = state["cache"]
        out: list = ([Absorb(worker_id, state["journal"])]
                     if state["journal"] else [])
        seq = header.get("seq")
        if isinstance(seq, int):
            worker.pong_seq = max(worker.pong_seq, seq)
            out += self._answered()
        if kind == "drained" and not worker.dead:
            out.append(Send(worker_id, {"kind": "shutdown"}))
        return out

    def worker_lost(self, worker_id: str, now: float) -> list:
        """``worker_id`` is gone (EOF, a bad frame, its process exited,
        or the router gave up on it): close its socket, kill its process
        so it cannot linger, and fail over what it held."""
        worker = self.workers.get(worker_id)
        if worker is None or worker.dead:
            return []
        was_live, worker.live, worker.dead = worker.live, False, True
        self._retire(worker)
        if not was_live and worker.slot is not None:
            slot = worker.slot
            slot.failures += 1
            slot.not_before = now + min(
                RESPAWN_BACKOFF_MAX_S,
                RESPAWN_BACKOFF_S * 2 ** (slot.failures - 1))
        out: list = [Close(worker_id), Kill(worker_id)]
        orphans = list(worker.pending.values())
        worker.pending.clear()
        if was_live:
            self._ring.remove(worker_id)
            self._publish()
        if self.stopping:
            out.append(Journal("worker_exit", worker_id,
                               {"pid": worker.pid}))
        elif was_live:
            self._deaths_total.inc()
            out.append(Journal("worker_lost", worker_id, {
                "pid": worker.pid, "orphaned_requests": len(orphans),
                "ring_size": len(self._ring)}))
        for request in orphans:
            self._requeued_total.inc()
            out.append(Journal("requeued", worker_id, {
                "request_id": request.request_id, "name": request.label}))
            out += self._fail_or_retry(
                request, f"worker {worker_id} died mid-request", now)
        return out + self._answered()

    def tick(self, now: float, exited=()) -> list:
        """The heartbeat (``exited``: workers whose process exited): drop
        the silent, ping the live, top the fleet up to its target; once
        shutting down, drop whoever outlived the grace period."""
        out: list = []
        for worker_id in exited:
            # Died before its hello?  (A connected worker's exit shows
            # as EOF, once its last frames are read.)
            worker = self.workers.get(worker_id)
            if worker is not None and not worker.live:
                out += self.worker_lost(worker_id, now)
        if self.stopping:
            if now >= self._deadline:
                for worker_id in list(self.workers):
                    out += self.worker_lost(worker_id, now)
            return out
        for worker_id in self.live:
            if now - self.workers[worker_id].last_pong \
                    > self.liveness_timeout_s:
                out += self.worker_lost(worker_id, now)
        seq = next(self._ping_seq)
        for worker_id in self.live:
            out.append(Send(worker_id, {"kind": "ping", "seq": seq}))
        if self.spawn:
            for slot in self._slots:
                worker = self.workers.get(slot.worker)
                if (worker is None or worker.dead) \
                        and now >= slot.not_before:
                    out.append(Spawn(self.add_worker(slot=slot).id))
        return out

    def ping(self, token) -> list:
        """A ping round: :class:`Wake` ``token`` once every worker live
        now has answered this ping, or died."""
        seq = next(self._ping_seq)
        self._waiters.append((seq, self.live, token))
        return ([Send(worker_id, {"kind": "ping", "seq": seq})
                 for worker_id in self.live] + self._answered())

    def kill(self, worker_id: Optional[str] = None) -> list:
        """Chaos: kill ``worker_id``, or the live worker holding the most
        in-flight requests.  Its EOF then drives the failover."""
        live = [self.workers[w] for w in self.live if worker_id in (None, w)]
        return ([Kill(max(live, key=lambda w: len(w.pending)).id)]
                if live else [])

    def shutdown(self, drain: bool, now: float, queued=()) -> list:
        """Stop dispatching.  What was never dispatched (the backlog and
        the shell's ``queued``) resolves now: FAILED after a drain ran
        out of time, else REJECTED.  Live workers are told to drain, then
        to shut down; :meth:`tick` drops any left after the grace."""
        if self.stopping:
            return []
        self.stopping = True
        self._deadline = now + SHUTDOWN_GRACE_S
        for request in list(self.backlog) + list(queued):
            if drain:
                self.lifecycle.fail(
                    request, "shut down with the request still queued", now)
            else:
                self.lifecycle.reject(request, "shut down")
        self.backlog.clear()
        out: list = []
        for worker in list(self.workers.values()):
            if worker.live:
                out.append(Send(worker.id, {"kind": "drain"}))
            else:
                out += self.worker_lost(worker.id, now)
        return out

    def _dispatch(self, request: InferenceRequest, now: float) -> list:
        if request.expired(now):
            self.lifecycle.timeout(request, now)
            return []
        worker_id = self._ring.owner(request.key)
        if worker_id is None:
            self.backlog.append(request)
            return []
        request.attempts += 1
        self.workers[worker_id].pending[request.request_id] = request
        self.lifecycle.dispatched([request], now)
        self._dispatch_total.inc()
        return [Send(worker_id, {"kind": "submit"}, request)]

    def _on_result(self, worker: WorkerState, header: dict, blob: bytes,
                   now: float) -> list:
        request_id = header.get("request_id")
        request = (worker.pending.pop(request_id, None)
                   if isinstance(request_id, int) else None)
        if request is None:
            return []   # already resolved, or its worker was given up on
        try:
            result = unpack_result(header, blob)
        except Exception as exc:
            return self._fail_or_retry(request,
                                       f"undecodable result: {exc}", now)
        if header.get("retryable") and not result.ok:
            # The worker refused it (draining): not a real failure.
            return self._fail_or_retry(request,
                                       result.error or "worker refused", now)
        if request.expired(now):
            self.lifecycle.timeout(request, now, shard=worker.index)
            return []
        outcome = dict(
            started=request.dispatched_at,
            execute_s=result.latency.execute_s, shard=worker.index,
            batch_size=result.batch_size, cache=result.cache,
            cycles=result.cycles, cost=result.cost)
        if result.ok:
            self.lifecycle.ok(request, now, **outcome)
        else:
            self.lifecycle.fail(request, result.error, now, **outcome)
        return []

    def _fail_or_retry(self, request: InferenceRequest, error: str,
                       now: float) -> list:
        if request.attempts <= self.max_retries and not self.stopping:
            self.lifecycle.retries_total.inc()
            self.lifecycle.requeued(request)
            return self._dispatch(request, now)
        self.lifecycle.fail(request, error, now)
        return []

    def _retire(self, worker: WorkerState) -> None:
        """Keep the newest :data:`DEAD_WORKERS_KEPT` dead workers; fold
        the state of older ones into the retired totals."""
        self._dead.append(worker.id)
        while len(self._dead) > DEAD_WORKERS_KEPT:
            old = self.workers.pop(self._dead.popleft())
            # Replaced, never mutated: other threads read both.
            if old.snapshot:
                self.retired_snapshot = merge_snapshots(
                    [self.retired_snapshot, old.snapshot])
            cache = dict(self.retired_cache)
            for field, value in old.cache.items():
                cache[field] = cache.get(field, 0) + value
            self.retired_cache = cache

    def _answered(self) -> list:
        """Wake every ping round whose workers have all answered or died
        (a worker no longer in :attr:`workers` died long ago)."""
        def settled(worker_id, seq):
            worker = self.workers.get(worker_id)
            return worker is None or worker.dead or worker.pong_seq >= seq

        done = [wait for wait in self._waiters
                if all(settled(w, wait[0]) for w in wait[1])]
        self._waiters = [wait for wait in self._waiters if wait not in done]
        return [Wake(token) for _seq, _ids, token in done]

    def _publish(self) -> None:
        self.live = tuple(self._ring.workers)
        self._workers_g.set(len(self.live))
