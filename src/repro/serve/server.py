"""The encrypted-inference server: admission queue + shard threads.

Data path of one request::

    submit() --admit--> AdmissionQueue --take--> free shard
        (int(fingerprint, 16) % num_workers, with the same-key requests
        queued behind it, up to max_batch)
        --ShardExecutor.execute--> ok/fail/timeout --> RequestHandle

Admission, deadlines, billing, journal rows and handle resolution are
the shared :class:`~repro.serve.lifecycle.RequestLifecycle`; retries,
fault injection and the degrade ladder are the shared
:class:`~repro.serve.executor.ShardExecutor`.  What is left here:

* **Shards.** Each of ``num_workers`` shards is one thread plus one
  executor (one :class:`CinnamonSession`) — the in-process model of one
  serving replica.  A request belongs to the shard its fingerprint
  hashes to, so repeats of a program land on the shard that already
  holds its artifact.  A free shard takes its next batch straight from
  the admission queue: the same-key backlog that formed while it was
  busy, up to ``max_batch``.  The batch's jobs run in order, so the
  first compiles and the rest hit the cache.  Each
  executor outcome is mapped onto ``lifecycle.ok/fail/timeout``.
* **Backpressure.** ``submit`` never blocks: a saturated admission queue
  raises :class:`QueueSaturatedError` at the call site and the rejection
  is counted and traced.  The queue is the only place a request waits,
  so ``queue_depth`` bounds every request no shard has taken.
  ``shutdown(drain=True)`` stops admission but finishes everything
  already accepted.
* **Observability.** Every hop updates the
  :class:`~repro.obs.metrics.MetricsRegistry`; the server journal plus
  every shard session's journal merge in :meth:`CinnamonServer.trace`.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence

from ..runtime.session import CinnamonSession
from .executor import ShardExecutor
from .faults import FaultInjector
from .lifecycle import ServingFrontend
from .queue import Empty, QueueSaturatedError
from .request import InferenceRequest, RequestResult, RequestStatus

#: Buckets for the batch-size histogram (requests per dispatched batch).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


class _Shard:
    """One serving replica: a thread plus its executor."""

    def __init__(self, shard_id: int, executor: ShardExecutor):
        self.id = shard_id
        self.executor = executor
        self.thread: Optional[threading.Thread] = None


class CinnamonServer(ServingFrontend):
    """Serve encrypted-inference requests over a pool of session shards.

    Parameters mirror the knobs of a real inference frontend:
    ``queue_depth`` bounds admission (``0`` = unbounded), ``max_batch``
    bounds how many same-key requests one shard takes at once,
    ``max_retries`` / ``retry_backoff_s`` shape the retry policy, and
    ``request_timeout_s`` is the default deadline for requests that do
    not carry one.  Each shard owns one :class:`CinnamonSession` with an
    in-memory cache of ``capacity`` artifacts; shards share one on-disk
    ``cache_dir`` when it is set.
    """

    def __init__(self, num_workers: int = 2, queue_depth: int = 64,
                 max_batch: int = 8,
                 max_retries: int = 2, retry_backoff_s: float = 0.05,
                 request_timeout_s: Optional[float] = None,
                 default_machine=None, faults: FaultInjector = None,
                 cache_dir=None, capacity: Optional[int] = None,
                 seed: int = 0, max_recoveries: int = 2,
                 watchdog_s: Optional[float] = None):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        super().__init__(queue_depth, default_machine, request_timeout_s)
        self.num_workers = num_workers
        self.max_batch = max_batch
        #: Shared shard cache directory (None = memory-only shards);
        #: exposed so chaos tooling can aim tamper attacks at the disk
        #: layer (repro.trust).
        self.cache_dir = cache_dir
        self._shards = [
            _Shard(i, ShardExecutor(
                CinnamonSession(cache_dir=cache_dir, capacity=capacity),
                self.metrics,
                recorder=self._recorder, faults=faults, shard=i,
                max_retries=max_retries, retry_backoff_s=retry_backoff_s,
                max_recoveries=max_recoveries,
                watchdog_s=watchdog_s, seed=seed))
            for i in range(num_workers)]
        self._stopped = False

        m = self.metrics
        self._batches_total = m.counter(
            "serve_batches_total", "Batches dispatched to shards.")
        m.gauge("serve_shards", "Session shards in the pool.").set(num_workers)
        self._batch_size_h = m.histogram(
            "serve_batch_size", "Requests per dispatched batch.",
            buckets=BATCH_SIZE_BUCKETS)

    # ------------------------------------------------------------------ #
    # Start / stop

    def start(self) -> "CinnamonServer":
        if self._started:
            return self
        self._started = True
        for shard in self._shards:
            shard.thread = threading.Thread(
                target=self._serve_shard, args=(shard,),
                name=f"cinnamon-shard-{shard.id}", daemon=True)
            shard.thread.start()
        return self

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop the server; with ``drain`` finish accepted work first,
        otherwise resolve still-queued requests as ``REJECTED``."""
        if self._stopped:
            return
        if drain:
            self.drain(timeout)
        else:
            self._queue.close()
            self._sweep_queue(self.lifecycle.reject, "shut down")
        self._stopped = True
        if drain:
            # Closed and empty: each shard exits once its batch is done.
            for shard in self._shards:
                if shard.thread is not None:
                    shard.thread.join(timeout=10)

    # ------------------------------------------------------------------ #
    # Shards

    def _serve_shard(self, shard: _Shard) -> None:
        """Shard-thread body: take the next batch this shard owns, run
        it, repeat until the queue is closed and holds nothing of ours."""
        def owns(request: InferenceRequest) -> bool:
            return int(request.key, 16) % self.num_workers == shard.id

        while True:
            try:
                batch = self._queue.take(owns, self.max_batch)
            except Empty:
                return
            now = time.monotonic()
            self.lifecycle.queue_depth.set(self._queue.depth())
            live = []
            for request in batch:
                if request.expired(now):
                    self.lifecycle.timeout(request, now)
                    continue
                if request.queue_span is not None:
                    request.queue_span.finish()
                live.append(request)
            if live:
                self._batches_total.inc()
                self._batch_size_h.observe(len(live))
                self.lifecycle.dispatched(live, now)
                self._run_batch(shard, live)

    def _run_batch(self, shard: _Shard,
                   batch: List[InferenceRequest]) -> None:
        """Execute one batch, hand each result to the lifecycle."""
        where = {"shard": shard.id, "batch_size": len(batch)}
        try:
            results = shard.executor.execute(batch)
        except Exception as exc:  # pragma: no cover - defensive: never
            for request in batch:  # lose a request, or the shard, to a bug
                self.lifecycle.fail(
                    request, f"internal dispatch error: {exc!r}", **where)
            return
        retries = max(r.attempts for r in results) - 1
        if retries > 0:
            self.lifecycle.retries_total.inc(retries)
        for request, r in zip(batch, results):
            if r.ok:
                self.lifecycle.ok(
                    request, r.done, started=r.started,
                    execute_s=r.latency.execute_s, cache=r.cache,
                    cycles=r.cycles, sim=r.sim, compiled=r.compiled,
                    cost=r.cost, **where)
            elif r.status is RequestStatus.TIMEOUT:
                self.lifecycle.timeout(request, r.done, **where)
            else:
                self.lifecycle.fail(request, r.error, r.done, **where)

    # ------------------------------------------------------------------ #
    # Introspection

    def cache_stats(self) -> dict:
        """Aggregated compile-cache counters across all shards."""
        totals: Dict[str, int] = {}
        for shard in self._shards:
            stats = shard.executor.session.cache_stats
            for field, value in stats.as_dict().items():
                totals[field] = totals.get(field, 0) + value
        return totals

    def _refresh_cache_metrics(self) -> None:
        totals = self.cache_stats()
        hits = totals.get("memory_hits", 0) + totals.get("disk_hits", 0)
        lookups = hits + totals.get("misses", 0)
        self.metrics.gauge(
            "serve_compile_cache_hits", "Cache hits across shards.").set(hits)
        self.metrics.gauge(
            "serve_compile_cache_lookups",
            "Cache lookups across shards.").set(lookups)
        self.metrics.gauge(
            "serve_compile_cache_hit_rate",
            "memory+disk hits / lookups.").set(
            hits / lookups if lookups else 0.0)

    def metrics_snapshot(self) -> dict:
        """JSON-ready snapshot of every metric series (the CI artifact)."""
        self._refresh_cache_metrics()
        return self.metrics.snapshot()

    def metrics_prometheus(self) -> str:
        """Prometheus text exposition of the registry."""
        self._refresh_cache_metrics()
        return self.metrics.render_prometheus()

    def trace(self) -> dict:
        """Merged trace document across the whole server: serve and
        recovery entries from the server recorder *plus* the compile and
        simulate entries of every shard session, with aggregate cache
        stats (the :mod:`repro.runtime.trace` schema).  Rows recorded
        under :mod:`repro.obs` tracing carry ``trace_id``, so one
        request's serve/compile/simulate rows are joinable here."""
        document = self._recorder.document(self.cache_stats())
        for shard in self._shards:
            document["jobs"].extend(
                shard.executor.session.trace()["jobs"])
        return document


# ---------------------------------------------------------------------- #

def serve_requests(requests: Sequence[InferenceRequest],
                   num_workers: int = 2, queue_depth: int = 0,
                   trace_out=None, **server_kwargs) -> List[RequestResult]:
    """One-call facade: serve ``requests`` to completion, results in
    submission order.  ``server_kwargs`` go to :class:`CinnamonServer`
    (``max_batch``, ``capacity``, ``faults``, ...).  ``queue_depth=0``
    (unbounded) by default so a batch submission is never rejected;
    pass a bound to exercise backpressure.  ``trace_out`` writes the
    merged trace journal (serve + per-shard compile/simulate rows)
    before the transient server is torn down — with :mod:`repro.obs`
    tracing enabled, that journal is what ``python -m repro.obs``
    analyzes."""
    server = CinnamonServer(num_workers=num_workers,
                            queue_depth=queue_depth, **server_kwargs)
    with server:
        handles = []
        for request in requests:
            try:
                handles.append(server.submit(request))
            except QueueSaturatedError:
                handles.append(None)
        server.drain()
        results = []
        for request, handle in zip(requests, handles):
            if handle is None:
                results.append(RequestResult(
                    request_id=request.request_id, name=request.label,
                    status=RequestStatus.REJECTED,
                    error="admission queue saturated"))
            else:
                results.append(handle.result(timeout=600))
        if trace_out is not None:
            server.export_trace(trace_out)
    return results
