"""The encrypted-inference server: queue + batcher + shard pool.

Data path of one request::

    submit() --admit--> AdmissionQueue --dispatcher--> AdaptiveBatcher
        --batch--> shard (hash(fingerprint) % num_workers)
        --ShardExecutor.execute--> ok/fail/timeout --> RequestHandle

Admission, deadlines, billing, journal rows and handle resolution are
the shared :class:`~repro.serve.lifecycle.RequestLifecycle`; retries,
fault injection and the degrade ladder are the shared
:class:`~repro.serve.executor.ShardExecutor`.  What is left here:

* **Shards.** Each of ``num_workers`` shards is one single-thread pool
  feeding one executor (one :class:`CinnamonSession`) — the in-process
  model of one serving replica.  Batches route by fingerprint hash, so
  repeats of a program land on the shard that already holds its
  artifact; intra-batch parallelism comes from ``run_batch``'s own pool.
  Each executor outcome is mapped onto ``lifecycle.ok/fail/timeout``.
* **Backpressure.** ``submit`` never blocks: a saturated admission queue
  raises :class:`QueueSaturatedError` at the call site and the rejection
  is counted and traced.  ``shutdown(drain=True)`` stops admission but
  finishes everything already accepted.
* **Observability.** Every hop updates the
  :class:`~repro.obs.metrics.MetricsRegistry`; the server journal plus
  every shard session's journal merge in :meth:`CinnamonServer.trace`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence

from ..runtime.session import CinnamonSession
from .batcher import AdaptiveBatcher, Batch
from .executor import ShardExecutor
from .faults import FaultInjector
from .lifecycle import IDLE_POLL_S, ServingFrontend
from .queue import Empty, QueueSaturatedError
from .request import InferenceRequest, RequestResult, RequestStatus

#: Buckets for the batch-size histogram (requests per dispatched batch).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


class _Shard:
    """One serving replica: a single-thread pool plus its executor."""

    def __init__(self, shard_id: int, executor: ShardExecutor):
        self.id = shard_id
        self.executor = executor
        self.pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"cinnamon-shard-{shard_id}")


class CinnamonServer(ServingFrontend):
    """Serve encrypted-inference requests over a pool of session shards.

    Parameters mirror the knobs of a real inference frontend:
    ``queue_depth`` bounds admission (``0`` = unbounded), ``max_batch`` /
    ``max_wait_s`` tune the adaptive batcher, ``max_retries`` /
    ``retry_backoff_s`` shape the retry policy, and
    ``request_timeout_s`` is the default deadline for requests that do
    not carry one.  ``session_factory(shard_id)`` customizes shard
    construction (tests inject small caches; by default shards share one
    on-disk ``cache_dir`` so a restarted shard re-warms from disk).
    """

    def __init__(self, num_workers: int = 2, queue_depth: int = 64,
                 max_batch: int = 8, max_wait_s: float = 0.005,
                 max_retries: int = 2, retry_backoff_s: float = 0.05,
                 request_timeout_s: Optional[float] = None,
                 default_machine=None, faults: FaultInjector = None,
                 cache_dir=None, capacity: Optional[int] = None,
                 session_factory: Optional[Callable[[int], CinnamonSession]]
                 = None,
                 seed: int = 0, max_recoveries: int = 2,
                 watchdog_s: Optional[float] = None,
                 slos: Sequence = (), flight_dir=None,
                 live_status_path=None,
                 slo_window_scale: float = 1.0,
                 slo_min_events: int = 10,
                 slo_cooldown_s: float = 60.0):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        super().__init__(queue_depth, default_machine, request_timeout_s)
        self.num_workers = num_workers
        #: Shared shard cache directory (None = memory-only shards);
        #: exposed so chaos tooling can aim tamper attacks at the disk
        #: layer (repro.trust).
        self.cache_dir = cache_dir
        session_factory = session_factory or (
            lambda shard_id: CinnamonSession(cache_dir=cache_dir,
                                             capacity=capacity))
        self._shards = [
            _Shard(i, ShardExecutor(
                lambda i=i: session_factory(i), self.metrics,
                recorder=self._recorder, faults=faults, shard=i,
                max_retries=max_retries, retry_backoff_s=retry_backoff_s,
                max_recoveries=max_recoveries,
                watchdog_s=watchdog_s, seed=seed))
            for i in range(num_workers)]
        self._batcher = AdaptiveBatcher(max_batch=max_batch,
                                        max_wait_s=max_wait_s)
        self._stopped = False
        self._dispatcher: Optional[threading.Thread] = None

        m = self.metrics
        self._batches_total = m.counter(
            "serve_batches_total", "Batches dispatched to shards.")
        m.gauge("serve_shards", "Session shards in the pool.").set(num_workers)
        self._batch_size_h = m.histogram(
            "serve_batch_size", "Requests per dispatched batch.",
            buckets=BATCH_SIZE_BUCKETS)

        # Live telemetry (repro.obs.live): a background tick thread
        # evaluates SLO burn rates against this registry, rings the
        # flight recorder, and rewrites the status document.
        self.live = None
        if slos or flight_dir is not None or live_status_path is not None:
            from ..obs.live import LivePipeline

            self.live = LivePipeline(
                slos=slos, flight_dir=flight_dir, process="server",
                recorder=self._recorder, registry=self.metrics,
                window_scale=slo_window_scale,
                cooldown_s=slo_cooldown_s, min_events=slo_min_events,
                status_path=live_status_path,
                snapshot_fn=self.metrics_snapshot)

    # ------------------------------------------------------------------ #
    # Start / stop

    def start(self) -> "CinnamonServer":
        if self._started:
            return self
        self._started = True
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="cinnamon-dispatcher",
            daemon=True)
        self._dispatcher.start()
        if self.live is not None:
            self.live.start()
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
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=10)
        for shard in self._shards:
            shard.pool.shutdown(wait=drain)
        if self.live is not None:
            self.live.stop(final_tick=True)

    # ------------------------------------------------------------------ #
    # Dispatcher

    def _dispatch_loop(self) -> None:
        while True:
            now = time.monotonic()
            wait = self._batcher.next_deadline(now)
            if wait is None:
                wait = IDLE_POLL_S
            drained = False
            try:
                request = self._queue.get(timeout=wait)
            except Empty:
                drained = self._queue.closed and self._queue.depth() == 0
            else:
                self._admit_to_batcher(request)
                # Opportunistically pull everything already waiting so a
                # burst coalesces in one pass.
                while True:
                    try:
                        request = self._queue.get(timeout=0)
                    except Empty:
                        break
                    self._admit_to_batcher(request)
            self.lifecycle.queue_depth.set(self._queue.depth())
            for batch in self._batcher.ready(time.monotonic(),
                                             force=drained):
                self._dispatch(batch)
            if drained and self._batcher.pending() == 0:
                return

    def _admit_to_batcher(self, request: InferenceRequest) -> None:
        now = time.monotonic()
        if request.expired(now):
            self.lifecycle.timeout(request, now)
            return
        full = self._batcher.add(request, now)
        if full is not None:
            self._dispatch(full)

    def _dispatch(self, batch: Batch) -> None:
        shard = self._shards[int(batch.fingerprint, 16) % self.num_workers]
        self._batches_total.inc()
        self._batch_size_h.observe(len(batch))
        self.lifecycle.dispatched(batch.requests, time.monotonic())
        shard.pool.submit(self._run_batch, shard, batch)

    def _run_batch(self, shard: _Shard, batch: Batch) -> None:
        """Shard-thread body: execute, hand each result to the lifecycle."""
        where = {"shard": shard.id, "batch_size": len(batch)}
        try:
            results = shard.executor.execute(batch.requests)
        except BaseException:  # pragma: no cover - defensive: never lose
            for request in batch.requests:  # a request to a bug here
                self.lifecycle.fail(request, "internal dispatch error",
                                    **where)
            raise
        retries = max(r.attempts for r in results) - 1
        if retries > 0:
            self.lifecycle.retries_total.inc(retries)
        for request, r in zip(batch.requests, results):
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
    submission order.  ``queue_depth=0`` (unbounded) by default so a
    batch submission is never rejected; pass a bound to exercise
    backpressure.  ``trace_out`` writes the merged trace journal (serve
    + per-shard compile/simulate rows) before the transient server is
    torn down — with :mod:`repro.obs` tracing enabled, that journal is
    what ``python -m repro.obs`` analyzes."""
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
