"""The encrypted-inference server: shard pool + dispatcher + retries.

Data path of one request::

    submit() --admit--> AdmissionQueue --dispatcher--> AdaptiveBatcher
        --batch--> shard (hash(fingerprint) % num_workers)
        --CinnamonSession.run_batch--> ok/fail/timeout --> RequestHandle

Admission, deadlines, billing, journal rows and handle resolution are
the shared :class:`~repro.serve.lifecycle.RequestLifecycle`; this module
is the thread-shard *executor* behind it.

Design notes:

* **Shards.** Each of ``num_workers`` shards is one single-thread
  executor owning one :class:`CinnamonSession` — the in-process model of
  one serving replica.  Batches route by fingerprint hash, so repeats of
  a program always land on the shard that already holds its artifact
  (cache affinity); intra-batch parallelism comes from ``run_batch``'s
  own pool.
* **Backpressure.** ``submit`` never blocks: a saturated admission queue
  raises :class:`QueueSaturatedError` at the call site and the rejection
  is counted and traced.  ``shutdown(drain=True)`` stops admission but
  finishes everything already accepted.
* **Robustness.** Each batch execution attempt passes through the fault
  injector.  A crashed shard is restarted with a fresh session (memory
  cache lost, disk cache kept) and the batch retried under exponential
  backoff with jitter; a poisoned cache entry is invalidated and
  recompiled; requests whose deadline lapses anywhere along the path
  resolve to ``TIMEOUT`` instead of occupying a shard.
* **Observability.** Every hop updates the
  :class:`~repro.obs.metrics.MetricsRegistry` and every resolution
  appends a ``serve`` entry to the session-shared
  :class:`~repro.runtime.trace.TraceRecorder` schema.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence

from ..obs.metrics import MetricsRegistry
from ..obs.tracing import tracer
from ..resilience.faults import MachineFaultError, WatchdogTimeout
from ..runtime.session import CinnamonSession, CompileJob
from ..runtime.trace import TraceRecorder
from ..sim.config import degraded_machine
from .batcher import AdaptiveBatcher, Batch
from .faults import FaultInjector, NO_FAULTS, PoisonedArtifact, \
    PoisonedCacheError, WorkerCrashError
from .lifecycle import IDLE_POLL_S, RequestLifecycle, ServingFrontend
from .queue import AdmissionQueue, Empty, QueueSaturatedError
from .request import InferenceRequest, RequestResult, RequestStatus, \
    cost_rollup

#: Buckets for the batch-size histogram (requests per dispatched batch).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


class _Shard:
    """One serving replica: a single-thread executor plus its session."""

    def __init__(self, shard_id: int, session: CinnamonSession):
        self.id = shard_id
        self.session = session
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"cinnamon-shard-{shard_id}")


class CinnamonServer(ServingFrontend):
    """Serve encrypted-inference requests over a pool of session shards.

    Parameters mirror the knobs of a real inference frontend:
    ``queue_depth`` bounds admission (``0`` = unbounded), ``max_batch`` /
    ``max_wait_s`` tune the adaptive batcher, ``max_retries`` /
    ``retry_backoff_s`` / ``retry_jitter`` shape the retry policy, and
    ``request_timeout_s`` is the default deadline for requests that do
    not carry one.  ``session_factory(shard_id)`` customizes shard
    construction (tests inject small caches; by default shards share one
    on-disk ``cache_dir`` so a restarted shard re-warms from disk).
    ``tuned=True`` (or an explicit ``tuning_db``) applies persisted
    :mod:`repro.tune` configurations to matching requests at admission.
    """

    def __init__(self, num_workers: int = 2, queue_depth: int = 64,
                 max_batch: int = 8, max_wait_s: float = 0.005,
                 max_retries: int = 2, retry_backoff_s: float = 0.05,
                 retry_jitter: float = 0.5,
                 request_timeout_s: Optional[float] = None,
                 default_machine=None, faults: FaultInjector = None,
                 cache_dir=None, capacity: Optional[int] = None,
                 session_factory: Optional[Callable[[int], CinnamonSession]]
                 = None, metrics: Optional[MetricsRegistry] = None,
                 seed: int = 0, max_recoveries: int = 2,
                 watchdog_s: Optional[float] = None,
                 tuned: bool = False, tuning_db=None,
                 slos: Sequence = (), flight_dir=None,
                 live_status_path=None,
                 slo_window_scale: float = 1.0,
                 slo_min_events: int = 10,
                 slo_cooldown_s: float = 60.0):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.retry_jitter = retry_jitter
        #: Shared shard cache directory (None = memory-only shards);
        #: exposed so chaos tooling can aim tamper attacks at the disk
        #: layer (repro.trust).
        self.cache_dir = cache_dir
        self.faults = faults or NO_FAULTS
        #: Degrade-ladder descents allowed per batch after chip failures
        #: (these do NOT consume regular retries: losing a die is a
        #: machine event, not a transient).
        self.max_recoveries = max_recoveries
        #: Per-simulation wall-clock budget; a hung run resolves as a
        #: watchdog timeout instead of wedging a shard forever.
        self.watchdog_s = watchdog_s
        self._session_factory = session_factory or (
            lambda shard_id: CinnamonSession(cache_dir=cache_dir,
                                             capacity=capacity,
                                             watchdog_s=watchdog_s))
        self._shards = [_Shard(i, self._session_factory(i))
                        for i in range(num_workers)]
        self._queue = AdmissionQueue(maxsize=queue_depth)
        self._batcher = AdaptiveBatcher(max_batch=max_batch,
                                        max_wait_s=max_wait_s)
        self._recorder = TraceRecorder()
        self._rng = random.Random(seed)
        self._started = False
        self._stopped = False
        self._dispatcher: Optional[threading.Thread] = None

        self.metrics = metrics or MetricsRegistry()
        self.lifecycle = RequestLifecycle(
            self.metrics, self._recorder, default_machine=default_machine,
            request_timeout_s=request_timeout_s, tuned=tuned,
            tuning_db=tuning_db, cache_dir=cache_dir)
        m = self.metrics
        self._restarts_total = m.counter(
            "serve_worker_restarts_total",
            "Shard restarts after an (injected) crash.")
        self._poisoned_total = m.counter(
            "serve_cache_poisoned_total",
            "Poisoned cache artifacts detected and invalidated.")
        self._chip_failures_total = m.counter(
            "serve_chip_failures_total",
            "Machine-level chip/link failures surfaced by simulations.")
        self._recoveries_total = m.counter(
            "serve_recoveries_total",
            "Successful degraded-mode recoveries after a chip failure.")
        self._watchdog_total = m.counter(
            "serve_watchdog_timeouts_total",
            "Simulations cancelled by the per-run watchdog deadline.")
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
        self._close_admission(drain, timeout)
        self._stopped = True
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=10)
        for shard in self._shards:
            shard.executor.shutdown(wait=drain)
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
        shard.executor.submit(self._execute_batch, shard, batch)

    # ------------------------------------------------------------------ #
    # Execution

    def _execute_batch(self, shard: _Shard, batch: Batch) -> None:
        try:
            self._execute_batch_inner(shard, batch)
        except BaseException:  # pragma: no cover - defensive: never lose
            for request in batch.requests:  # a request to a bug here
                self.lifecycle.fail(request, "internal dispatch error",
                                    shard=shard.id, batch_size=len(batch))
            raise

    def _execute_batch_inner(self, shard: _Shard, batch: Batch) -> None:
        pending = list(batch.requests)
        where = {"shard": shard.id, "batch_size": len(batch)}
        last_error: Optional[Exception] = None
        machine_override = None       # degraded machine after a chip loss
        recoveries = 0
        recovery_entry: Optional[dict] = None
        attempt = 0
        while attempt <= self.max_retries:
            attempt += 1
            now = time.monotonic()
            live = []
            for request in pending:
                if request.expired(now):
                    self.lifecycle.timeout(request, now, **where)
                else:
                    request.attempts = attempt
                    live.append(request)
            pending = live
            if not pending:
                return
            exec_start = time.monotonic()
            # One "execute" span per request per attempt: it rides the
            # CompileJob onto the session worker pool, where the compile
            # and simulate child spans attach to it (repro.obs).
            tr = tracer()
            exec_spans = [
                tr.begin("execute", kind="execute", parent=r.span,
                         attrs={"shard": shard.id, "attempt": attempt,
                                "batch_size": len(batch)})
                for r in pending
            ]
            try:
                schedule = self.faults.on_dispatch(shard.id, batch,
                                                   shard.session)
                jobs = [CompileJob(program=r.program, params=r.params,
                                   machine=machine_override
                                   if machine_override is not None
                                   else r.machine,
                                   options=r.options,
                                   simulate=r.simulate, tag=r.tag,
                                   name=r.label, fault_schedule=schedule,
                                   watchdog_s=self.watchdog_s,
                                   span=span)
                        for r, span in zip(pending, exec_spans)]
                results = shard.session.run_batch(
                    jobs, max_workers=min(4, len(jobs)))
                for job_result in results:
                    if isinstance(job_result.compiled, PoisonedArtifact):
                        raise PoisonedCacheError(
                            f"poisoned artifact for {job_result.job!r}")
            except MachineFaultError as exc:
                # A die (or link) died mid-simulation.  This is a machine
                # event, not a transient: recompile the batch for the
                # degrade ladder's next rung and replay — without
                # consuming a regular retry.  The injector's budget was
                # spent on the faulted attempt, so the replay runs clean.
                last_error = exc
                self._chip_failures_total.inc()
                if recoveries < self.max_recoveries:
                    try:
                        degraded = degraded_machine(
                            exc.machine or machine_override
                            or pending[0].machine_name)
                    except ValueError:
                        pass      # out of rungs: fall through to retries
                    else:
                        recoveries += 1
                        self._recoveries_total.inc()
                        detection_s = time.monotonic() - exec_start
                        recovery_entry = self._recorder.record_recovery(
                            job=batch.requests[0].label,
                            fault=(exc.fault.kind if exc.fault
                                   else "chip_crash"),
                            chip=exc.chip, cycle=exc.cycle,
                            machine_from=exc.machine or "",
                            machine_to=degraded.name,
                            detection_s=detection_s)
                        machine_override = degraded
                        attempt -= 1
                        continue
            except WatchdogTimeout as exc:
                last_error = exc
                self._watchdog_total.inc()
            except WorkerCrashError as exc:
                last_error = exc
                self._restarts_total.inc()
                self._restart_shard(shard)
            except PoisonedCacheError as exc:
                last_error = exc
                self._poisoned_total.inc()
                shard.session.invalidate(batch.fingerprint)
            except Exception as exc:
                last_error = exc
            else:
                done = time.monotonic()
                if recovery_entry is not None:
                    # Stamp how long the successful replay took onto the
                    # recovery trace entry (held by reference).
                    recovery_entry["replay_s"] = done - exec_start
                for request, job_result in zip(pending, results):
                    if request.expired(done):
                        # Deadline lapsed mid-execution (e.g. a latency
                        # spike): the client already gave up on it.
                        self.lifecycle.timeout(request, done, **where)
                    else:
                        sim = job_result.result
                        self.lifecycle.ok(
                            request, done, started=exec_start,
                            execute_s=done - exec_start,
                            cache=job_result.cache,
                            cycles=sim.cycles if sim is not None else None,
                            sim=sim, compiled=job_result.compiled,
                            cost=cost_rollup(request.program,
                                             job_result.cache,
                                             job_result.compiled, sim),
                            **where)
                return
            finally:
                # Close this attempt's execute spans on every exit path
                # (success, retryable failure, recovery descent).
                for span in exec_spans:
                    span.finish()
            if attempt <= self.max_retries:
                self.lifecycle.retries_total.inc()
                backoff = (self.retry_backoff_s * (2 ** (attempt - 1))
                           * (1.0 + self.retry_jitter * self._rng.random()))
                time.sleep(backoff)
        for request in pending:
            self.lifecycle.fail(
                request, f"{type(last_error).__name__}: {last_error}",
                **where)

    def _restart_shard(self, shard: _Shard) -> None:
        """Replace a crashed shard's session — the in-memory cache dies
        with the 'process'; a shared disk cache re-warms it."""
        shard.session = self._session_factory(shard.id)

    # ------------------------------------------------------------------ #
    # Introspection

    def cache_stats(self) -> dict:
        """Aggregated compile-cache counters across all shards."""
        totals: Dict[str, int] = {}
        for shard in self._shards:
            for field, value in shard.session.cache_stats.as_dict().items():
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
            document["jobs"].extend(shard.session.trace()["jobs"])
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
