"""The request lifecycle shared by every serving front-end.

:class:`RequestLifecycle` owns everything between ``submit()`` and
``handle.resolve()`` that does not depend on *where* a request executes::

    admit() --> queued --dispatched()--> dispatched --> ok | failed | timeout
                   |                          |
                   +--> rejected | timeout    +--requeued()--> queued

:class:`~repro.serve.CinnamonServer` (thread shards) and
:class:`~repro.cluster.ClusterRouter` (worker processes) drive it and
keep only their executor: batching, routing, retries, failover.
docs/serving.md ("Request lifecycle") says what each transition records.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from ..obs.metrics import MetricsRegistry
from ..obs.rows import declare_series
from ..obs.tracing import tracer
from ..runtime.fingerprint import fingerprint
from ..runtime.session import resolve_request_options
from ..runtime.trace import TraceRecorder
from ..sim.config import resolve_machine
from .queue import AdmissionQueue, Empty, QueueClosedError
from .request import InferenceRequest, LatencyBreakdown, RequestHandle, \
    RequestResult, RequestStatus

#: Poll period of a front-end's dispatcher while its queue is idle.
IDLE_POLL_S = 0.05


class ServerClosedError(RuntimeError):
    """``submit`` after ``shutdown``/``drain`` began."""


class RequestLifecycle:
    """Admission, accounting and exactly-once resolution of requests."""

    def __init__(self, metrics: MetricsRegistry, recorder: TraceRecorder,
                 default_machine=None,
                 request_timeout_s: Optional[float] = None):
        self.metrics = metrics
        self.recorder = recorder
        self.default_machine = default_machine
        self.request_timeout_s = request_timeout_s
        self._handles: Dict[int, RequestHandle] = {}
        self._cond = threading.Condition()

        # The serve row's own series are the recorder's fold of it; they
        # exist at zero from here on for the live SLO windows.
        declare_series(recorder.registry, "serve",
                       status=[status.value for status in RequestStatus])
        self.retries_total = metrics.counter(
            "serve_retries_total",
            "Execution retries (shard retry or worker failover).")
        self.queue_depth = metrics.gauge(
            "serve_queue_depth", "Requests waiting for dispatch.")
        self.inflight = metrics.gauge(
            "serve_inflight_requests", "Requests dispatched, not resolved.")

    # ------------------------------------------------------------------ #
    # Admission

    def admit(self, request: InferenceRequest) -> RequestHandle:
        """Default, resolve, fingerprint and register one request.  The
        resolved options are pinned on it (``machine=None``) so whichever
        session executes it computes the identical fingerprint."""
        if request.machine is None and request.options is None \
                and self.default_machine is not None:
            request.machine = self.default_machine
        if request.deadline_s is None:
            request.deadline_s = self.request_timeout_s
        options = resolve_request_options(request.machine, request.options)
        request.machine_name = resolve_machine(
            options.machine or options.num_chips).name
        request.options = options
        request.machine = None
        request.key = fingerprint(request.program, request.params, options)
        request.submitted_at = time.monotonic()
        # Observability root: one trace per request, opened at admission
        # and closed at resolution (repro.obs; no-op unless enabled).
        tr = tracer()
        request.span = tr.begin(
            f"serve:{request.label}", kind="serve", parent=None,
            attrs={"request_id": request.request_id,
                   "machine": request.machine_name,
                   "tenant": request.tenant,
                   "fingerprint": request.key})
        request.queue_span = tr.begin("queue", kind="queue",
                                      parent=request.span)
        handle = RequestHandle(request)
        with self._cond:
            self._handles[request.request_id] = handle
        return handle

    # ------------------------------------------------------------------ #
    # Queued <-> dispatched

    def dispatched(self, requests: Iterable[InferenceRequest],
                   now: float) -> None:
        """``requests`` were handed to an executor at ``now``."""
        with self._cond:
            for request in requests:
                request.dispatched_at = now
                self.inflight.inc()

    def requeued(self, request: InferenceRequest) -> None:
        """``request`` left its executor unresolved; it is queued again."""
        with self._cond:
            request.dispatched_at = None
            self.inflight.dec()

    # ------------------------------------------------------------------ #
    # Terminal transitions

    def finish(self, request: InferenceRequest,
               result: RequestResult) -> bool:
        """Resolve ``request`` exactly once: the handle is popped first,
        so a second attempt (a result frame racing a timeout, a
        defensive re-fail) returns ``False`` without a second journal
        row — and so without a second count, latency sample or tenant
        bill, which the recorder folds from the row.  Runs under the
        lifecycle lock: once :meth:`wait_drained` sees the handle table
        empty, every row is journaled and every handle resolved."""
        with self._cond:
            handle = self._handles.pop(request.request_id, None)
            if handle is None:
                return False
            if request.dispatched_at is not None:
                self.inflight.dec()
            # Close whatever request spans are still open (a timeout can
            # resolve a request while its queue/batch span is live), then
            # journal the outcome under the root span so the serve row
            # joins the compile/simulate rows on trace_id.
            for span in (request.queue_span, request.batch_span,
                         request.span):
                if span is not None:
                    span.finish()
            request.span.set_attr("status", result.status.value)
            request.span.set_attr("shard", result.shard)
            with tracer().use_span(request.span):
                self.recorder.record(
                    "serve", job=request.label, status=result.status.value,
                    machine=request.machine_name or "", shard=result.shard,
                    attempts=result.attempts, batch_size=result.batch_size,
                    cache=result.cache, seconds=result.latency.total_s,
                    queue_s=result.latency.queue_s,
                    batch_s=result.latency.batch_s,
                    execute_s=result.latency.execute_s,
                    tenant=request.tenant, cost=result.cost)
            handle.resolve(result)
            self._cond.notify_all()
        return True

    def _terminal(self, request: InferenceRequest, status: RequestStatus,
                  now: Optional[float] = None, *,
                  started: Optional[float] = None,
                  execute_s: float = 0.0, **outcome) -> bool:
        """:meth:`finish` with a result built for ``status``: ``started``
        (when the executor began the final attempt) splits the wall time,
        ``outcome`` carries the other :class:`RequestResult` fields."""
        now = time.monotonic() if now is None else now
        latency = LatencyBreakdown(total_s=now - request.submitted_at)
        if started is not None:
            latency.queue_s = max(0.0, started - request.submitted_at)
            if request.batched_at is not None:
                latency.batch_s = started - request.batched_at
            latency.execute_s = execute_s
        return self.finish(request, RequestResult(
            request_id=request.request_id, name=request.label,
            status=status, latency=latency, attempts=request.attempts,
            **outcome))

    def ok(self, request: InferenceRequest, now: float, *, started: float,
           execute_s: float, **outcome) -> bool:
        return self._terminal(request, RequestStatus.OK, now,
                              started=started, execute_s=execute_s,
                              **outcome)

    def fail(self, request: InferenceRequest, error: str,
             now: Optional[float] = None, **outcome) -> bool:
        """Retries exhausted, or an executor reported a terminal error."""
        return self._terminal(request, RequestStatus.FAILED, now,
                              error=error, **outcome)

    def timeout(self, request: InferenceRequest, now: float,
                **outcome) -> bool:
        """The deadline lapsed; the error names the stage it lapsed in."""
        stage = ("dispatched" if request.dispatched_at is not None
                 else "queued")
        return self._terminal(
            request, RequestStatus.TIMEOUT, now,
            error=f"deadline of {request.deadline_s}s exceeded "
                  f"while {stage}", **outcome)

    def reject(self, request: InferenceRequest, reason: str) -> bool:
        """Admission refused (backpressure, trust, shutdown)."""
        return self._terminal(request, RequestStatus.REJECTED, error=reason)

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until every admitted request has resolved; ``False`` if
        ``timeout`` expired with work still outstanding."""
        with self._cond:
            return self._cond.wait_for(lambda: not self._handles, timeout)


class ServingFrontend:
    """The serving contract's executor-independent half: one admission
    path (lifecycle, trust hook, :class:`AdmissionQueue`) for every
    front-end.  A subclass calls ``__init__`` first and implements
    ``start``/``shutdown``/``trace``."""

    def __init__(self, queue_depth: int, default_machine=None,
                 request_timeout_s: Optional[float] = None):
        self.metrics = MetricsRegistry()
        self._recorder = TraceRecorder(registry=self.metrics)
        self._queue = AdmissionQueue(maxsize=queue_depth)
        self._started = False
        self.lifecycle = RequestLifecycle(
            self.metrics, self._recorder, default_machine=default_machine,
            request_timeout_s=request_timeout_s)

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    def submit(self, request: InferenceRequest) -> RequestHandle:
        """Admit one request.  A refusal — backpressure
        (:class:`~repro.serve.queue.QueueSaturatedError`), the front-end's
        admission check, shutdown (:class:`ServerClosedError`) — resolves
        the handle ``REJECTED`` before the typed error propagates, so a
        refused submit can never hang a waiter."""
        if not self._started:
            self.start()
        handle = self.lifecycle.admit(request)
        try:
            self._check_admission(request)
            self._queue.put(request)
        except Exception as exc:
            self.lifecycle.reject(request, str(exc))
            if isinstance(exc, QueueClosedError):
                raise ServerClosedError(str(exc)) from exc
            raise
        self.lifecycle.queue_depth.set(self._queue.depth())
        return handle

    def _check_admission(self, request: InferenceRequest) -> None:
        """Front-end admission policy: raise to refuse ``request``."""

    def submit_many(self, requests: Sequence[InferenceRequest]
                    ) -> List[RequestHandle]:
        return [self.submit(request) for request in requests]

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admission and wait until all accepted work resolves;
        ``False`` if ``timeout`` expired with work pending."""
        self._queue.close()
        return self.lifecycle.wait_drained(timeout)

    def _sweep_queue(self, resolve, reason: str) -> None:
        """``resolve(request, reason)`` everything still queued.  Final
        only once admission is closed and nothing re-queues requests."""
        while True:
            try:
                request = self._queue.get(timeout=0)
            except Empty:
                return
            resolve(request, reason)

    @property
    def queue_depth(self) -> int:
        return self._queue.depth()

    def export_trace(self, path) -> Path:
        """Write the merged trace journal to ``path``; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.trace(), indent=2))
        return path
