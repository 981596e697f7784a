"""The shard executor: one attempt loop behind every serving back-end.

A :class:`ShardExecutor` owns one :class:`CinnamonSession` and runs a
same-fingerprint batch of admitted requests on it to one terminal
:class:`RequestResult` each — the execution's view: ``OK``, ``FAILED``
or ``TIMEOUT``, ``started``/``done`` stamps of the final attempt, and
``latency.execute_s`` only.  A :class:`~repro.serve.CinnamonServer`
shard and a :class:`~repro.cluster.worker.ClusterWorker` each hold one
and pass its results on (``lifecycle.ok/fail/timeout``, a ``result``
frame).  docs/serving.md ("Executor") says what one attempt does and
which failures retry or descend the degrade ladder.

The degrade ladder is the repo's one recovery: a
:class:`~repro.sim.ChipFailure` ends the attempt it hit (simulator state
is machine-shaped and dies with the machine), :func:`descend_ladder`
picks the next rung (:func:`repro.sim.config.degraded_machine`, 12 -> 8
-> 4 -> 2 -> 1), and the executor recompiles the batch for the
survivors and replays it from cycle 0, so a ``recovery`` row's
``lost_cycles`` is the fault cycle.  The caller's input ciphertexts are
the only data frontier; the emulator's memory-image builder re-shards
them for whatever machine the program was recompiled for.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, replace
from typing import List, Optional, Sequence, Tuple

from ..obs.metrics import MetricsRegistry
from ..obs.tracing import tracer
from ..runtime.session import CinnamonSession, CompileJob
from ..runtime.trace import TraceRecorder
from ..sim.config import MachineConfig, degraded_machine, resolve_machine
from ..sim.simulator import ChipFailure, WatchdogTimeout
from .faults import FaultInjector, NO_FAULTS
from .request import InferenceRequest, LatencyBreakdown, RequestResult, \
    RequestStatus, cost_rollup

#: A retry's backoff is stretched by up to this fraction, at random, so
#: shards that failed together do not retry in lockstep.
RETRY_JITTER = 0.5


class RecoveryExhausted(RuntimeError):
    """The degrade ladder ran out before the program completed."""


@dataclass(frozen=True)
class RecoveryEvent:
    """One fault -> degrade -> replay transition (a ``recovery`` row)."""

    fault: str
    chip: Optional[int]
    cycle: int
    machine_from: str
    machine_to: str
    lost_cycles: int = 0
    detection_s: float = 0.0
    replay_s: Optional[float] = None

    def as_dict(self) -> dict:
        return asdict(self)


def descend_ladder(exc: ChipFailure, current, *, descents: int,
                   max_recoveries: int, detection_s: float,
                   label: str = "run") -> Tuple[MachineConfig, RecoveryEvent]:
    """One chip crash, one rung down.

    ``current`` is the machine the faulted attempt ran on (``None``: the
    one the simulator named on ``exc``), ``descents`` the rungs this run
    already took, ``detection_s`` the wall time from the start of that
    attempt to the fault.  Returns the degraded machine and the
    ``recovery`` row's fields (``lost_cycles`` is the fault cycle: the
    replay starts over at cycle 0); the caller recompiles, replays, and
    reports ``replay_s`` once the replay ends.  Raises
    :class:`RecoveryExhausted` when ``max_recoveries`` is spent or no
    rung fits the survivors.
    """
    source = resolve_machine(current if current is not None
                             else exc.machine)
    if descents >= max_recoveries:
        raise RecoveryExhausted(
            f"{label}: fault on {source.name} chip {exc.chip} after "
            f"{descents} recoveries (budget exhausted)") from exc
    try:
        degraded = degraded_machine(source, dead_chips=1)
    except ValueError:
        raise RecoveryExhausted(
            f"{label}: no degraded configuration left below "
            f"{source.name}") from exc
    return degraded, RecoveryEvent(
        fault="chip_crash", chip=exc.chip, cycle=exc.cycle,
        machine_from=source.name, machine_to=degraded.name,
        lost_cycles=exc.cycle, detection_s=detection_s)


class ShardExecutor:
    """Runs batches on ``session``.  ``recorder`` receives ``recovery``
    rows (default: the session's own journal); ``shard`` labels spans.
    Thread-safe: a cluster worker calls :meth:`execute` from its pool.
    """

    def __init__(self, session: CinnamonSession,
                 metrics: MetricsRegistry, *,
                 recorder: Optional[TraceRecorder] = None,
                 faults: Optional[FaultInjector] = None, shard=None,
                 max_retries: int = 2, retry_backoff_s: float = 0.05,
                 max_recoveries: int = 2,
                 watchdog_s: Optional[float] = None, seed: int = 0):
        self.session = session
        self.recorder = recorder
        self.faults = faults or NO_FAULTS
        self.shard = shard
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        #: Degrade-ladder descents allowed per batch; they do NOT
        #: consume retries: losing a die is a machine event, not a
        #: transient.
        self.max_recoveries = max_recoveries
        #: Per-simulation wall-clock budget; a hung run resolves as a
        #: watchdog timeout instead of wedging the executor forever.
        self.watchdog_s = watchdog_s
        self._rng = random.Random(seed)
        self._chip_failures_total = metrics.counter(
            "serve_chip_failures_total",
            "Machine-level chip/link failures surfaced by simulations.")
        self._recoveries_total = metrics.counter(
            "serve_recoveries_total",
            "Successful degraded-mode recoveries after a chip failure.")
        self._watchdog_total = metrics.counter(
            "serve_watchdog_timeouts_total",
            "Simulations cancelled by the per-run watchdog deadline.")

    def execute(self, requests: Sequence[InferenceRequest]
                ) -> List[RequestResult]:
        """Run one same-fingerprint batch (options already pinned by
        :meth:`RequestLifecycle.admit`); one result per request, in
        order.  Stamps ``request.attempts`` as it goes."""
        outcomes = {}

        def settle(request, status, done, **fields):
            outcomes[request.request_id] = RequestResult(
                request.request_id, request.label, status,
                attempts=request.attempts, shard=self.shard,
                batch_size=len(requests), done=done, **fields)

        def journal_recovery(replay_s=None):
            # Journaled once its replay has ended, never updated after:
            # a worker ships rows to the router as soon as they exist.
            record = (self.recorder if self.recorder is not None
                      else self.session).record
            with tracer().use_span(spans[0]):
                record("recovery", job=requests[0].label,
                       **replace(recovering, replay_s=replay_s).as_dict())

        pending = list(requests)
        machine = None          # degraded machine after a chip loss
        descents = 0
        recovering = None       # RecoveryEvent whose replay is pending
        last_error: Optional[Exception] = None
        attempt = 0
        while attempt <= self.max_retries:
            attempt += 1
            now = time.monotonic()
            live = []
            for request in pending:
                if request.expired(now):
                    settle(request, RequestStatus.TIMEOUT, now)
                else:
                    request.attempts = attempt
                    live.append(request)
            pending = live
            if not pending:
                break
            started = time.monotonic()
            # One "execute" span per request per attempt: it rides the
            # CompileJob into the session, where the compile and
            # simulate child spans attach to it (repro.obs).
            spans = [
                tracer().begin("execute", kind="execute", parent=r.span,
                               attrs={"shard": self.shard,
                                      "attempt": attempt,
                                      "batch_size": len(requests)})
                for r in pending
            ]
            armed = None
            try:
                # A ladder replay runs clean: each armed chip crash
                # costs one batch one rung, not the whole ladder.
                if recovering is None:
                    armed = self.faults.take()
                jobs = [CompileJob(program=r.program, params=r.params,
                                   machine=machine, options=r.options,
                                   simulate=r.simulate,
                                   tag=r.tag, name=r.label,
                                   crash=armed.crash
                                   if armed is not None else None,
                                   watchdog_s=self.watchdog_s, span=span)
                        for r, span in zip(pending, spans)]
                # In order: the first job compiles and simulates, the
                # rest of a same-key batch hit the cache and the memo.
                results = [self.session.run(job) for job in jobs]
            except ChipFailure as exc:
                armed = None          # it fired: spent
                last_error = exc
                self._chip_failures_total.inc()
                try:
                    rung, event = descend_ladder(
                        exc, machine, descents=descents,
                        max_recoveries=self.max_recoveries,
                        detection_s=time.monotonic() - started,
                        label=requests[0].label)
                except RecoveryExhausted:
                    pass          # fall through to the retry path
                else:
                    if recovering is not None:
                        journal_recovery()    # its replay faulted too
                    machine, recovering = rung, event
                    descents += 1
                    self._recoveries_total.inc()
                    attempt -= 1
                    continue
            except WatchdogTimeout as exc:
                last_error = exc
                self._watchdog_total.inc()
            except Exception as exc:
                last_error = exc
            else:
                done = time.monotonic()
                if recovering is not None:
                    journal_recovery(replay_s=done - started)
                    recovering = None
                for request, job_result in zip(pending, results):
                    if request.expired(done):
                        # Deadline lapsed mid-execution: the client
                        # already gave up on it.
                        settle(request, RequestStatus.TIMEOUT, done,
                               started=started)
                        continue
                    sim = job_result.result
                    settle(request, RequestStatus.OK, done, started=started,
                           latency=LatencyBreakdown(execute_s=done - started),
                           cache=job_result.cache,
                           cycles=sim.cycles if sim is not None else None,
                           sim=sim, compiled=job_result.compiled,
                           cost=cost_rollup(request.program,
                                            job_result.cache,
                                            job_result.compiled, sim))
                pending = []
                break
            finally:
                if armed is not None:
                    # Armed but never fired: the program ended before
                    # the crash cycle, or the attempt failed otherwise.
                    self.faults.refund(armed)
                # Close this attempt's execute spans on every exit path
                # (success, retryable failure, recovery descent).
                for span in spans:
                    span.finish()
            if attempt <= self.max_retries:
                time.sleep(self.retry_backoff_s * (2 ** (attempt - 1))
                           * (1.0 + RETRY_JITTER * self._rng.random()))
        if recovering is not None:
            journal_recovery()        # the replay never completed
        for request in pending:
            settle(request, RequestStatus.FAILED, time.monotonic(),
                   error=f"{type(last_error).__name__}: {last_error}")
        return [outcomes[request.request_id] for request in requests]
