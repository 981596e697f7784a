"""The cached, instrumented compile-and-run session.

:class:`CinnamonSession` is the runtime entry point the ROADMAP's serving
work builds on: it content-hashes every ``(program, params, options)``
compile request, serves repeats from an in-memory LRU (optionally backed
by on-disk versioned pickles), memoizes simulation results per machine,
runs batches of independent jobs on a ``concurrent.futures`` worker pool,
and records a structured JSON trace of everything it did — per-pass
compile timings on misses, per-FU/HBM/network utilization per simulation.

    session = CinnamonSession(cache_dir=".cinnamon-cache")
    compiled = session.compile(program, params, machine="cinnamon_4")
    result = session.simulate(compiled, "cinnamon_4")
    session.export_trace("trace.json")

The module-level :func:`default_session` powers the :func:`repro.compile`
facade, so even one-liner users get in-memory caching for free.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.compiler import (
    CompiledProgram,
    CompilerDriver,
    CompilerOptions,
)
from ..core.dsl.program import CinnamonProgram
from ..core.isa import regalloc
from ..obs.tracing import NULL_SPAN, Span, tracer
from ..sim import native as sim_native
from ..sim.config import MachineConfig, resolve_machine
from ..sim.simulator import (
    ChipCrash,
    ChipFailure,
    SimulationResult,
    SimulatorEngine,
)
from ..sim.trace import recording_sink
from .cache import MEMORY_HIT, MISS, CacheStats, CompileCache
from .fingerprint import fingerprint
from .trace import TraceRecorder


@dataclass
class CompileJob:
    """One unit of batch work for :meth:`CinnamonSession.run_batch`.

    ``machine`` drives the compile layout; ``sim_machine`` (defaulting to
    ``machine``) is what the result is simulated on when ``simulate`` is
    set.  ``name`` labels the job in the merged trace.
    """

    program: CinnamonProgram
    params: object
    machine: object = None
    options: Optional[CompilerOptions] = None
    emit_isa: bool = True
    simulate: bool = True
    sim_machine: object = None
    tag: str = ""
    name: Optional[str] = None
    #: Chip crash to inject into the simulation
    #: (:meth:`CinnamonSession.simulate` decides it from the clean run).
    crash: Optional[ChipCrash] = None
    #: Wall-clock budget for this job's simulation (overrides the
    #: session-wide watchdog).
    watchdog_s: Optional[float] = None
    #: Parent :class:`repro.obs.tracing.Span` to execute under.  The
    #: batch pool runs jobs on worker threads where ``contextvars`` do
    #: not follow; the span rides the job across the boundary and is
    #: re-activated inside :meth:`CinnamonSession.run`.
    span: object = None

    @property
    def label(self) -> str:
        return self.name or self.program.name


@dataclass
class JobResult:
    """What one batch job produced."""

    job: str
    key: str
    cache: str                      # where the compile came from
    compiled: CompiledProgram
    result: Optional[SimulationResult] = None


def resolve_request_options(machine, options: Optional[CompilerOptions],
                            overrides: Optional[dict] = None
                            ) -> CompilerOptions:
    """Merge ``machine``/``overrides`` into :class:`CompilerOptions`.

    Module-level so the serving layer can fingerprint a request *before*
    it reaches a session and be guaranteed the same cache key the session
    will compute when it executes the job.
    """
    overrides = dict(overrides or {})
    if options is None:
        if machine is not None:
            overrides["machine"] = machine
        return CompilerOptions(**overrides)
    if machine is not None:
        overrides["machine"] = machine
    return replace(options, **overrides) if overrides else options


def _add_pass_spans(parent, compile_stats, build_started: float) -> None:
    """Synthesize one child span per compiler pass under ``parent``.

    The compiler pipeline is not span-aware; its :class:`CompileStats`
    already carries exact per-pass wall times, so the spans are rebuilt
    from those timings laid end to end from the moment the driver
    started (passes run sequentially, so the offsets are exact).
    """
    tr = tracer()
    if parent is NULL_SPAN or not tr.enabled or compile_stats is None:
        return
    offset = build_started
    for timing in compile_stats.passes:
        child = Span(f"pass:{timing.name}", kind="pass",
                     trace_id=parent.trace_id, parent_id=parent.span_id,
                     start_s=offset,
                     attrs={"seconds": timing.seconds})
        child.finish(offset + timing.seconds)
        tr.add_span(child)
        offset += timing.seconds


class CinnamonSession:
    """Cached + instrumented facade over the compiler and simulator.

    ``capacity`` bounds the in-memory LRU (``None`` = unbounded; compiled
    bootstraps are ~1 GB each, so long-lived sessions should bound it);
    ``cache_dir`` enables the on-disk layer; ``max_workers`` sizes the
    default batch worker pool.
    """

    def __init__(self, cache_dir=None, capacity: Optional[int] = None,
                 max_workers: Optional[int] = None,
                 schema_version: Optional[int] = None,
                 watchdog_s: Optional[float] = None):
        self._cache = CompileCache(capacity=capacity, cache_dir=cache_dir,
                                   schema_version=schema_version)
        self._sim_cache: Dict[Tuple, SimulationResult] = {}
        self._recorder = TraceRecorder()
        # Disk-cache tamper detections journal a kind:"trust" row
        # through this session.
        self._cache.on_tamper = self._record_tamper
        self._lock = threading.Lock()
        self._inflight: Dict[str, threading.Event] = {}
        self.max_workers = max_workers
        self.schema_version = self._cache.schema_version
        #: Default wall-clock budget per simulation; a hung run raises
        #: :class:`repro.sim.WatchdogTimeout` instead of wedging
        #: the worker thread.
        self.watchdog_s = watchdog_s
        # Build (or load) the simulator's C engine and the C register
        # allocator here, so that a cold build never lands inside the
        # first simulate or compile.
        sim_native.load_library()
        regalloc.load_library()

    def _record_tamper(self, error) -> None:
        """Cache on_tamper hook: one journal row per detection."""
        self.record("trust", event="tamper_detected", target=error.target,
                    detail={"name": error.name})

    # ------------------------------------------------------------------ #
    # Compilation

    def _resolve_options(self, machine, options: Optional[CompilerOptions],
                         overrides: dict) -> CompilerOptions:
        return resolve_request_options(machine, options, overrides)

    def compile(self, program: CinnamonProgram, params, machine=None,
                options: CompilerOptions = None, emit_isa: bool = True,
                job: str = None, **overrides) -> CompiledProgram:
        """Compile ``program`` (cached by content) and trace the call.

        ``machine``/``**overrides`` build or refine the
        :class:`CompilerOptions`; an explicit ``options`` wins for fields
        not overridden.  Returns the cached artifact when an identical
        request (same program structure, params, options, schema version)
        was compiled before — by this session or, with ``cache_dir``, by
        any previous process sharing the directory.
        """
        compiled, _entry = self._compile(program, params, machine, options,
                                         emit_isa, job, overrides)
        return compiled

    def _compile(self, program, params, machine, options, emit_isa, job,
                 overrides) -> Tuple[CompiledProgram, dict]:
        opts = self._resolve_options(machine, options, overrides)
        key = fingerprint(program, params, opts, emit_isa,
                          schema_version=self.schema_version)
        label = job or program.name
        tr = tracer()
        with tr.start_span(f"compile:{label}", kind="compile",
                           attrs={"key": key}) as span:
            started = time.perf_counter()
            while True:
                with tr.start_span("cache-lookup", kind="cache") as lookup:
                    with self._lock:
                        compiled, source = self._cache.get(key)
                        if compiled is None and key not in self._inflight:
                            self._inflight[key] = threading.Event()
                            lookup.set_attr("outcome", MISS)
                            break
                        waiter = self._inflight.get(key)
                    lookup.set_attr("outcome", source if compiled is not None
                                    else "inflight-wait")
                if compiled is not None:
                    compiled.cache_key = key
                    span.set_attr("cache", source)
                    entry = self.record(
                        "compile", job=label, key=key, cache=source,
                        seconds=time.perf_counter() - started,
                        compile=None)
                    return compiled, entry
                # Another thread is compiling the same key: wait, then retry.
                waiter.wait()

            build_started = time.perf_counter()
            try:
                compiled = CompilerDriver(params, opts).compile(
                    program, emit_isa=emit_isa)
                compiled.cache_key = key
                with self._lock:
                    self._cache.put(key, compiled)
            finally:
                with self._lock:
                    self._inflight.pop(key).set()
            span.set_attr("cache", MISS)
            _add_pass_spans(span, compiled.compile_stats, build_started)
            entry = self.record(
                "compile", job=label, key=key, cache=MISS,
                seconds=time.perf_counter() - started,
                compile=compiled.compile_stats.as_dict())
            return compiled, entry

    # ------------------------------------------------------------------ #
    # Simulation

    def simulate(self, compiled: CompiledProgram, machine=None,
                 tag: str = "", job: str = None, *,
                 crash: Optional[ChipCrash] = None,
                 watchdog_s: Optional[float] = None) -> SimulationResult:
        """Cycle-simulate ``compiled`` on ``machine`` to completion,
        memoized per (artifact, machine, tag).

        ``watchdog_s`` (defaulting to the session-wide budget) bounds the
        wall time, and ``crash`` arms a chip crash.  A crash perturbs
        nothing before it fires, so a faulted run is the clean run —
        memoized like any other — up to the crash, which fires when its
        chip is in the module and the clean run reaches its cycle
        (:meth:`ChipCrash.fires`): the ``simulate`` row then carries the
        error and :class:`~repro.sim.ChipFailure` is raised.
        """
        resolved = resolve_machine(
            machine if machine is not None
            else (compiled.options.machine or compiled.options.num_chips))
        token = compiled.cache_key or id(compiled)
        key = (token, resolved.name, repr(resolved.chip), tag)
        label = job or compiled.name
        deadline = watchdog_s if watchdog_s is not None else self.watchdog_s
        tr = tracer()
        with tr.start_span(
                f"simulate:{label}", kind="simulate",
                attrs={"machine": resolved.name, "tag": tag}) as span:
            started = time.perf_counter()

            def journal(cache, payload, **extra):
                self.record("simulate", job=label, machine=resolved.name,
                            tag=tag, cache=cache,
                            seconds=time.perf_counter() - started,
                            simulate=payload, **extra)

            with self._lock:
                result = self._sim_cache.get(key)
            # Memo hits keep their simulate span (joins the trace) but
            # no FU timeline: re-attaching the same lanes to every hit
            # would bloat exports N-fold.  With obs tracing on, a miss's
            # timeline is what this very run reserves.
            cache, events, sink = MEMORY_HIT, None, None
            if result is None:
                cache = MISS
                if span is not NULL_SPAN and tr.enabled \
                        and tr.capture_fu_timeline:
                    events, sink = recording_sink(
                        compiled.isa.streams,
                        self.FU_TIMELINE_LIMIT_PER_CHIP)
                try:
                    result = SimulatorEngine(resolved).run(
                        compiled.isa, deadline_s=deadline, sink=sink)
                except Exception as exc:
                    journal(MISS, None, error=f"{type(exc).__name__}: {exc}")
                    raise
                with self._lock:
                    self._sim_cache[key] = result
            fired = crash is not None and crash.fires(compiled.isa.streams,
                                                      result.cycles)
            cycles = crash.cycle if fired else result.cycles
            span.set_attr("cache", cache)
            span.set_attr("cycles", cycles)
            if events is not None:
                span.sim_events = [event for event in events
                                   if event.start < cycles] \
                    if fired else events
                span.sim_cycles = max(1, cycles)
            if fired:
                error = ChipFailure(
                    f"chip_crash on chip {crash.chip} of {resolved.name} "
                    f"at cycle {crash.cycle}", chip=crash.chip,
                    cycle=crash.cycle, machine=resolved.name)
                journal(cache, None, error=f"{type(error).__name__}: {error}")
                raise error
            journal(cache, result.as_dict() if cache == MISS else None)
            return result

    #: Cap on per-chip events captured into a span's FU timeline: it
    #: keeps one merged Chrome trace of a whole loadgen run in the tens
    #: of megabytes, not hundreds.
    FU_TIMELINE_LIMIT_PER_CHIP = 2500

    def record(self, kind: str, **fields) -> dict:
        """Append one row to the run trace (see
        :meth:`repro.runtime.trace.TraceRecorder.record`)."""
        return self._recorder.record(kind, **fields)

    def rows_since(self, cursor: int):
        """Trace rows from index ``cursor`` on, plus the next cursor (see
        :meth:`repro.runtime.trace.TraceRecorder.rows_since`)."""
        return self._recorder.rows_since(cursor)

    # ------------------------------------------------------------------ #
    # Batch execution

    def run(self, job: CompileJob) -> JobResult:
        """Compile (and optionally simulate) one job.

        When the job carries a :mod:`repro.obs` span, it is re-activated
        here so the compile/simulate child spans (and their journal
        rows) join the originating request's trace even though this runs
        on a worker-pool thread.
        """
        with tracer().use_span(job.span):
            compiled, entry = self._compile(
                job.program, job.params, job.machine, job.options,
                job.emit_isa, job.label, {})
            result = None
            if job.simulate and job.emit_isa:
                result = self.simulate(
                    compiled, job.sim_machine or job.machine, tag=job.tag,
                    job=job.label, crash=job.crash,
                    watchdog_s=job.watchdog_s)
            return JobResult(job=job.label, key=compiled.cache_key,
                             cache=entry["cache"], compiled=compiled,
                             result=result)

    def run_batch(self, jobs: Sequence[CompileJob],
                  max_workers: int = None) -> List[JobResult]:
        """Run independent jobs concurrently on a worker pool.

        Results come back in input order.  Identical in-flight compile
        requests are coalesced (the second worker waits for the first's
        artifact instead of recompiling).
        """
        jobs = list(jobs)
        if not jobs:
            return []
        workers = max_workers or self.max_workers or min(4, len(jobs))
        if workers <= 1:
            return [self.run(job) for job in jobs]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(self.run, jobs))

    # ------------------------------------------------------------------ #
    # Observability + cache management

    @property
    def cache_stats(self) -> CacheStats:
        return self._cache.stats

    def trace(self) -> dict:
        """The merged trace document (all jobs so far)."""
        return self._recorder.document(self._cache.stats.as_dict())

    def trace_json(self, indent: int = 2) -> str:
        return self._recorder.to_json(self._cache.stats.as_dict(),
                                      indent=indent)

    def export_trace(self, path) -> Path:
        """Write the merged trace JSON to ``path``; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.trace_json())
        return path

    def clear_trace(self) -> None:
        self._recorder.clear()

    def invalidate(self, key: Optional[str] = None) -> None:
        """Drop one compile artifact (or all of them) plus stale sims."""
        with self._lock:
            self._cache.invalidate(key)
            if key is None:
                self._sim_cache.clear()
            else:
                self._sim_cache = {
                    k: v for k, v in self._sim_cache.items() if k[0] != key
                }


# ---------------------------------------------------------------------- #
# The default session behind `repro.compile()`.

_DEFAULT_SESSION: Optional[CinnamonSession] = None
_DEFAULT_LOCK = threading.Lock()

#: Memory budget of the implicit facade session: enough for a couple of
#: bootstrap-sized artifacts without letting a long process grow unbounded.
_DEFAULT_CAPACITY = 4


def default_session() -> CinnamonSession:
    """The process-wide session used by :func:`repro.compile`."""
    global _DEFAULT_SESSION
    with _DEFAULT_LOCK:
        if _DEFAULT_SESSION is None:
            _DEFAULT_SESSION = CinnamonSession(capacity=_DEFAULT_CAPACITY)
        return _DEFAULT_SESSION


def compile_program(program: CinnamonProgram, params, machine=None,
                    session: CinnamonSession = None, tune=None,
                    **options) -> CompiledProgram:
    """Implementation of the :func:`repro.compile` facade.

    ``tune`` consults the persisted :class:`~repro.tune.TuningDB`:
    ``"db"``/``True`` applies an existing tuned config when one matches
    this (program, params, machine) and falls through otherwise;
    ``"quick"``/``"full"`` additionally tune on a DB miss (8 / 32 sampled
    candidates, each simulated to completion) before compiling with the
    winner.
    """
    sess = session or default_session()
    if tune:
        from ..tune import apply_tuning  # lazy: tune imports this module

        explicit = options.pop("options", None)
        overrides = {k: v for k, v in options.items()
                     if k not in ("emit_isa", "job")}
        base = sess._resolve_options(machine, explicit, overrides)
        tuned = apply_tuning(program, params, machine, base, tune,
                             session=sess)
        if tuned is not None:
            passthrough = {k: options[k] for k in ("emit_isa", "job")
                           if k in options}
            return sess.compile(program, params, options=tuned,
                                **passthrough)
        options = dict(options)
        if explicit is not None:
            options["options"] = explicit
    return sess.compile(program, params, machine=machine, **options)
