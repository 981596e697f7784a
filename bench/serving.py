"""The two serving workloads: ``serve_warm`` and ``serve_thrash``.

Closed loop, two client threads (the box has two cores): each client
submits its next request when the previous one resolved, so a slower
front-end is offered less load.  Latency is the benchmark's own clock
from just before ``submit()`` to ``handle.result()`` returning.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from dataclasses import dataclass
from typing import List, Optional

from . import surface as lib
from .common import (Outcome, RunConfig, SetupClock, Tally, median,
                     peak_rss_mb, percentile)
from .spans import SpanRecorder

CLIENTS = 2
WARMUP_REQUESTS = 50
MACHINE = 2
QUICK_REQUESTS = 60
TRACE_REQUESTS = 300
RESULT_TIMEOUT_S = 120.0
NO_SPANS = SpanRecorder(enabled=False)


@dataclass
class Sample:
    """One resolved request as the client saw it."""

    cls: int
    total_s: float
    submit_s: float
    ok: bool
    cycles: Optional[int]
    queue_s: Optional[float]
    execute_s: Optional[float]
    attempts: int
    batch_size: int
    error: Optional[str]


def closed_loop(front, classes, picks, rec=NO_SPANS, *, seconds=None,
                layer="cluster") -> tuple:
    """Drive ``front`` with ``CLIENTS`` closed-loop clients until ``picks``
    (class indices, taken in submission order) runs out or ``seconds``
    elapsed.  Returns (samples, wall seconds)."""
    samples: List[Sample] = []
    lock = threading.Lock()
    deadline = None if seconds is None else time.perf_counter() + seconds

    def client():
        while True:
            with lock:
                if deadline is not None and time.perf_counter() >= deadline:
                    return
                cls = next(picks, None)
            if cls is None:
                return
            name, program, params = classes[cls]
            request = lib.InferenceRequest(program, params, machine=MACHINE,
                                           name=name)
            rid = request.request_id
            with rec.span("request", layer, request_id=rid) as root:
                start = time.perf_counter()
                with rec.span("serve.submit", "serve"):
                    handle = front.submit(request)
                submitted = time.perf_counter()
                result = handle.result(timeout=RESULT_TIMEOUT_S)
                done = time.perf_counter()
            latency = getattr(result, "latency", None)
            queue_s = getattr(latency, "queue_s", None)
            execute_s = getattr(latency, "execute_s", None)
            if rec.enabled and queue_s is not None and execute_s is not None:
                # What the front-end says happened inside the wait; the
                # root's self time is then the unattributed remainder.
                rec.add("serve.queue", "serve", submitted,
                        submitted + queue_s, root, rid)
                rec.add("serve.execute", "runtime", submitted + queue_s,
                        submitted + queue_s + execute_s, root, rid)
            sample = Sample(cls, done - start, submitted - start, result.ok,
                            result.cycles, queue_s, execute_s,
                            result.attempts, result.batch_size, result.error)
            with lock:
                samples.append(sample)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples, time.perf_counter() - started


def _draws(rng: random.Random, classes):
    """Endless uniform class indices."""
    return iter(lambda: rng.randrange(len(classes)), None)


def _check(samples, tally: Tally, cycles: dict) -> None:
    """A request is a failed operation unless it resolved OK with the same
    simulated cycles as every other request of its class."""
    for s in samples:
        problem = None
        if not s.ok:
            problem = f"class {s.cls}: request not OK: {s.error}"
        elif s.cycles != cycles.setdefault(s.cls, s.cycles):
            problem = (f"class {s.cls}: {s.cycles} cycles, earlier "
                       f"{cycles[s.cls]}")
        tally.op(problem)


class _Front:
    """Builds, warms and tears down one front-end; building and warming
    are charged to set-up.  The warm-up sends one request of every class
    in order (so every program is compiled once wherever the router places
    it, and its cycles are on record), then seeded draws up to
    ``WARMUP_REQUESTS``."""

    def __init__(self, cfg: RunConfig, setup: SetupClock, build, classes,
                 tally: Tally, cycles: dict):
        rest = max(0, WARMUP_REQUESTS - len(classes))
        picks = itertools.chain(
            range(len(classes)),
            itertools.islice(_draws(random.Random(cfg.seed), classes), rest))
        with setup.phase():
            self.front = build().start()
            try:
                ready = getattr(self.front, "wait_ready", None)
                if ready is not None and not ready():
                    raise RuntimeError("cluster workers did not come up")
                samples, _ = closed_loop(self.front, classes, picks)
            except BaseException:
                self.close()
                raise
        _check(samples, tally, cycles)

    def __enter__(self):
        return self.front

    def __exit__(self, *exc):
        self.close()

    def close(self):
        self.front.shutdown(drain=True, timeout=30)


def _pass(cfg: RunConfig, front, classes, tally: Tally, cycles: dict,
          share: float, layer: str, salt: int):
    """One timed closed-loop pass over ``share`` of the run's seconds."""
    picks = _draws(random.Random(cfg.seed * 1000 + salt), classes)
    seconds = None
    if cfg.quick:
        picks = itertools.islice(picks, QUICK_REQUESTS)
    elif cfg.trace:
        picks = itertools.islice(picks, TRACE_REQUESTS)
    else:
        seconds = cfg.seconds * share
    samples, wall = closed_loop(front, classes, picks, cfg.recorder,
                                seconds=seconds, layer=layer)
    _check(samples, tally, cycles)
    totals_ms = [1e3 * s.total_s for s in samples]
    return samples, {
        "p50_ms": median(totals_ms),
        "p95_ms": percentile(totals_ms, 0.95),
        "p99_ms": percentile(totals_ms, 0.99),
        "rps": sum(1 for s in samples if s.ok) / wall,
    }


def _layer_metrics(samples, before: dict, after: dict, front) -> dict:
    """Per-layer view of one traced pass.  Queue and execute come from
    ``RequestResult.latency``; a front-end that stops reporting them
    drops those metrics, it does not fail the run."""
    out = {
        "serve.submit_us_p50": 1e6 * median(s.submit_s for s in samples),
        "serve.retries": sum(max(0, s.attempts - 1) for s in samples),
        "obs.journal_rows": len(front.trace().get("jobs", ())),
    }
    reported = [s for s in samples
                if s.queue_s is not None and s.execute_s is not None]
    if reported:
        out["serve.queue_ms_p50"] = 1e3 * median(s.queue_s for s in reported)
        out["serve.execute_ms_p50"] = 1e3 * median(
            s.execute_s for s in reported)
        out["cluster.overhead_ms_p50"] = 1e3 * median(
            s.total_s - s.queue_s - s.execute_s for s in reported)
    delta = {k: after.get(k, 0) - before.get(k, 0)
             for k in ("memory_hits", "disk_hits", "misses", "evictions")}
    lookups = delta["memory_hits"] + delta["disk_hits"] + delta["misses"]
    out["runtime.memory_hits"] = delta["memory_hits"]
    out["runtime.misses"] = delta["misses"]
    out["runtime.evictions"] = delta["evictions"]
    out["runtime.miss_ratio"] = delta["misses"] / max(1, lookups)
    return out


def _serve(cfg: RunConfig, tally: Tally, setup: SetupClock, classes,
           build_cluster, build_inproc=None) -> Outcome:
    out = Outcome()
    cycles: dict = {}
    share = 0.6 if build_inproc else 1.0
    measure = not cfg.setup_only

    with _Front(cfg, setup, build_cluster, classes, tally, cycles) as router:
        if measure:
            before = router.cache_stats() if cfg.trace else {}
            samples, stats = _pass(cfg, router, classes, tally, cycles,
                                   share, "cluster", 1)
            out.metrics.update(req_p50_ms=stats["p50_ms"],
                               req_p95_ms=stats["p95_ms"],
                               throughput_rps=stats["rps"])
            out.counts["requests"] = len(samples)
            if cfg.trace:
                out.layers = _layer_metrics(samples, before,
                                            router.cache_stats(), router)
                out.layers["serve.req_p99_ms"] = stats["p99_ms"]

    if build_inproc:
        with _Front(cfg, setup, build_inproc, classes, tally, cycles) as server:
            if measure:
                samples, stats = _pass(cfg, server, classes, tally, cycles,
                                       1 - share, "serve", 2)
                out.metrics.update(inproc_req_p50_ms=stats["p50_ms"],
                                   inproc_throughput_rps=stats["rps"])
                out.counts["inproc_requests"] = len(samples)
                if cfg.trace:
                    out.layers["serve.batch_size_mean"] = (
                        sum(s.batch_size for s in samples) / len(samples))

    if measure and cfg.trace:
        # The library's own tracing has to be on before a front-end is
        # built, so its cost is read off a second, traced cluster (last,
        # so nothing above runs traced).
        lib.enable_tracing()
        unbilled = SetupClock(time.perf_counter())
        with _Front(cfg, unbilled, build_cluster, classes, tally,
                    cycles) as router:
            _, stats = _pass(cfg, router, classes, tally, cycles, share,
                             "cluster", 3)
        out.layers["obs.tracing_overhead_frac"] = (
            1 - stats["rps"] / out.metrics["throughput_rps"])

    if measure:
        out.metrics["sim_cycles"] = sum(cycles.values())
        out.metrics["peak_rss_mb"] = peak_rss_mb()
    return out


def serve_warm(cfg: RunConfig, tally: Tally, setup: SetupClock) -> Outcome:
    with setup.phase():
        classes = [(name, entry.build(), entry.params)
                   for name, entry in lib.serving_mix("small").items()]
    return _serve(
        cfg, tally, setup, classes,
        lambda: lib.ClusterRouter(num_workers=2, capacity=16),
        lambda: lib.CinnamonServer(num_workers=2, capacity=16))


def serve_thrash(cfg: RunConfig, tally: Tally, setup: SetupClock) -> Outcome:
    with setup.phase():
        params = lib.ArchParams(max_level=16)
        classes = [(f"qkv{i}", lib.matmul_kernel(f"qkv{i}", 6 + i, 6), params)
                   for i in range(12)]
    return _serve(
        cfg, tally, setup, classes,
        lambda: lib.ClusterRouter(num_workers=2, capacity=1,
                                  disk_cache=False))
