"""Encrypted-inference serving layer over :mod:`repro.runtime`.

The ROADMAP's "serve heavy traffic" layer: :class:`CinnamonServer` runs
inference requests through a shard pool of cached
:class:`~repro.runtime.CinnamonSession` workers with

* a bounded FIFO admission queue with explicit backpressure
  (:class:`~repro.serve.queue.QueueSaturatedError`) and graceful drain;
* batching from the backlog: a free shard takes the oldest request it
  owns plus the same-fingerprint/machine requests queued behind it, up
  to ``max_batch`` — no batching window;
* per-request deadlines and retry with exponential backoff + jitter;
* machine-level fault tolerance: a chip killed mid-simulation (scripted
  by a :class:`FaultInjector`) triggers a degraded-mode recompile onto
  fewer chips (:func:`~repro.serve.executor.descend_ladder`) and a
  transparent replay — the request still resolves ``OK``;
* a counter/gauge/histogram :class:`MetricsRegistry` with Prometheus
  text exposition and JSON snapshots, plus ``serve`` entries in the
  runtime trace schema;
* a load generator (``python -m repro.serve.loadgen``) replaying the
  paper's workload mix in open-loop (Poisson) or closed-loop mode.

Quick start::

    from repro.serve import CinnamonServer, InferenceRequest

    with CinnamonServer(num_workers=4, default_machine="cinnamon_4") as srv:
        handle = srv.submit(InferenceRequest(program, params))
        print(handle.result().latency.total_s)
"""

from .faults import Fault, FaultInjector
from ..obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from .queue import AdmissionQueue, QueueClosedError, QueueSaturatedError
from .request import (
    InferenceRequest,
    LatencyBreakdown,
    RequestHandle,
    RequestResult,
    RequestStatus,
)
from .lifecycle import ServerClosedError
from .server import CinnamonServer, serve_requests


def __getattr__(name):
    """Lazy loadgen exports: keep ``python -m repro.serve.loadgen`` free
    of the double-import RuntimeWarning runpy emits when the submodule
    is already bound at package import time."""
    if name in ("LoadGenerator", "LoadReport"):
        from . import loadgen

        value = getattr(loadgen, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro.serve' has no attribute {name!r}")


__all__ = [
    "CinnamonServer",
    "serve_requests",
    "InferenceRequest",
    "RequestResult",
    "RequestHandle",
    "RequestStatus",
    "LatencyBreakdown",
    "AdmissionQueue",
    "QueueSaturatedError",
    "QueueClosedError",
    "ServerClosedError",
    "FaultInjector",
    "Fault",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "LoadGenerator",
    "LoadReport",
]
