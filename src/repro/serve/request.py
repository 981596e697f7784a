"""Request/response types of the serving layer.

An :class:`InferenceRequest` is everything a client hands the server: the
DSL program, its parameters, the machine to lay it out for, plus service
metadata (deadline, tenant).  The server answers with a
:class:`RequestResult` carrying the outcome and a full latency breakdown;
clients wait on the :class:`RequestHandle` returned by ``submit``.
"""

from __future__ import annotations

import enum
import itertools
import threading
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..core.compiler import CompilerOptions
from ..sim.simulator import SimulationResult

_REQUEST_IDS = itertools.count(1)


class RequestStatus(str, enum.Enum):
    """Terminal state of one request."""

    OK = "ok"
    REJECTED = "rejected"    # admission queue saturated (backpressure)
    TIMEOUT = "timeout"      # deadline expired before execution finished
    FAILED = "failed"        # retries exhausted

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class InferenceRequest:
    """One encrypted-inference job as submitted by a client.

    ``deadline_s`` is relative to submission: a request still waiting (or
    dispatched but unfinished) past it resolves to ``TIMEOUT``.  ``name``
    labels the request in traces and metrics; ``tag`` distinguishes
    otherwise-identical simulations.
    """

    program: object                   # CinnamonProgram
    params: object
    machine: object = None
    options: Optional[CompilerOptions] = None
    deadline_s: Optional[float] = None
    simulate: bool = True
    tag: str = ""
    name: Optional[str] = None
    tenant: str = "default"           # billing unit (cluster_tenant_*)
    request_id: int = field(default_factory=lambda: next(_REQUEST_IDS))
    # repro.trust: the client's freshness claim (nonce + timestamp + seq,
    # checked by the router's ReplayGuard when set) and the evaluation-key
    # version the request is pinned to (None = whatever is active).
    envelope: object = None           # trust.freshness.FreshnessEnvelope
    key_version: Optional[int] = None

    # Filled in by the request lifecycle (repro.serve.lifecycle):
    key: Optional[str] = None         # compile fingerprint
    machine_name: Optional[str] = None
    submitted_at: Optional[float] = None  # monotonic
    dispatched_at: Optional[float] = None  # monotonic; None while queued
    attempts: int = 0                 # execution attempts so far
    # repro.obs spans carried across the thread hops of the data path
    # (admission thread -> shard or router loop -> executor):
    span: object = None               # root "serve" span of this request
    queue_span: object = None         # open while waiting for dispatch

    @property
    def batch_key(self) -> Tuple[Optional[str], str, bool]:
        """Requests with equal keys may share one batch: the same
        compile fingerprint, target machine and simulate flag."""
        return (self.key, self.machine_name or "", bool(self.simulate))

    @property
    def label(self) -> str:
        return self.name or getattr(self.program, "name", f"req-{self.request_id}")

    def expired(self, now: float) -> bool:
        return (self.deadline_s is not None
                and self.submitted_at is not None
                and now - self.submitted_at > self.deadline_s)


@dataclass
class LatencyBreakdown:
    """Where one request's wall time went (seconds)."""

    queue_s: float = 0.0        # admission queue wait for a free shard
    execute_s: float = 0.0      # compile + simulate inside the shard
    total_s: float = 0.0        # submit -> resolution

    def as_dict(self) -> dict:
        return {"queue_s": self.queue_s, "execute_s": self.execute_s,
                "total_s": self.total_s}


@dataclass
class RequestResult:
    """Outcome of one request."""

    request_id: int
    name: str
    status: RequestStatus
    latency: LatencyBreakdown = field(default_factory=LatencyBreakdown)
    attempts: int = 0               # execution attempts (1 = no retries)
    shard: Optional[int] = None
    batch_size: int = 0
    cache: Optional[str] = None     # miss | memory | disk
    cycles: Optional[int] = None
    sim: Optional[SimulationResult] = None
    compiled: object = None
    error: Optional[str] = None
    #: Per-request cost rollup for tenant attribution (schema 8):
    #: ``{"sim_cycles", "bootstraps", "bytes", "compile_s"}``.
    cost: Optional[dict] = None
    #: Monotonic stamps of the final execution attempt, as the executor
    #: saw it (``started`` is None if the request never ran).
    started: Optional[float] = None
    done: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.status is RequestStatus.OK

    def as_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "name": self.name,
            "status": self.status.value,
            "latency": self.latency.as_dict(),
            "attempts": self.attempts,
            "shard": self.shard,
            "batch_size": self.batch_size,
            "cache": self.cache,
            "cycles": self.cycles,
            "error": self.error,
            "cost": self.cost,
        }


def cost_rollup(program, cache: Optional[str], compiled, sim) -> dict:
    """Per-request cost attribution (schema 8): simulated cycles,
    bootstrap count, HBM+network bytes moved, and compile wall — the
    latter only on cache misses, so a hit is not billed for the compile
    some earlier request already paid for."""
    bootstraps = sum(1 for op in getattr(program, "ops", None) or ()
                     if getattr(op, "opcode", None) == "bootstrap")
    stats = getattr(compiled, "compile_stats", None)
    compile_s = (float(getattr(stats, "total_seconds", 0.0) or 0.0)
                 if cache == "miss" else 0.0)
    return {
        "sim_cycles": int(sim.cycles) if sim is not None else 0,
        "bootstraps": bootstraps,
        "bytes": (int(sim.hbm_bytes + sim.network_bytes)
                  if sim is not None else 0),
        "compile_s": compile_s,
    }


class RequestHandle:
    """Client-side future for one submitted request."""

    def __init__(self, request: InferenceRequest):
        self.request = request
        self._done = threading.Event()
        self._result: Optional[RequestResult] = None

    def resolve(self, result: RequestResult) -> None:
        self._result = result
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> RequestResult:
        """Block until the request resolves; raises ``TimeoutError`` if it
        does not within ``timeout`` seconds."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request.label!r} not resolved "
                f"within {timeout}s")
        return self._result
