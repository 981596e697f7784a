"""Bounded FIFO admission queue with explicit backpressure.

The front door of both serving front ends,
:class:`~repro.serve.CinnamonServer` and
:class:`~repro.cluster.ClusterRouter`.  Unlike ``queue.Queue``,
saturation is an *immediate, explicit* rejection
(:class:`QueueSaturatedError`) rather than blocking the client — the
serving contract is "shed load visibly, never hang" — and closing the
queue lets producers drain gracefully: no new work is admitted but
everything already queued is still handed out.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Optional

from .request import InferenceRequest


class QueueSaturatedError(RuntimeError):
    """Raised by ``put`` when the queue is at capacity (backpressure)."""

    def __init__(self, depth: int, maxsize: int):
        super().__init__(
            f"admission queue saturated ({depth}/{maxsize}); request "
            f"rejected — retry with backoff or raise queue_depth")
        self.depth = depth
        self.maxsize = maxsize


class QueueClosedError(RuntimeError):
    """Raised by ``put`` after ``close()`` (server shutting down)."""


class Empty(Exception):
    """Raised by ``get`` on timeout or when a closed queue runs dry."""


class AdmissionQueue:
    """Thread-safe bounded FIFO queue of inference requests.

    Requests dequeue in admission order, so none can starve another.
    ``maxsize <= 0`` means unbounded (the loadgen's closed loop uses
    this).
    """

    def __init__(self, maxsize: int = 0):
        self.maxsize = maxsize
        self._items: Deque[InferenceRequest] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    # ------------------------------------------------------------------ #

    def put(self, request: InferenceRequest, force: bool = False) -> None:
        """Admit ``request`` or raise (never blocks).

        ``force`` is a front-end's internal requeue path (a cluster
        failover, a park while no worker is live): it skips the closed
        check and the depth bound, because the request was admitted
        once already and must not be dropped by a drain that began
        meanwhile.
        """
        with self._lock:
            if not force:
                if self._closed:
                    raise QueueClosedError("admission queue is closed")
                depth = len(self._items)
                if self.maxsize > 0 and depth >= self.maxsize:
                    raise QueueSaturatedError(depth, self.maxsize)
            self._items.append(request)
            self._not_empty.notify()

    def get(self, timeout: Optional[float] = None) -> InferenceRequest:
        """Pop the next request, waiting up to ``timeout``.

        Raises :class:`Empty` on timeout, or immediately once the queue
        is both closed and drained.
        """
        with self._not_empty:
            while True:
                if self._items:
                    return self._items.popleft()
                if self._closed:
                    raise Empty
                if not self._not_empty.wait(timeout):
                    raise Empty

    def close(self) -> None:
        """Stop admitting; queued requests remain retrievable."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    # ------------------------------------------------------------------ #

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    def __len__(self) -> int:
        return self.depth()
