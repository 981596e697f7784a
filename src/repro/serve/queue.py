"""Bounded, prioritized admission queue with explicit backpressure.

The front door of :class:`~repro.serve.CinnamonServer`.  Unlike
``queue.PriorityQueue``, saturation is an *immediate, explicit* rejection
(:class:`QueueSaturatedError`) rather than blocking the client — the
serving contract is "shed load visibly, never hang" — and closing the
queue lets producers drain gracefully: no new work is admitted but
everything already queued is still handed out.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import List, Optional, Tuple

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
    """Thread-safe bounded priority queue of inference requests.

    Ordering is (priority, admission sequence): within a priority class
    the queue is FIFO, so equal-priority requests cannot starve each
    other.  ``maxsize <= 0`` means unbounded (the loadgen's closed loop
    uses this).  Subclasses override ``_admit`` and the storage hooks
    (``_heap_for``/``_pop``/``_depth``); the lock, the wait loop and the
    close/drain contract live here.
    """

    def __init__(self, maxsize: int = 0):
        self.maxsize = maxsize
        self._heap: List[Tuple[int, int, InferenceRequest]] = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    # ------------------------------------------------------------------ #

    def put(self, request: InferenceRequest) -> None:
        """Admit ``request`` or raise (never blocks)."""
        with self._lock:
            self._admit(request)
            self._enqueue(request)

    def _admit(self, request: InferenceRequest) -> None:
        if self._closed:
            raise QueueClosedError("admission queue is closed")
        depth = self._depth()
        if self.maxsize > 0 and depth >= self.maxsize:
            raise QueueSaturatedError(depth, self.maxsize)

    def _enqueue(self, request: InferenceRequest) -> None:
        heapq.heappush(
            self._heap_for(request),
            (int(request.priority), next(self._seq), request))
        self._not_empty.notify()

    def _heap_for(self, request: InferenceRequest) -> list:
        return self._heap

    def _pop(self) -> Optional[InferenceRequest]:
        return heapq.heappop(self._heap)[2] if self._heap else None

    def _depth(self) -> int:
        return len(self._heap)

    def get(self, timeout: Optional[float] = None) -> InferenceRequest:
        """Pop the next request, waiting up to ``timeout``.

        Raises :class:`Empty` on timeout, or immediately once the queue
        is both closed and drained.
        """
        with self._not_empty:
            while True:
                request = self._pop()
                if request is not None:
                    return request
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
            return self._depth()

    def __len__(self) -> int:
        return self.depth()
