"""Bounded FIFO admission queue with explicit backpressure.

The front door of both serving front ends,
:class:`~repro.serve.CinnamonServer` and
:class:`~repro.cluster.ClusterRouter`.  Unlike ``queue.Queue``,
saturation is an *immediate, explicit* rejection
(:class:`QueueSaturatedError`) rather than blocking the client — the
serving contract is "shed load visibly, never hang" — and closing the
queue lets producers drain gracefully: no new work is admitted but
everything already queued is still handed out.

It is also the in-process server's only queue: a free shard takes
(:meth:`AdmissionQueue.take`) the oldest request it owns together with
the same-key requests queued behind it, so a batch is whatever backlog
has formed by itself, and ``maxsize`` bounds every request no shard has
taken yet.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, List, Optional

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

    def put(self, request: InferenceRequest) -> None:
        """Admit ``request`` or raise (never blocks)."""
        with self._lock:
            if self._closed:
                raise QueueClosedError("admission queue is closed")
            depth = len(self._items)
            if self.maxsize > 0 and depth >= self.maxsize:
                raise QueueSaturatedError(depth, self.maxsize)
            self._items.append(request)
            # Every waiter: a shard woken for a request it does not own
            # would go back to sleep and strand the request.
            self._not_empty.notify_all()

    def get(self, timeout: Optional[float] = None) -> InferenceRequest:
        """Pop the oldest request, waiting up to ``timeout``.

        Raises :class:`Empty` on timeout, or immediately once the queue
        is both closed and drained.
        """
        return self.take(timeout=timeout)[0]

    def take(self, owns: Optional[Callable[[InferenceRequest], bool]]
             = None, max_batch: int = 1,
             timeout: Optional[float] = None) -> List[InferenceRequest]:
        """Pop the oldest request ``owns`` accepts (any, when ``None``)
        plus every later queued request with its
        :attr:`~InferenceRequest.batch_key`, at most ``max_batch`` in
        all, in queue order; wait up to ``timeout`` for one.

        Raises :class:`Empty` on timeout, or immediately once the queue
        is closed and holds nothing ``owns`` accepts.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_empty:
            while True:
                batch = self._pop(owns, max_batch)
                if batch:
                    return batch
                if self._closed:
                    raise Empty
                left = (None if deadline is None
                        else deadline - time.monotonic())
                if left is not None and left <= 0:
                    raise Empty
                self._not_empty.wait(left)

    def _pop(self, owns, limit: int) -> List[InferenceRequest]:
        """The one scan behind :meth:`take`; caller holds the lock."""
        key = None
        taken = []
        for index, request in enumerate(self._items):
            if key is None and (owns is None or owns(request)):
                key = request.batch_key
            if key is not None and request.batch_key == key:
                taken.append(index)
                if len(taken) >= limit:
                    break
        batch = [self._items[index] for index in taken]
        for index in reversed(taken):
            del self._items[index]
        return batch

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
