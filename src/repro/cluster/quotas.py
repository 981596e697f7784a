"""Per-tenant token-bucket quotas and fair-share admission.

The cluster front door layers two policies over the single-server
:class:`~repro.serve.queue.AdmissionQueue` (same lock, wait loop,
exceptions and close/drain contract — :class:`FairShareQueue` is a
subclass):

* **Token-bucket quotas** — each tenant owns a bucket refilled at
  ``rate_per_s`` up to ``burst``; an empty bucket rejects the submit
  with :class:`QuotaExceededError` (explicit backpressure, never
  blocking, exactly like queue saturation).
* **Fair share** — dequeue round-robins across tenants that have queued
  work, so one chatty tenant cannot starve the others even when its
  quota admits a flood.  Within a tenant, ordering is the familiar
  (priority, admission sequence).

``put(..., force=True)`` bypasses the closed check *and* quotas: it is
the router's internal requeue path for failover after a worker death —
a request already admitted once must not be double-charged or dropped
because the queue closed for drain meanwhile.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..serve.queue import (AdmissionQueue, Empty, QueueClosedError,
                           QueueSaturatedError)
from ..serve.request import InferenceRequest

__all__ = [
    "TenantQuota", "TokenBucket", "QuotaExceededError", "FairShareQueue",
    "Empty", "QueueClosedError", "QueueSaturatedError",
]


class QuotaExceededError(RuntimeError):
    """Raised by ``put`` when the tenant's token bucket is empty."""

    def __init__(self, tenant: str, retry_after_s: float):
        super().__init__(
            f"tenant {tenant!r} exceeded its request quota; "
            f"retry in ~{retry_after_s:.2f}s")
        self.tenant = tenant
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class TenantQuota:
    """Admission budget for one tenant.

    ``rate_per_s`` is the sustained request rate; ``burst`` the bucket
    capacity (how far a tenant may run ahead of its sustained rate).
    """

    rate_per_s: float
    burst: float

    def bucket(self, clock=time.monotonic) -> "TokenBucket":
        return TokenBucket(self.rate_per_s, self.burst, clock=clock)


class TokenBucket:
    """Classic token bucket; thread-safe; monotonic-clock driven."""

    def __init__(self, rate_per_s: float, burst: float,
                 clock=time.monotonic):
        if rate_per_s <= 0 or burst <= 0:
            raise ValueError("rate_per_s and burst must be positive")
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._stamp)
        self._stamp = now
        self._tokens = min(self.burst,
                           self._tokens + elapsed * self.rate_per_s)

    def try_acquire(self, tokens: float = 1.0) -> bool:
        with self._lock:
            self._refill(self._clock())
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    def retry_after_s(self, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` would be available."""
        with self._lock:
            self._refill(self._clock())
            deficit = tokens - self._tokens
            return max(0.0, deficit / self.rate_per_s)

    @property
    def tokens(self) -> float:
        with self._lock:
            self._refill(self._clock())
            return self._tokens


class FairShareQueue(AdmissionQueue):
    """Bounded multi-tenant admission queue with round-robin dequeue.

    An :class:`~repro.serve.queue.AdmissionQueue` plus tenant awareness:
    ``maxsize`` bounds the *total* queued depth across tenants; quotas
    bound per-tenant admission *rate*.
    """

    def __init__(self, maxsize: int = 0,
                 quotas: Optional[Dict[str, TenantQuota]] = None,
                 default_quota: Optional[TenantQuota] = None,
                 clock=time.monotonic):
        super().__init__(maxsize)
        self.default_quota = default_quota
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        for tenant, quota in (quotas or {}).items():
            self._buckets[tenant] = quota.bucket(clock)
        self._heaps: Dict[str, List[Tuple[int, int, InferenceRequest]]] = {}
        self._rotation: List[str] = []   # round-robin order of tenants
        self.rejected_quota = 0          # counters for the cluster view
        self.rejected_saturated = 0

    # ------------------------------------------------------------------ #

    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        with self._lock:
            self._buckets[tenant] = quota.bucket(self._clock)

    def _bucket_for(self, tenant: str) -> Optional[TokenBucket]:
        bucket = self._buckets.get(tenant)
        if bucket is None and self.default_quota is not None:
            bucket = self.default_quota.bucket(self._clock)
            self._buckets[tenant] = bucket
        return bucket

    def put(self, request: InferenceRequest, force: bool = False) -> None:
        """Admit ``request`` or raise (never blocks).

        ``force`` is the internal requeue path: skips the closed check,
        the depth bound and the quota charge (the request was already
        admitted once).
        """
        with self._lock:
            if not force:
                self._admit(request)
            self._enqueue(request)

    def _admit(self, request: InferenceRequest) -> None:
        try:
            super()._admit(request)
        except QueueSaturatedError:
            self.rejected_saturated += 1
            raise
        bucket = self._bucket_for(request.tenant)
        if bucket is not None and not bucket.try_acquire():
            self.rejected_quota += 1
            raise QuotaExceededError(request.tenant, bucket.retry_after_s())

    def _heap_for(self, request: InferenceRequest) -> list:
        heap = self._heaps.get(request.tenant)
        if heap is None:
            heap = self._heaps[request.tenant] = []
            self._rotation.append(request.tenant)
        return heap

    def _pop(self) -> Optional[InferenceRequest]:
        """Pop from the next tenant in round-robin order."""
        for index, tenant in enumerate(self._rotation):
            heap = self._heaps.get(tenant)
            if heap:
                request = heapq.heappop(heap)[2]
                # Served tenant goes to the back of the rotation.
                self._rotation.append(self._rotation.pop(index))
                return request
        return None

    def _depth(self) -> int:
        return sum(len(h) for h in self._heaps.values())

    def depth_by_tenant(self) -> Dict[str, int]:
        with self._lock:
            return {tenant: len(heap)
                    for tenant, heap in self._heaps.items() if heap}
