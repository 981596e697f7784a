"""Request freshness: nonce + timestamp envelopes and replay windows.

A :class:`FreshnessEnvelope` travels with a request (and with every
``submit`` frame of the :mod:`repro.cluster` wire protocol): a random
nonce, the sender's wall-clock issue time, and a per-sender monotonic
sequence number.  The receiving side holds a :class:`ReplayGuard` with a
bounded window:

* a nonce seen again inside the window  -> :class:`ReplayError`
  (``nonce-reuse``) — the classic capture-and-resend;
* a sequence number at or below the sender's watermark ->
  :class:`ReplayError` (``sequence-reorder``) — an attacker re-ordering
  or re-injecting captured frames;
* a timestamp older than the window (or further in the future than the
  allowed skew) -> :class:`StaleRequestError` — outside the window the
  nonce set no longer vouches for uniqueness, so the request cannot be
  accepted at all.

The guard's memory is bounded: expired nonces are pruned on every check,
and ``max_nonces`` caps the set against a flood (when full, the entries
issued earliest fall out *and* the window conservatively shrinks to what
is still covered: an envelope issued at or before the newest forgotten
issue time is stale — never accept what we can no longer vouch for).

A check costs the same however many nonces are tracked.  A nonce
expires at its check time plus the window, so while the clock moves
forward the expired nonces are a prefix of the insertion order and
pruning pops them off the front (amortised O(1)); a nonce checked after
a clock step back expires before ones already tracked and waits in a
heap instead (O(log n)).  Overflow pops the earliest-issued nonce off a
second heap (O(log n)).  The queues drop their entries lazily and are
rebuilt from the table once stale entries outnumber live ones, so they
stay within a constant multiple of the table.
"""

from __future__ import annotations

import heapq
import secrets
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from .errors import ReplayError, StaleRequestError

#: Default replay window: how long a nonce is remembered and how old an
#: envelope may be.
DEFAULT_WINDOW_S = 30.0
#: Default tolerated forward clock skew.
DEFAULT_SKEW_S = 5.0


@dataclass
class FreshnessEnvelope:
    """One request's freshness claim (see module docstring)."""

    nonce: str
    issued_unix: float
    seq: int = 0
    sender: str = ""

    def as_header_fields(self) -> dict:
        """The wire representation merged into a frame header."""
        return {"nonce": self.nonce, "issued_unix": self.issued_unix,
                "seq": self.seq, "sender": self.sender}

    @classmethod
    def from_header(cls, header: dict) -> Optional["FreshnessEnvelope"]:
        """Parse the envelope out of a frame header (None if absent)."""
        nonce = header.get("nonce")
        if not nonce:
            return None
        return cls(nonce=str(nonce),
                   issued_unix=float(header.get("issued_unix", 0.0)),
                   seq=int(header.get("seq", 0)),
                   sender=str(header.get("sender", "")))


class EnvelopeMinter:
    """Per-sender envelope factory: fresh nonce, current time, strictly
    increasing sequence numbers."""

    def __init__(self, sender: str = ""):
        self.sender = sender
        self._lock = threading.Lock()
        self._seq = 0

    def mint(self) -> FreshnessEnvelope:
        with self._lock:
            self._seq += 1
            seq = self._seq
        return FreshnessEnvelope(nonce=secrets.token_hex(8),
                                 issued_unix=time.time(), seq=seq,
                                 sender=self.sender)


class ReplayGuard:
    """Bounded-window replay/reorder/staleness detector (thread-safe)."""

    def __init__(self, window_s: float = DEFAULT_WINDOW_S,
                 skew_s: float = DEFAULT_SKEW_S,
                 max_nonces: int = 65536, enforce_sequence: bool = True,
                 clock=time.time):
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = window_s
        self.skew_s = skew_s
        self.max_nonces = max_nonces
        self.enforce_sequence = enforce_sequence
        self._clock = clock
        self._lock = threading.Lock()
        # nonce -> (expiry, issued_unix, insertion number).  The number
        # tells a live entry of the queues below from a stale one left
        # by an earlier insertion of the same nonce.
        self._nonces: Dict[str, Tuple[float, float, int]] = {}
        self._inserted = 0
        # (expiry, number, nonce) with expiries non-decreasing: the
        # insertion order while the clock moves forward.  An entry that
        # would break it (inserted after a clock step back) goes to the
        # heap _late.
        self._expiring: Deque[Tuple[float, int, str]] = deque()
        self._late: List[Tuple[float, int, str]] = []
        # (issued_unix, number, nonce): the overflow victim is its head;
        # ties go to the earliest inserted.
        self._by_issue: List[Tuple[float, int, str]] = []
        # Newest issue time evicted on overflow; at or before it the
        # nonce table no longer vouches for uniqueness.
        self._horizon = float("-inf")
        self._watermarks: Dict[str, int] = {}      # sender -> highest seq
        self.checked = 0
        self.rejected: Dict[str, int] = {
            "nonce-reuse": 0, "sequence-reorder": 0, "stale": 0}

    # ------------------------------------------------------------------ #

    def check(self, envelope: FreshnessEnvelope) -> None:
        """Admit one envelope or raise the matching typed error."""
        now = self._clock()
        with self._lock:
            self.checked += 1
            self._prune(now)
            age = now - envelope.issued_unix
            # Written so that a NaN timestamp is stale, not admitted.
            if not -self.skew_s <= age <= self.window_s:
                self.rejected["stale"] += 1
                raise StaleRequestError(age, self.window_s)
            if envelope.nonce in self._nonces:
                self.rejected["nonce-reuse"] += 1
                raise ReplayError("nonce-reuse", nonce=envelope.nonce,
                                  sender=envelope.sender)
            if envelope.issued_unix <= self._horizon:
                # Inside the window, but the table overflowed past it:
                # the effective window has shrunk to the horizon.
                self.rejected["stale"] += 1
                raise StaleRequestError(age, now - self._horizon)
            if self.enforce_sequence and envelope.sender:
                watermark = self._watermarks.get(envelope.sender)
                if watermark is not None and envelope.seq <= watermark:
                    self.rejected["sequence-reorder"] += 1
                    raise ReplayError("sequence-reorder",
                                      nonce=envelope.nonce,
                                      sender=envelope.sender)
                self._watermarks[envelope.sender] = envelope.seq
            self._insert(envelope.nonce, now + self.window_s,
                         envelope.issued_unix)
            if len(self._nonces) > self.max_nonces:
                self._evict_oldest()

    def _insert(self, nonce: str, expiry: float, issued: float) -> None:
        self._inserted += 1
        number = self._inserted
        self._nonces[nonce] = (expiry, issued, number)
        if not self._expiring or expiry >= self._expiring[-1][0]:
            self._expiring.append((expiry, number, nonce))
        else:
            heapq.heappush(self._late, (expiry, number, nonce))
        heapq.heappush(self._by_issue, (issued, number, nonce))
        # Each live entry sits in two queues; rebuild once the stale
        # ones outnumber them (amortised O(1) per insert).
        if len(self._by_issue) + len(self._expiring) + len(self._late) \
                > 4 * len(self._nonces) + 128:
            self._rebuild_queues()

    def _forget(self, number: int, nonce: str) -> Optional[float]:
        """Drop ``nonce`` if its entry is insertion ``number``; returns
        its issue time, or ``None`` for a stale queue entry."""
        entry = self._nonces.get(nonce)
        if entry is None or entry[2] != number:
            return None
        del self._nonces[nonce]
        return entry[1]

    def _prune(self, now: float) -> None:
        """Forget every nonce whose expiry is at or before ``now``."""
        expiring, late = self._expiring, self._late
        while expiring and expiring[0][0] <= now:
            _expiry, number, nonce = expiring.popleft()
            self._forget(number, nonce)
        while late and late[0][0] <= now:
            _expiry, number, nonce = heapq.heappop(late)
            self._forget(number, nonce)

    def _evict_oldest(self) -> None:
        """Forget the earliest-issued nonces past ``max_nonces`` and
        raise the horizon over them."""
        while len(self._nonces) > self.max_nonces:
            _issued, number, nonce = heapq.heappop(self._by_issue)
            issued = self._forget(number, nonce)
            if issued is not None:
                self._horizon = max(self._horizon, issued)

    def _rebuild_queues(self) -> None:
        """Rebuild the three queues from the live table (drops the
        stale entries pruning and eviction left behind)."""
        live = [(expiry, number, nonce) for nonce, (expiry, _issued, number)
                in self._nonces.items()]
        live.sort()
        self._expiring = deque(live)
        self._late = []
        self._by_issue = [(issued, number, nonce)
                          for nonce, (_expiry, issued, number)
                          in self._nonces.items()]
        heapq.heapify(self._by_issue)

    # ------------------------------------------------------------------ #

    def seen(self, nonce: str) -> bool:
        with self._lock:
            return nonce in self._nonces

    def stats(self) -> dict:
        with self._lock:
            return {"checked": self.checked,
                    "tracked_nonces": len(self._nonces),
                    "rejected": dict(self.rejected)}
