"""ReplayGuard against the guard it replaced, and what a check costs.

``OracleGuard`` is the nonce table as it was before pruning and overflow
became constant work per check: it rebuilt the whole table on every check
and sorted it on every overflowing insert.  Its decisions are the
specification; the guard must take the same one, for the same reason,
on any sequence of envelopes and clock moves.
"""

import math
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.trust.errors import ReplayError, StaleRequestError
from repro.trust.freshness import FreshnessEnvelope, ReplayGuard

T0 = 1_700_000_000.0


class OracleGuard:
    """The replay guard before constant-work pruning (see module
    docstring), kept verbatim but for its lock."""

    def __init__(self, window_s=30.0, skew_s=5.0, max_nonces=65536,
                 enforce_sequence=True, clock=None):
        self.window_s = window_s
        self.skew_s = skew_s
        self.max_nonces = max_nonces
        self.enforce_sequence = enforce_sequence
        self._clock = clock
        self._lock = threading.Lock()
        self._nonces = {}
        self._horizon = float("-inf")
        self._watermarks = {}
        self.checked = 0
        self.rejected = {"nonce-reuse": 0, "sequence-reorder": 0, "stale": 0}

    def check(self, envelope):
        now = self._clock()
        with self._lock:
            self.checked += 1
            self._prune(now)
            age = now - envelope.issued_unix
            if age > self.window_s or age < -self.skew_s:
                self.rejected["stale"] += 1
                raise StaleRequestError(age, self.window_s)
            if envelope.nonce in self._nonces:
                self.rejected["nonce-reuse"] += 1
                raise ReplayError("nonce-reuse", nonce=envelope.nonce,
                                  sender=envelope.sender)
            if envelope.issued_unix <= self._horizon:
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
            self._nonces[envelope.nonce] = (now + self.window_s,
                                            envelope.issued_unix)
            if len(self._nonces) > self.max_nonces:
                self._evict_oldest()

    def _prune(self, now):
        if len(self._nonces) < 64:
            for nonce, (expiry, _issued) in list(self._nonces.items()):
                if expiry <= now:
                    del self._nonces[nonce]
            return
        self._nonces = {nonce: entry
                        for nonce, entry in self._nonces.items()
                        if entry[0] > now}

    def _evict_oldest(self):
        overflow = len(self._nonces) - self.max_nonces
        evicted = sorted(self._nonces,
                         key=lambda nonce: self._nonces[nonce][1])[:overflow]
        for nonce in evicted:
            self._horizon = max(self._horizon, self._nonces.pop(nonce)[1])

    def stats(self):
        return {"checked": self.checked,
                "tracked_nonces": len(self._nonces),
                "rejected": dict(self.rejected)}


def decide(guard, envelope):
    """``None`` (admitted) or the rejection: type, reason and message."""
    try:
        guard.check(envelope)
    except (ReplayError, StaleRequestError) as exc:
        return type(exc).__name__, getattr(exc, "reason", None), str(exc)
    return None


# One step: move the clock (forward, or back as after an NTP step), or
# check an envelope.  An envelope's nonce is drawn from a small pool so
# replays are common; its age from fresh, window-edge, stale and
# future-skewed offsets; its seq as a fresh, repeated or lower number.
clock_step = st.tuples(st.just("clock"), st.sampled_from(
    [0.0, 0.5, 1.0, 4.0, 12.0, 29.5, 30.0, 31.0, 60.0,
     -0.5, -3.0, -20.0, -45.0]))
envelope_step = st.tuples(
    st.just("check"),
    st.tuples(st.integers(0, 11),                            # nonce
              st.sampled_from([0.0, 0.0, 1.0, 2.5, 10.0, 29.0, 30.0,
                               30.5, 45.0, -1.0, -5.0, -5.5, -30.0]),
              st.sampled_from(["", "a", "b", "c"]),          # sender
              st.sampled_from(["next", "next", "same", "lower"])))


@settings(max_examples=400, deadline=None, database=None,
          derandomize=True)
@given(max_nonces=st.integers(1, 6),
       steps=st.lists(st.one_of(clock_step, envelope_step, envelope_step),
                      max_size=80))
def test_guard_decides_exactly_as_the_oracle(max_nonces, steps):
    now = [T0]
    guard = ReplayGuard(max_nonces=max_nonces, clock=lambda: now[0])
    oracle = OracleGuard(max_nonces=max_nonces, clock=lambda: now[0])
    seqs = {}
    monotone = True
    for kind, arg in steps:
        if kind == "clock":
            now[0] += arg
            monotone = monotone and arg >= 0
            continue
        nonce, age, sender, seq_kind = arg
        last = seqs.get(sender, 0)
        seq = {"next": last + 1, "same": last, "lower": last - 1}[seq_kind]
        seqs[sender] = max(last, seq)
        envelope = FreshnessEnvelope(nonce=f"n{nonce}",
                                     issued_unix=now[0] - age, seq=seq,
                                     sender=sender)
        assert decide(guard, envelope) == decide(oracle, envelope), steps
        tracked = guard.stats()["tracked_nonces"]
        assert tracked <= max_nonces
        if monotone:
            assert tracked == oracle.stats()["tracked_nonces"]
    assert guard.stats()["rejected"] == oracle.stats()["rejected"]
    assert guard.stats()["checked"] == oracle.stats()["checked"]


class Reading(float):
    """A clock reading that counts every comparison made against it and
    fails once ``tally.budget`` comparisons are spent."""

    def __new__(cls, value, tally):
        reading = super().__new__(cls, value)
        reading.tally = tally
        return reading

    def _spend(self):
        self.tally.used += 1
        if self.tally.used > self.tally.budget:
            raise AssertionError(
                f"{self.tally.used} clock comparisons: over the budget "
                f"of {self.tally.budget}")

    def __lt__(self, other):
        self._spend()
        return float.__lt__(self, other)

    def __le__(self, other):
        self._spend()
        return float.__le__(self, other)

    def __gt__(self, other):
        self._spend()
        return float.__gt__(self, other)

    def __ge__(self, other):
        self._spend()
        return float.__ge__(self, other)


class Tally:
    def __init__(self, budget):
        self.used = 0
        self.budget = budget


TRACKED = 50_000
CHECKS = 1_000


def test_a_check_costs_the_same_however_many_nonces_are_tracked():
    """Work, counted as comparisons of a tracked expiry with the clock.
    A guard that rebuilds its table on every check makes 50 000 of them
    per check here, 50 million over the 1 000 measured checks.  Those
    checks may make 4 000 (4 per check), 1/12 of a single rebuild: a
    margin of 12 500x against one rebuild per check.  The same rate
    bounds the fill, so a rebuilding guard fails within its first
    thousand checks instead of running for minutes."""
    tally = Tally(budget=4 * (TRACKED + CHECKS))
    now = [T0]
    guard = ReplayGuard(max_nonces=2 * TRACKED,
                        clock=lambda: Reading(now[0], tally))
    for i in range(TRACKED):
        now[0] += 1e-4                # 5 s of traffic: nothing expires
        guard.check(FreshnessEnvelope(nonce=f"n{i}", issued_unix=now[0],
                                      seq=i + 1, sender="router"))
    assert guard.stats()["tracked_nonces"] == TRACKED
    filled = tally.used
    for i in range(TRACKED, TRACKED + CHECKS):
        now[0] += 1e-4
        guard.check(FreshnessEnvelope(nonce=f"n{i}", issued_unix=now[0],
                                      seq=i + 1, sender="router"))
    assert guard.stats()["tracked_nonces"] == TRACKED + CHECKS
    assert tally.used - filled <= 4 * CHECKS


def test_overflow_past_max_nonces_stays_cheap_and_bounded():
    """A flood past ``max_nonces`` evicts one nonce per insert without
    sorting the table, and the queues behind it stay bounded."""
    now = [T0]
    guard = ReplayGuard(max_nonces=1_000, clock=lambda: now[0])
    for i in range(20_000):
        now[0] += 1e-4
        guard.check(FreshnessEnvelope(nonce=f"n{i}", issued_unix=now[0]))
    assert guard.stats()["tracked_nonces"] == 1_000
    queued = (len(guard._expiring) + len(guard._late)
              + len(guard._by_issue))
    assert queued <= 5 * 1_000
    with pytest.raises(StaleRequestError):      # evicted: stale, not new
        guard.check(FreshnessEnvelope(nonce="n0", issued_unix=T0 + 1e-4))


def test_nan_timestamp_is_stale():
    """NaN compares false both ways, so an age check written as two
    ``>``/``<`` tests would admit it."""
    guard = ReplayGuard(clock=lambda: T0)
    with pytest.raises(StaleRequestError):
        guard.check(FreshnessEnvelope(nonce="nan", issued_unix=math.nan))
    assert guard.stats()["tracked_nonces"] == 0
