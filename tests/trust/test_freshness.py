"""Freshness envelopes and the bounded replay window.

ReplayGuard takes an injectable clock.  EnvelopeMinter stamps real
``time.time()``, so the fake clock anchors to real time and the tests
advance it (or back-date envelopes) relative to that anchor —
deterministic without sleeping."""

import time

import pytest

from repro.trust.errors import ReplayError, StaleRequestError
from repro.trust.freshness import (EnvelopeMinter, FreshnessEnvelope,
                                   ReplayGuard)


class FakeClock:
    def __init__(self):
        self.now = time.time()

    def __call__(self):
        return self.now


class TestEnvelope:
    def test_minter_unique_nonces_and_increasing_seq(self):
        minter = EnvelopeMinter(sender="router")
        envs = [minter.mint() for _ in range(100)]
        assert len({e.nonce for e in envs}) == 100
        seqs = [e.seq for e in envs]
        assert seqs == sorted(seqs) and len(set(seqs)) == 100
        assert all(e.sender == "router" for e in envs)

    def test_header_roundtrip(self):
        env = EnvelopeMinter(sender="w0").mint()
        header = {"kind": "submit", **env.as_header_fields()}
        back = FreshnessEnvelope.from_header(header)
        assert back == env

    def test_missing_header_fields_is_none(self):
        assert FreshnessEnvelope.from_header({"kind": "submit"}) is None


class TestReplayGuard:
    def test_fresh_envelopes_pass(self):
        guard = ReplayGuard(clock=FakeClock())
        minter = EnvelopeMinter(sender="a")
        for _ in range(10):
            guard.check(minter.mint())
        assert guard.stats()["checked"] == 10
        assert guard.stats()["rejected"] == {
            "nonce-reuse": 0, "sequence-reorder": 0, "stale": 0}

    def test_nonce_reuse_rejected(self):
        guard = ReplayGuard(clock=FakeClock())
        env = EnvelopeMinter(sender="a").mint()
        guard.check(env)
        with pytest.raises(ReplayError) as info:
            guard.check(env)
        assert info.value.reason == "nonce-reuse"
        assert guard.stats()["rejected"]["nonce-reuse"] == 1

    def test_sequence_reorder_rejected(self):
        guard = ReplayGuard(clock=FakeClock())
        minter = EnvelopeMinter(sender="a")
        first, second = minter.mint(), minter.mint()
        guard.check(second)
        with pytest.raises(ReplayError) as info:
            guard.check(first)
        assert info.value.reason == "sequence-reorder"

    def test_senders_have_independent_sequences(self):
        guard = ReplayGuard(clock=FakeClock())
        a, b = EnvelopeMinter(sender="a"), EnvelopeMinter(sender="b")
        a1, a2 = a.mint(), a.mint()
        b1 = b.mint()
        guard.check(a1)
        guard.check(a2)
        guard.check(b1)  # must not be compared against sender a's seq

    def test_stale_request_rejected(self):
        clock = FakeClock()
        guard = ReplayGuard(window_s=30.0, clock=clock)
        env = FreshnessEnvelope(nonce="n1", issued_unix=clock.now - 40.0,
                                seq=1, sender="a")
        with pytest.raises(StaleRequestError):
            guard.check(env)
        assert guard.stats()["rejected"]["stale"] == 1

    def test_future_skew_rejected(self):
        clock = FakeClock()
        guard = ReplayGuard(skew_s=5.0, clock=clock)
        env = FreshnessEnvelope(nonce="n1", issued_unix=clock.now + 20.0,
                                seq=1, sender="a")
        with pytest.raises(StaleRequestError):
            guard.check(env)

    def test_window_prunes_old_nonces(self):
        clock = FakeClock()
        guard = ReplayGuard(window_s=30.0, clock=clock)
        minter = EnvelopeMinter(sender="a")
        for _ in range(5):
            guard.check(minter.mint())
        assert guard.stats()["tracked_nonces"] == 5
        clock.now += 1_000.0  # everything tracked falls out of the window
        late = FreshnessEnvelope(nonce="late", issued_unix=clock.now,
                                 seq=100, sender="a")
        guard.check(late)
        assert guard.stats()["tracked_nonces"] == 1

    def test_nonce_table_is_bounded(self):
        guard = ReplayGuard(max_nonces=16, clock=FakeClock())
        minter = EnvelopeMinter(sender="a")
        for _ in range(64):
            guard.check(minter.mint())
        assert guard.stats()["tracked_nonces"] <= 16

    def test_overflow_never_readmits_a_replay_inside_the_window(self):
        """Evicting a nonce on overflow must not forget that it was seen:
        the window shrinks to the newest evicted issue time, so the
        replay is stale while a fresh envelope still passes."""
        clock = FakeClock()
        guard = ReplayGuard(window_s=30.0, max_nonces=4, clock=clock)
        envs = [FreshnessEnvelope(nonce=f"n{i}", issued_unix=clock.now)
                for i in range(5)]
        for env in envs:
            guard.check(env)
        clock.now += 1.0
        with pytest.raises(StaleRequestError):
            guard.check(envs[0])
        assert guard.stats()["rejected"]["stale"] == 1
        guard.check(FreshnessEnvelope(nonce="fresh", issued_unix=clock.now))
        assert guard.stats()["tracked_nonces"] == 4

    def test_seen_is_a_passive_probe(self):
        guard = ReplayGuard(clock=FakeClock())
        env = EnvelopeMinter(sender="a").mint()
        assert guard.seen(env.nonce) is False
        guard.check(env)
        assert guard.seen(env.nonce) is True
