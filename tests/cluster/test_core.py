"""RouterCore, the router's decisions, driven as plain event sequences:
the interleavings that needed threads and sleeps to reach before are
single calls here, and a Hypothesis state machine walks the rest."""

from collections import Counter

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.cluster.core import (DEAD_WORKERS_KEPT, SHUTDOWN_GRACE_S,
                                Absorb, Close, Kill, Send, Spawn, Wake)
from repro.cluster.protocol import pack_rows, pack_state
from repro.serve import RequestStatus

from .conftest import CoreDriver

MAX_RETRIES = 2
LIVENESS_S = 5.0
STATE = pack_state({}, {"misses": 1}, [{"kind": "compile", "job": "j"}])
ROWS = [{"kind": "compile", "job": "shipped"}]


class TestStrandedDispatch:
    """The core-level twin of ``TestStrandedRequest``: a worker lost
    between the core choosing it and the shell writing the submit."""

    def test_loss_between_selection_and_send_requeues(self):
        driver = CoreDriver()
        driver.up("w0")
        handle = driver.submit("between")
        (send,) = driver.actions[-1:]
        assert send.worker == "w0" and send.request is handle.request
        driver.lost("w0")              # lands before the shell's write
        assert not driver.core.workers["w0"].pending
        assert list(driver.core.backlog) == [handle.request]
        driver.up("w1")                # ... and the next worker runs it
        assert driver.submits_to("w1") == [handle.request.request_id]
        driver.result("w1", handle.request)
        assert handle.result(timeout=0).ok
        assert handle.request.attempts == 2

    def test_loss_between_selection_and_send_at_shutdown(self):
        driver = CoreDriver()
        driver.up("w0")
        handle = driver.submit("between")
        driver.lost("w0")
        driver.shutdown(drain=False)
        assert handle.result(timeout=0).status is RequestStatus.REJECTED
        assert driver.core.finished


class TestDecisions:
    def test_dropped_worker_is_closed_and_killed(self):
        driver = CoreDriver()
        driver.up("w0")
        assert driver.lost("w0")[:2] == [Close("w0"), Kill("w0")]
        assert driver.core.worker_up("w0", 1, driver.now) is None

    def test_silent_worker_is_dropped_by_the_tick(self):
        driver = CoreDriver(liveness_timeout_s=LIVENESS_S)
        driver.up("w0")
        handle = driver.submit("silent")
        assert Close("w0") not in driver.tick(LIVENESS_S)
        assert Close("w0") in driver.tick(0.5)
        assert list(driver.core.backlog) == [handle.request]

    def test_ping_round_waits_for_every_live_worker(self):
        driver = CoreDriver()
        driver.up("w0")
        driver.up("w1")
        token = object()
        (seq,) = {send.header["seq"] for send in driver.core.ping(token)}
        driver.frame("w0", {"kind": "pong", "seq": seq}, STATE)
        assert Wake(token) not in driver.actions
        driver.lost("w1")
        assert Wake(token) in driver.actions

    def test_kill_picks_the_busiest_live_worker(self):
        driver = CoreDriver()
        driver.up("w0")
        driver.up("w1")
        for i in range(5):
            driver.submit(f"k{i}", rotation=i)
        busiest = max(driver.core.live,
                      key=lambda w: len(driver.core.workers[w].pending))
        assert driver.core.kill() == [Kill(busiest)]
        assert driver.core.kill("w9") == []

    def test_drained_worker_is_told_to_shut_down(self):
        driver = CoreDriver()
        driver.up("w0")
        driver.shutdown(drain=True)
        assert driver.frame("w0", {"kind": "drained"}, STATE)[-1] \
            == Send("w0", {"kind": "shutdown"})
        driver.lost("w0")
        assert driver.core.finished


class TestRespawn:
    """A worker that dies before its hello is respawned with a per-slot
    backoff, and dead workers do not pile up in the core."""

    HEARTBEAT_S = 0.5
    #: At most this many spawns in 100 heartbeats (50 s) of a worker that
    #: always dies at start-up: 1 s doubling to 30 s allows 6.  Without
    #: a backoff it is one per heartbeat, 100.
    MAX_SPAWNS = 8

    def spawns(self, actions):
        return [a.worker for a in actions if type(a) is Spawn]

    def test_a_worker_dying_before_its_hello_backs_off(self):
        driver = CoreDriver(target=1, spawn=True)
        started = self.spawns(driver.tick())
        total = len(started)
        for _ in range(100):
            # Every process started at the last heartbeat has exited.
            started = self.spawns(driver.tick(self.HEARTBEAT_S, started))
            total += len(started)
        assert 1 <= total <= self.MAX_SPAWNS
        assert len(driver.core.workers) <= DEAD_WORKERS_KEPT + 1

    def test_a_hello_resets_the_backoff(self):
        driver = CoreDriver(target=1, spawn=True)
        started = self.spawns(driver.tick())
        for _ in range(20):       # the slot is well into its backoff
            started = self.spawns(driver.tick(self.HEARTBEAT_S, started))
        while not started:
            started = self.spawns(driver.tick(self.HEARTBEAT_S))
        (worker_id,) = started
        assert driver.core.worker_up(worker_id, 4242, driver.now)
        driver.lost(worker_id)    # a live worker's death: respawn at once
        started = self.spawns(driver.tick(self.HEARTBEAT_S))
        assert len(started) == 1
        # Its successor dies at start-up: one base backoff (1 s), not
        # the 30 s the slot had reached before the hello.
        driver.tick(self.HEARTBEAT_S, started)
        assert not self.spawns(driver.tick(self.HEARTBEAT_S))
        assert len(self.spawns(driver.tick(self.HEARTBEAT_S))) == 1

    def test_retired_workers_keep_their_counts(self):
        """Past :data:`DEAD_WORKERS_KEPT`, a dead worker leaves
        ``workers`` and its cache counters and metrics fold into the
        retired totals, so nothing it reported is lost."""
        driver = CoreDriver(target=1, spawn=True)
        state = pack_state(
            {"c": {"type": "counter",
                   "series": [{"labels": {}, "value": 1.0}]}},
            {"misses": 1}, [])
        deaths = 3 * DEAD_WORKERS_KEPT
        for _ in range(deaths):
            (worker_id,) = self.spawns(driver.tick(self.HEARTBEAT_S))
            driver.core.worker_up(worker_id, 4242, driver.now)
            driver.frame(worker_id, {"kind": "pong"}, state)
            driver.lost(worker_id)
        core = driver.core
        assert len(core.workers) == DEAD_WORKERS_KEPT
        kept = sum(w.cache["misses"] for w in core.workers.values())
        assert core.retired_cache["misses"] + kept == deaths
        assert core.retired_snapshot["c"]["series"][0]["value"] \
            == deaths - DEAD_WORKERS_KEPT
        # A late frame from a retired worker changes nothing.
        assert driver.frame("w0", {"kind": "pong"}, state) == []


class RouterMachine(RuleBasedStateMachine):
    """Any interleaving of the router's events keeps every request
    accounted for, and shutdown leaves nothing outstanding."""

    def __init__(self):
        super().__init__()
        self.driver = CoreDriver(max_retries=MAX_RETRIES,
                                 liveness_timeout_s=LIVENESS_S,
                                 target=2, spawn=True)
        self.core = self.driver.core
        self.handles = []
        self.tokens = []
        self.admission_closed = False
        self.resolutions = Counter()
        lifecycle = self.driver.lifecycle
        finish = lifecycle.finish

        def counted_finish(request, result):
            self.resolutions[request.request_id] += 1
            return finish(request, result)

        lifecycle.finish = counted_finish
        self.driver.tick()             # spawns the fleet

    # ------------------------------------------------------------------ #
    # Helpers

    def _ids(self, live=None, dead=None):
        return sorted(w.id for w in self.core.workers.values()
                      if (live is None or w.live == live)
                      and (dead is None or w.dead == dead))

    def _check_actions(self, actions):
        """Nothing is sent to a worker after its connection is closed."""
        closed = set()
        for action in actions or ():
            if type(action) is Close:
                closed.add(action.worker)
            elif type(action) is Send:
                assert action.worker not in closed, actions

    def _step(self, actions):
        self._check_actions(actions)
        return actions

    # ------------------------------------------------------------------ #
    # Rules

    def _pending(self):
        return [(w.id, r) for w in self.core.workers.values()
                for r in w.pending.values()]

    @precondition(lambda self: not self.admission_closed)
    @rule(deadline=st.sampled_from([None, None, 1.0]),
          rotation=st.integers(0, 3))
    def submit(self, deadline, rotation):
        before = len(self.driver.actions)
        self.handles.append(self.driver.submit(
            f"r{len(self.handles)}", deadline_s=deadline, rotation=rotation))
        self._step(self.driver.actions[before:])

    @precondition(lambda self: not self.admission_closed and self.core.live)
    @rule(rotation=st.integers(0, 3))
    def submit_then_lose_its_worker(self, rotation):
        """A worker lost between the core's choice and the shell's write."""
        self.submit(None, rotation)
        (send,) = self.driver.actions[-1:]
        assert send.request is self.handles[-1].request
        self._step(self.driver.lost(send.worker))

    @precondition(lambda self: self._ids(live=False, dead=False))
    @rule(data=st.data())
    def worker_up(self, data):
        worker_id = data.draw(st.sampled_from(
            self._ids(live=False, dead=False)))
        self._step(self.driver._keep(
            self.core.worker_up(worker_id, 4242, self.driver.now)))

    @rule(data=st.data())
    def refused_hello(self, data):
        worker_id = data.draw(st.sampled_from(
            self._ids(live=True) + self._ids(dead=True) + ["stranger"]))
        assert self.core.worker_up(worker_id, 1, self.driver.now) is None

    @precondition(lambda self: self._ids(dead=False))
    @rule(data=st.data())
    def worker_lost(self, data):
        worker_id = data.draw(st.sampled_from(self._ids(dead=False)))
        self._step(self.driver.lost(worker_id))

    @precondition(lambda self: self._pending())
    @rule(data=st.data(), outcome=st.sampled_from(
        ["ok", "ok", "failed", "retryable", "undecodable"]))
    def result(self, data, outcome):
        worker_id, request = data.draw(st.sampled_from(self._pending()))
        if outcome == "undecodable":
            actions = self.driver.frame(
                worker_id, {"kind": "result",
                            "request_id": request.request_id},
                b"not a pickle")
        elif outcome == "ok":
            actions = self.driver.result(worker_id, request)
        else:
            actions = self.driver.result(
                worker_id, request, RequestStatus.FAILED,
                **({"retryable": True} if outcome == "retryable" else {}))
        self._step(actions)

    @precondition(lambda self: any(h.done() for h in self.handles))
    @rule(data=st.data())
    def stale_result(self, data):
        """A result for a request already resolved changes nothing."""
        request = data.draw(st.sampled_from(
            [h.request for h in self.handles if h.done()]))
        worker_id = data.draw(st.sampled_from(sorted(self.core.workers)))
        assert self.driver.result(worker_id, request) == []

    @precondition(lambda self: self.core.live)
    @rule(data=st.data(), blob=st.sampled_from(
        [b"", b"[1]", STATE[:-3], b'{"snapshot": {}, "cache": {}}']),
        kind=st.sampled_from(["pong", "drained"]))
    def malformed_state(self, data, blob, kind):
        worker = self.core.workers[data.draw(st.sampled_from(self.core.live))]
        before = (worker.last_pong, worker.pong_seq)
        assert self.driver.frame(worker.id, {"kind": kind, "seq": 10**6},
                                 blob) == []
        assert (worker.last_pong, worker.pong_seq) == before

    @precondition(lambda self: self.core.workers)
    @rule(data=st.data(), blob=st.sampled_from(
        [b"{}", b"[1]", b'[{"kind"', pack_rows(ROWS)]))
    def journal(self, data, blob):
        worker_id = data.draw(st.sampled_from(sorted(self.core.workers)))
        actions = self.driver.frame(worker_id, {"kind": "journal"}, blob)
        assert actions == ([Absorb(worker_id, ROWS)]
                           if blob == pack_rows(ROWS) else [])

    @precondition(lambda self: self.core.live)
    @rule(data=st.data())
    def pong(self, data):
        worker_id = data.draw(st.sampled_from(self.core.live))
        seq = max([s for s, _w, _t in self.core._waiters] + [0])
        self._step(self.driver.frame(
            worker_id, {"kind": "pong", "seq": seq}, STATE))

    @rule()
    def ping_round(self):
        token = object()
        self.tokens.append(token)
        self._step(self.driver._keep(self.core.ping(token)))

    @rule(dt=st.sampled_from([0.0, 0.5, 2.0, LIVENESS_S + 1]),
          data=st.data())
    def tick(self, dt, data):
        starting = self._ids(live=False, dead=False)
        exited = (data.draw(st.lists(st.sampled_from(starting),
                                     max_size=1)) if starting else [])
        self._step(self.driver.tick(dt, exited))

    @precondition(lambda self: self.core.live)
    @rule()
    def kill(self):
        (kill,) = self.core.kill()
        pending = {w: len(self.core.workers[w].pending)
                   for w in self.core.live}
        assert pending[kill.worker] == max(pending.values())

    @precondition(lambda self: len(self.handles) >= 4)
    @rule()
    def drain(self):
        """Admission closes: no more submits reach the core."""
        self.admission_closed = True

    @precondition(lambda self: len(self.handles) >= 4
                  and not self.core.stopping)
    @rule(drain=st.booleans())
    def shutdown(self, drain):
        self.admission_closed = True
        self._step(self.driver.shutdown(drain))

    @precondition(lambda self: self.core.stopping and self.core.live)
    @rule(data=st.data())
    def drained(self, data):
        worker_id = data.draw(st.sampled_from(self.core.live))
        actions = self._step(self.driver.frame(
            worker_id, {"kind": "drained"}, STATE))
        assert actions[-1] == Send(worker_id, {"kind": "shutdown"})

    # ------------------------------------------------------------------ #
    # Invariants

    @invariant()
    def resolved_at_most_once(self):
        assert all(n == 1 for n in self.resolutions.values()), \
            self.resolutions

    @invariant()
    def every_open_request_has_exactly_one_home(self):
        homes = Counter(r.request_id for r in self.core.backlog)
        for worker in self.core.workers.values():
            homes.update(worker.pending.keys())
        open_ids = {h.request.request_id for h in self.handles
                    if not h.done()}
        assert set(homes) == open_ids and set(homes.values()) <= {1}
        if self.core.live:
            assert not self.core.backlog

    @invariant()
    def attempts_are_bounded(self):
        assert all(h.request.attempts <= MAX_RETRIES + 1
                   for h in self.handles)

    @invariant()
    def no_dead_worker_holds_work(self):
        assert not any(w.pending for w in self.core.workers.values()
                       if w.dead)

    @invariant()
    def ring_is_the_live_set(self):
        assert sorted(self.core.live) == self.core._ring.workers \
            == self._ids(live=True)
        assert not any(w.live and w.dead
                       for w in self.core.workers.values())

    @invariant()
    def workers_are_bounded(self):
        assert len(self.core.workers) <= DEAD_WORKERS_KEPT + self.core.target

    @invariant()
    def nothing_outstanding_once_finished(self):
        if self.core.finished:
            assert all(h.done() for h in self.handles)
            assert self.driver.lifecycle.wait_drained(0)
            woken = {a.token for a in self.driver.actions if type(a) is Wake}
            assert all(token in woken for token in self.tokens)

    def teardown(self):
        """However the run ended, shutdown plus the grace period resolves
        every admitted request exactly once."""
        self.driver.shutdown(drain=False)
        self.driver.tick(SHUTDOWN_GRACE_S)
        assert self.core.finished
        self.nothing_outstanding_once_finished()
        assert sorted(self.resolutions) == sorted(
            h.request.request_id for h in self.handles)
        self.resolved_at_most_once()


RouterMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=50, derandomize=True,
    deadline=None, database=None)
TestRouterMachine = RouterMachine.TestCase
