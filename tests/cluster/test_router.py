"""ClusterRouter end-to-end: real worker processes over the socket
protocol.  One shared 2-worker cluster serves most tests (spawning
interpreters is the expensive part); the kill test restores the fleet
before handing the cluster back.
"""

import signal
import socket
import threading
import time

import pytest

from repro import obs
from repro.cluster import ClusterRouter
from repro.cluster import router as router_mod
from repro.cluster.core import Close, Kill, Send
from repro.cluster.merge import merged_scalar
from repro.cluster.protocol import (ConnectionClosed, pack_rows, pack_state,
                                    pack_submit, recv_frame, send_frame)
from repro.obs.analyze import check
from repro.runtime import trace
from repro.serve import CinnamonServer, RequestStatus, ServerClosedError

from ..replay import replay_mismatches
from .conftest import CoreDriver, dial_as_worker, make_request

RESULT_TIMEOUT_S = 120.0


@pytest.fixture(scope="module")
def cluster():
    obs.enable()
    router = ClusterRouter(num_workers=2, heartbeat_s=0.2)
    router.start()
    assert router.wait_ready(timeout=60), "workers failed to connect"
    yield router
    router.shutdown(drain=False)
    obs.disable()


def submit_and_wait(cluster, requests):
    handles = [cluster.submit(r) for r in requests]
    return [h.result(timeout=RESULT_TIMEOUT_S) for h in handles]


class TestRoundTrip:
    def test_requests_resolve_ok_across_workers(self, cluster):
        results = submit_and_wait(cluster, [
            make_request(name=f"rt-{i}", rotation=i % 4)
            for i in range(12)
        ])
        assert all(r.ok for r in results), [r.error for r in results]
        assert all(r.cycles and r.cycles > 0 for r in results)
        assert {r.shard for r in results} == {0, 1}  # both workers served

    def test_fingerprint_affinity(self, cluster):
        """Repeats of one program always land on its ring owner, which
        compiles it once.  Which of the six compiles is not fixed: on
        the worker's two-thread pool either of the first two may take
        the session's in-flight slot."""
        results = submit_and_wait(cluster, [
            make_request(name=f"aff-{i}", rotation=7) for i in range(6)
        ])
        assert len({r.shard for r in results}) == 1
        caches = [r.cache for r in results]
        assert caches.count("miss") == 1, caches
        assert set(caches) - {"miss"} <= {"memory", "disk"}, caches

    def test_submit_many_preserves_order(self, cluster):
        requests = [make_request(name=f"many-{i}", rotation=i % 3)
                    for i in range(4)]
        handles = cluster.submit_many(requests)
        results = [h.result(timeout=RESULT_TIMEOUT_S) for h in handles]
        assert [r.request_id for r in results] == [
            r.request_id for r in requests]


class TestObservability:
    def test_merged_journal_is_end_to_end(self, cluster):
        names = [f"obs-{i}" for i in range(6)]
        submit_and_wait(cluster, [
            make_request(name=name, rotation=10 + i % 3)
            for i, name in enumerate(names)
        ])
        document = cluster.trace()
        assert document["schema"] >= 6
        rows = document["jobs"]
        # One call, no sleep: every resolved request's worker-side rows
        # are already there.
        assert sorted(row["job"] for row in rows
                      if row["kind"] == "compile"
                      and row["job"] in names) == names
        kinds = {row["kind"] for row in rows}
        assert {"serve", "compile", "simulate", "cluster"} <= kinds
        # Worker-side rows carry their origin; router-side serve rows
        # join them on the same trace ids — the obs invariants hold
        # across the process boundary.
        assert any(row.get("worker") for row in rows
                   if row["kind"] == "compile")
        assert check(document) == []

    def test_cluster_events_recorded(self, cluster):
        events = {row["event"] for row in cluster.trace()["jobs"]
                  if row["kind"] == "cluster"}
        assert "worker_spawned" in events

    def test_metrics_snapshot_merges_router_and_workers(self, cluster):
        before = merged_scalar(cluster.metrics_snapshot(),
                               "runtime_compile_requests_total")
        results = submit_and_wait(cluster, [
            make_request(name=f"m-{i}", rotation=i % 5) for i in range(10)])
        assert all(r.ok for r in results)
        snapshot = cluster.metrics_snapshot()
        # A consistent cut: one call sees all ten worker-side compiles.
        assert merged_scalar(snapshot, "runtime_compile_requests_total") \
            - before == len(results)
        assert merged_scalar(snapshot, "serve_requests_total",
                             {"status": "ok"}) >= 1
        assert merged_scalar(snapshot, "cluster_workers") >= 2
        # Worker-process-side counter, visible only through the merge:
        assert merged_scalar(snapshot,
                             "cluster_worker_submits_total") >= 1

    def test_replaying_the_journal_reproduces_the_snapshot(self, cluster):
        """Every row-derived family: the merged snapshot (router registry
        + the workers' shipped ones) equals the fold of the merged
        journal.  Runs before this module's kill test — a killed worker's
        last snapshot may trail the rows it shipped ahead of results."""
        results = submit_and_wait(cluster, [
            make_request(name=f"fold-{i}", rotation=20 + i % 3,
                         tenant=f"t{i % 2}") for i in range(8)])
        assert all(r.ok for r in results), [r.error for r in results]
        snapshot = cluster.metrics_snapshot()
        assert replay_mismatches(snapshot, cluster.trace()) == []
        # Router-side rows land in the router's own, exported registry.
        assert merged_scalar(snapshot, "cluster_events_total",
                             {"event": "worker_spawned"}) >= 2
        assert merged_scalar(snapshot, "cluster_tenant_requests_total",
                             {"tenant": "t0", "status": "ok"}) == 4

    def test_replay_holds_on_a_spilled_journal(self, cluster, monkeypatch):
        """With the resident bound cut to a few rows, the router's
        journal spills; ``trace()`` still returns every row and replays
        to the live snapshot."""
        monkeypatch.setattr(trace, "RESIDENT_ROWS", 16)
        names = [f"spill-{i}" for i in range(24)]
        results = submit_and_wait(cluster, [
            make_request(name=name, rotation=30 + i % 3, tenant=f"t{i % 2}")
            for i, name in enumerate(names)])
        assert all(r.ok for r in results), [r.error for r in results]
        snapshot = cluster.metrics_snapshot()
        document = cluster.trace()
        assert cluster._recorder._spilled > 0
        assert len(cluster._recorder._jobs) <= 16
        assert sorted(row["job"] for row in document["jobs"]
                      if row["kind"] == "compile"
                      and row["job"] in names) == sorted(names)
        assert replay_mismatches(snapshot, document) == []
        assert check(document) == []

    def test_cache_stats_aggregate_workers(self, cluster):
        submit_and_wait(cluster, [make_request(name="c-0", rotation=3),
                                  make_request(name="c-1", rotation=3)])
        totals = cluster.cache_stats()
        assert totals.get("misses", 0) + totals.get("memory_hits", 0) > 0


class TestPrometheusExposition:
    @pytest.fixture(params=["server", "cluster"])
    def backend(self, request, cluster):
        if request.param == "cluster":
            yield cluster
        else:
            with CinnamonServer(num_workers=2) as server:
                yield server

    def test_every_snapshot_family_is_exposed(self, backend):
        results = submit_and_wait(backend, [
            make_request(name=f"p-{i}", rotation=i + 1) for i in range(2)])
        assert all(r.ok for r in results)
        families = set(backend.metrics_snapshot())
        exposed = {line.split()[2]
                   for line in backend.metrics_prometheus().splitlines()
                   if line.startswith("# TYPE ")}
        if isinstance(backend, ClusterRouter):
            # Families that only the workers' shipped snapshots carry.
            assert {"runtime_compile_seconds",
                    "runtime_simulations_total"} <= families
        assert families - exposed == set()


class TestFailover:
    def test_sigkill_mid_run_loses_zero_requests(self, cluster):
        """The acceptance scenario: SIGKILL a worker while its queue is
        full of dispatched requests; every request still resolves OK and
        the recovery is visible as traced cluster events."""
        deaths_before = merged_scalar(cluster.metrics.snapshot(),
                                      "cluster_worker_deaths_total")
        handles = [cluster.submit(make_request(
            name=f"kill-{i}", rotation=20 + i)) for i in range(10)]
        victim = cluster.kill_worker()
        assert victim is not None
        results = [h.result(timeout=RESULT_TIMEOUT_S) for h in handles]
        assert all(r.ok for r in results), [
            (r.name, r.status.value, r.error) for r in results
            if not r.ok]
        snapshot = cluster.metrics.snapshot()
        assert merged_scalar(snapshot, "cluster_worker_deaths_total") \
            == deaths_before + 1
        events = [row for row in cluster.trace()["jobs"]
                  if row["kind"] == "cluster"]
        assert any(e["event"] == "worker_lost"
                   and e["worker"] == victim for e in events)
        # The next heartbeat respawns a replacement up to the target.
        assert cluster.wait_ready(count=2, timeout=60)

    def test_replacement_serves_after_failover(self, cluster):
        results = submit_and_wait(cluster, [
            make_request(name=f"after-{i}", rotation=i % 4)
            for i in range(6)
        ])
        assert all(r.ok for r in results)
        assert {r.shard for r in results if r.shard is not None}


class TestLifecycle:
    def test_drain_waits_and_closes_admission(self):
        router = ClusterRouter(num_workers=1)
        with router:
            assert router.wait_ready(timeout=60)
            handle = router.submit(make_request(name="d-0", rotation=1))
            assert router.drain(timeout=RESULT_TIMEOUT_S)
            assert handle.result(timeout=1).ok
            with pytest.raises(ServerClosedError):
                router.submit(make_request(name="d-1"))


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and not predicate():
        time.sleep(0.01)
    return predicate()


class TestOrphansOfGracefulExits:
    """Whatever was in flight on a lost worker must resolve: failed over
    to a survivor exactly once, or — for a worker lost during shutdown,
    which is not counted as a death — failed, or ``drain()`` hangs.
    Played against the router's core, one event at a time."""

    @staticmethod
    def _core_with_inflight_request():
        driver = CoreDriver()
        driver.up("w-victim")
        handle = driver.submit("orphan")
        assert driver.submits_to("w-victim") == [handle.request.request_id]
        return driver, handle

    def test_retired_workers_orphans_fail_over(self):
        driver, handle = self._core_with_inflight_request()
        driver.up("w-survivor")
        lost = driver.lost("w-victim")
        assert driver.lost("w-victim") == []      # a second EOF is a no-op
        assert [type(a) for a in lost[:2]] == [Close, Kill]
        request = handle.request
        assert driver.submits_to("w-survivor") == [request.request_id]
        assert request.attempts == 2
        assert driver.counter("cluster_requeued_total") == 1
        assert driver.counter("cluster_worker_deaths_total") == 1
        driver.result("w-survivor", request)
        result = handle.result(timeout=0)
        assert result.ok and result.shard == 1 and result.attempts == 2
        assert driver.lifecycle.wait_drained(0)

    def test_orphans_fail_once_the_dispatcher_has_stopped(self):
        driver, handle = self._core_with_inflight_request()
        assert driver.shutdown(drain=True) == [
            Send("w-victim", {"kind": "drain"})]
        assert not handle.done()
        driver.lost("w-victim")                   # EOF lands afterwards
        result = handle.result(timeout=0)
        assert result.status is RequestStatus.FAILED
        assert "died mid-request" in result.error
        assert driver.lifecycle.wait_drained(0)
        assert driver.core.finished

    def test_requeue_racing_shutdown_still_resolves(self):
        """A worker lost just before shutdown re-queues its orphan into
        the backlog, which shutdown resolves; one lost just after fails
        it.  Either order resolves the request exactly once."""
        for lost_first, status in ((True, RequestStatus.REJECTED),
                                   (False, RequestStatus.FAILED)):
            driver, handle = self._core_with_inflight_request()
            if lost_first:
                driver.lost("w-victim")
                assert list(driver.core.backlog) == [handle.request]
            driver.shutdown(drain=False)
            driver.lost("w-victim")
            assert handle.result(timeout=0).status is status
            assert driver.lifecycle.wait_drained(0)


class TestShutdownWithNoLiveWorker:
    """With no worker live, requests wait for one; ``shutdown`` must
    resolve every one of them, or it is left unresolved forever."""

    @staticmethod
    def _core_with_waiting_requests(count=8):
        driver = CoreDriver()
        handles = [driver.submit(f"stranded-{i}") for i in range(count)]
        assert len(driver.core.backlog) == count
        return driver, handles

    def test_shutdown_without_drain_rejects_everything_queued(self):
        driver, handles = self._core_with_waiting_requests()
        driver.shutdown(drain=False)
        results = [h.result(timeout=0) for h in handles]
        assert {r.status for r in results} == {RequestStatus.REJECTED}
        assert all("shut down" in r.error for r in results)

    def test_expired_drain_fails_everything_still_queued(self):
        driver, handles = self._core_with_waiting_requests()
        driver.shutdown(drain=True)
        results = [h.result(timeout=0) for h in handles]
        assert {r.status for r in results} == {RequestStatus.FAILED}
        assert driver.lifecycle.wait_drained(0)

    def test_router_resolves_its_admission_queue_at_shutdown(self):
        """The router end: with no worker live, admitted requests wait
        in the admission queue, and shutdown hands them to the core."""
        router = ClusterRouter(num_workers=1, spawn_workers=False,
                               disk_cache=False)
        router.start()
        handles = [router.submit(make_request(name=f"queued-{i}"))
                   for i in range(8)]
        router.shutdown(drain=False)
        results = [h.result(timeout=5) for h in handles]
        assert {r.status for r in results} == {RequestStatus.REJECTED}


class TestStrandedRequest:
    def test_worker_lost_while_its_submit_is_packed(self, monkeypatch):
        """The only live worker hangs up while its submit is being packed.
        The write may still succeed (the peer's FIN is in, no RST yet),
        so the request must not be left pending on the lost worker:
        it re-queues, and shutdown resolves it."""
        router = ClusterRouter(num_workers=1, spawn_workers=False,
                               disk_cache=False)
        router.start()
        try:
            with dial_as_worker(router) as (record, client):
                assert _wait_until(lambda: router.num_workers == 1, 5)
                packed = []

                def pack_then_hang_up(*args, **kwargs):
                    frame = pack_submit(*args, **kwargs)
                    client.close()
                    # Give a concurrent reader the time to act on the EOF.
                    _wait_until(lambda: record.dead, 0.5)
                    packed.append(True)
                    return frame

                monkeypatch.setattr(router_mod, "pack_submit",
                                    pack_then_hang_up)
                handle = router.submit(make_request(name="stranded"))
                assert _wait_until(lambda: packed, 5)
                assert _wait_until(lambda: record.dead, 5)
                assert not record.pending
        finally:
            router.shutdown(drain=False)
        result = handle.result(timeout=5)
        assert result.status in (RequestStatus.FAILED,
                                 RequestStatus.REJECTED)


class TestDroppedWorker:
    def test_dropped_worker_is_killed_and_never_redials(self):
        """A worker the router gives up on while its process lives (here:
        what a reader posts on a bad frame) is closed and killed, so it
        cannot linger or come back; a replacement takes its place."""
        router = ClusterRouter(num_workers=1, disk_cache=False,
                               heartbeat_s=0.2)
        router.start()
        try:
            assert router.wait_ready(timeout=60)
            (dropped,) = router.worker_ids()
            proc = router._procs[dropped]
            hellos = []
            on_hello = router._on_hello

            def counting_hello(worker_id, *args):
                hellos.append(worker_id)
                return on_hello(worker_id, *args)

            router._on_hello = counting_hello
            router._inbox.put((router._core.worker_lost, dropped))
            assert proc.wait(timeout=10) == -signal.SIGKILL
            assert _wait_until(lambda: router.worker_ids()
                               and dropped not in router.worker_ids(), 60)
            assert dropped not in hellos, hellos
        finally:
            router.shutdown(drain=False)


class TestWorkerState:
    """The router's end of the heartbeat, played against by hand: a
    signed-in peer that sends garbage must not take the reader thread
    (or anything it feeds) down with it."""

    @pytest.fixture
    def router(self):
        r = ClusterRouter(num_workers=1, spawn_workers=False,
                          disk_cache=False, heartbeat_s=30)
        r.start()
        yield r
        r.shutdown(drain=False)

    def test_reader_survives_malformed_state(self, router):
        good = pack_state(
            {"jobs_total": {"type": "counter", "series": [
                {"labels": {}, "value": 3.0}]}},
            {"misses": 2}, [{"kind": "compile", "job": "from-pong"}])
        with dial_as_worker(router) as (record, client):
            assert _wait_until(lambda: record.live, 5)
            for blob in (good[:-7], b"", b"[1, 2]", b'"state"',
                         b'{"snapshot": {}, "cache": {}}',
                         b'{"snapshot": 1, "cache": {}, "journal": []}',
                         b'{"snapshot": {}, "cache": {}, "journal": [3]}'):
                send_frame(client, {"kind": "pong", "seq": 1}, blob,
                           token=router._token)
            send_frame(client, {"kind": "pong", "seq": "x"}, good,
                       token=router._token)
            assert _wait_until(lambda: record.snapshot)
            assert record.live         # the reader kept going
            assert record.pong_seq == 0      # nothing malformed counted
            assert record.cache == {"misses": 2}
            rows = [row for row in router._recorder.jobs
                    if row.get("job") == "from-pong"]
            assert len(rows) == 1 and rows[0]["worker"] == record.id
            # ... and a well-formed answer to a real ping still lands.
            waiter = []
            asker = threading.Thread(
                target=lambda: waiter.append(router.cache_stats()))
            asker.start()
            header, _ = recv_frame(client, token=router._token)
            assert header["kind"] == "ping"
            send_frame(client, {"kind": "pong", "seq": header["seq"]},
                       pack_state({}, {"misses": 5}, []),
                       token=router._token)
            asker.join(timeout=5)
            assert waiter == [{"misses": 5}]

    def test_malformed_journal_is_dropped(self, router):
        """A journal blob that is not a JSON list of rows is dropped
        whole; the reader keeps going and a good one still lands."""
        with dial_as_worker(router) as (record, client):
            assert _wait_until(lambda: record.live, 5)
            for blob in (b"\x80\x04N.", b"{}", b"[1]", b'[{"kind"',
                         b"\xff\xfe[]"):
                send_frame(client, {"kind": "journal"}, blob,
                           token=router._token)
            send_frame(client, {"kind": "journal"},
                       pack_rows([{"kind": "compile", "job": "shipped"}]),
                       token=router._token)
            assert _wait_until(lambda: any(
                row.get("job") == "shipped" for row in router._recorder.jobs))
            assert record.live
            rows = [row for row in router._recorder.jobs
                    if row["kind"] == "compile"]
            assert rows == [{"kind": "compile", "job": "shipped",
                             "worker": record.id}]

    def test_accepted_socket_has_nodelay(self, router):
        with dial_as_worker(router) as (record, _client):
            assert _wait_until(lambda: record.live, 5)
            assert router._socks[record.id].getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_hello_with_the_wrong_protocol_is_refused(self, router):
        with dial_as_worker(router, protocol=1) as (record, client):
            with pytest.raises(ConnectionClosed):
                recv_frame(client, token=router._token)
            assert not record.live

    def test_unsigned_frame_ends_the_connection(self, router):
        with dial_as_worker(router) as (record, client):
            assert _wait_until(lambda: record.live, 5)
            send_frame(client, {"kind": "result", "request_id": 1},
                       b"never-unpickled")
            assert _wait_until(lambda: record.dead)
