"""ClusterRouter end-to-end: real worker processes over the socket
protocol.  One shared 2-worker cluster serves most tests (spawning
interpreters is the expensive part); the kill test restores the fleet
before handing the cluster back.
"""

import socket
import threading
import time

import pytest

from repro import obs
from repro.cluster import ClusterRouter, QuotaExceededError, TenantQuota
from repro.cluster.merge import merged_scalar
from repro.cluster.protocol import (ConnectionClosed, pack_result,
                                    pack_rows, pack_state, recv_frame,
                                    send_frame)
from repro.cluster.router import _Worker
from repro.obs.analyze import check
from repro.runtime import trace
from repro.serve import (CinnamonServer, RequestResult, RequestStatus,
                         ServerClosedError)

from ..replay import replay_mismatches
from .conftest import dial_as_worker, make_request, stub_proc

RESULT_TIMEOUT_S = 120.0


@pytest.fixture(scope="module")
def cluster():
    obs.enable()
    router = ClusterRouter(
        num_workers=2,
        quotas={"limited": TenantQuota(rate_per_s=0.001, burst=2)},
        heartbeat_s=0.2)
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


class TestQuotas:
    def test_tenant_over_quota_rejected_at_submit(self, cluster):
        first = cluster.submit(
            make_request(name="q-0", rotation=4, tenant="limited"))
        second = cluster.submit(
            make_request(name="q-1", rotation=4, tenant="limited"))
        with pytest.raises(QuotaExceededError) as info:
            cluster.submit(
                make_request(name="q-2", rotation=4, tenant="limited"))
        assert info.value.tenant == "limited"
        assert first.result(timeout=RESULT_TIMEOUT_S).ok
        assert second.result(timeout=RESULT_TIMEOUT_S).ok

    def test_other_tenants_unaffected(self, cluster):
        results = submit_and_wait(cluster, [
            make_request(name=f"qa-{i}", rotation=5, tenant=f"t{i}")
            for i in range(4)
        ])
        assert all(r.ok for r in results)


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
        # The monitor respawns a replacement up to the target.
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

    def test_autoscaler_spawns_under_backlog(self):
        from repro.cluster import Autoscaler

        router = ClusterRouter(
            num_workers=1, autoscale=True,
            autoscaler=Autoscaler(min_workers=1, max_workers=2,
                                  scale_up_backlog=1.0,
                                  scale_down_ticks=10 ** 6),
            heartbeat_s=0.1)
        with router:
            assert router.wait_ready(count=1, timeout=60)
            handles = [router.submit(make_request(
                name=f"as-{i}", rotation=30 + i)) for i in range(16)]
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if router.num_workers >= 2:
                    break
                time.sleep(0.05)
            assert router.num_workers >= 2, "no scale-up under backlog"
            results = [h.result(timeout=RESULT_TIMEOUT_S)
                       for h in handles]
            assert all(r.ok for r in results)
            events = {row["event"] for row in router.trace()["jobs"]
                      if row["kind"] == "cluster"}
            assert "scale_up" in events


class _StubWorker(_Worker):
    """A connected worker whose socket swallows every frame, so what the
    router dispatched to it stays in flight until the test says so."""

    def __init__(self, worker_id, index):
        super().__init__(worker_id, index, proc=stub_proc())
        self.connected.set()

    def send(self, header, blob=b""):
        pass


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and not predicate():
        time.sleep(0.01)
    return predicate()


class TestOrphansOfGracefulExits:
    """A worker that dies while being retired (autoscaler) or during
    shutdown is not counted as a death — but whatever was still in
    flight on it must resolve all the same, or ``drain()`` hangs."""

    @staticmethod
    def _router_with_inflight_request():
        router = ClusterRouter(num_workers=1, spawn_workers=False,
                               disk_cache=False)
        router.start()
        victim = _StubWorker("w-victim", 0)
        router._workers[victim.id] = victim
        router._ring.add(victim.id)
        handle = router.submit(make_request(name="orphan"))
        assert _wait_until(lambda: victim.pending), "never dispatched"
        return router, victim, handle

    def test_retired_workers_orphans_fail_over(self):
        router, victim, handle = self._router_with_inflight_request()
        try:
            survivor = _StubWorker("w-survivor", 1)
            router._workers[survivor.id] = survivor
            router._ring.add(survivor.id)
            victim.draining = victim.retired = True   # as _retire_one does
            router._on_worker_lost(victim)            # ... then it dies
            assert _wait_until(lambda: survivor.pending), \
                "orphan of a retired worker was dropped"
            assert handle.request.attempts == 2
            assert router.metrics.snapshot()["cluster_requeued_total"][
                "series"][0]["value"] == 1
            done = RequestResult(
                request_id=handle.request.request_id, name="orphan",
                status=RequestStatus.OK, batch_size=1, cycles=7)
            router._on_result(survivor, *pack_result(done))
            result = handle.result(timeout=5)
            assert result.ok and result.shard == 1 and result.attempts == 2
            assert router.drain(timeout=5)
        finally:
            router.shutdown(drain=False)

    def test_orphans_fail_once_the_dispatcher_has_stopped(self):
        router, victim, handle = self._router_with_inflight_request()
        router.shutdown(drain=True, timeout=0.2)   # drain times out
        assert not handle.done()
        router._on_worker_lost(victim)             # EOF lands afterwards
        result = handle.result(timeout=5)
        assert result.status is RequestStatus.FAILED
        assert "died mid-request" in result.error
        assert router.drain(timeout=5)


    def test_requeue_racing_shutdown_still_resolves(self):
        """A reader thread that passed ``_fail_or_retry``'s ``_stopping``
        check and then lost the CPU must not requeue *after* shutdown's
        sweep: check-and-requeue and set-``_stopping`` share a lock, so
        the sweep sees the request (or the reader sees the flag)."""
        router, victim, handle = self._router_with_inflight_request()
        put = router._queue.put
        past_the_check, resume = threading.Event(), threading.Event()

        def descheduled_put(request, **kwargs):
            past_the_check.set()
            resume.wait(5)
            return put(request, **kwargs)

        router._queue.put = descheduled_put
        reader = threading.Thread(target=router._on_worker_lost,
                                  args=(victim,))
        reader.start()
        assert past_the_check.wait(5)
        wake = threading.Timer(0.3, resume.set)
        wake.start()
        router.shutdown(drain=False)
        wake.join(5)
        reader.join(5)
        assert not reader.is_alive()
        result = handle.result(timeout=2)
        assert result.status in (RequestStatus.FAILED,
                                 RequestStatus.REJECTED)


class TestShutdownWithNoLiveWorker:
    """With no worker live the dispatcher parks each request and
    re-queues it; ``shutdown`` must stop it *before* sweeping the queue,
    or a request it was holding is left unresolved forever."""

    @staticmethod
    def _router_with_queued_requests(count=8):
        router = ClusterRouter(num_workers=1, spawn_workers=False,
                               disk_cache=False)
        router.start()
        handles = [router.submit(make_request(name=f"stranded-{i}"))
                   for i in range(count)]
        time.sleep(0.1)     # let the dispatcher start cycling them
        return router, handles

    def test_shutdown_without_drain_rejects_everything_queued(self):
        router, handles = self._router_with_queued_requests()
        router.shutdown(drain=False)
        results = [h.result(timeout=5) for h in handles]
        assert {r.status for r in results} == {RequestStatus.REJECTED}
        assert all("shut down" in r.error for r in results)

    def test_expired_drain_fails_everything_still_queued(self):
        router, handles = self._router_with_queued_requests()
        router.shutdown(drain=True, timeout=0.2)
        results = [h.result(timeout=5) for h in handles]
        assert {r.status for r in results} == {RequestStatus.FAILED}
        assert router.drain(timeout=5)


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
            assert record.connected.wait(5)
            for blob in (good[:-7], b"", b"[1, 2]", b'"state"',
                         b'{"snapshot": {}, "cache": {}}',
                         b'{"snapshot": 1, "cache": {}, "journal": []}',
                         b'{"snapshot": {}, "cache": {}, "journal": [3]}'):
                send_frame(client, {"kind": "pong", "seq": 1}, blob,
                           token=router._token)
            send_frame(client, {"kind": "pong", "seq": "x"}, good,
                       token=router._token)
            assert _wait_until(lambda: record.snapshot)
            assert record.reader.is_alive()
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
            assert record.connected.wait(5)
            for blob in (b"\x80\x04N.", b"{}", b"[1]", b'[{"kind"',
                         b"\xff\xfe[]"):
                send_frame(client, {"kind": "journal"}, blob,
                           token=router._token)
            send_frame(client, {"kind": "journal"},
                       pack_rows([{"kind": "compile", "job": "shipped"}]),
                       token=router._token)
            assert _wait_until(lambda: any(
                row.get("job") == "shipped" for row in router._recorder.jobs))
            assert record.reader.is_alive()
            rows = [row for row in router._recorder.jobs
                    if row["kind"] == "compile"]
            assert rows == [{"kind": "compile", "job": "shipped",
                             "worker": record.id}]

    def test_accepted_socket_has_nodelay(self, router):
        with dial_as_worker(router) as (record, _client):
            assert record.connected.wait(5)
            assert record.sock.getsockopt(socket.IPPROTO_TCP,
                                          socket.TCP_NODELAY)

    def test_hello_with_the_wrong_protocol_is_refused(self, router):
        with dial_as_worker(router, protocol=1) as (record, client):
            with pytest.raises(ConnectionClosed):
                recv_frame(client, token=router._token)
            assert not record.connected.is_set()

    def test_unsigned_frame_ends_the_connection(self, router):
        with dial_as_worker(router) as (record, client):
            assert record.connected.wait(5)
            send_frame(client, {"kind": "result", "request_id": 1},
                       b"never-unpickled")
            assert _wait_until(lambda: record.dead)
