"""CinnamonServer behaviour: serving, batching from the backlog,
backpressure, deadlines, drain, metrics, and the repro facade.

Batching tests hold the one shard busy (``held_shard``) so the backlog
they batch is built before it is taken: no test waits on a timer."""

import time

import pytest

import repro
from repro.runtime.fingerprint import fingerprint
from repro.runtime.session import resolve_request_options
from repro.runtime.trace import TRACE_SCHEMA_VERSION
from repro.serve import (
    CinnamonServer,
    QueueSaturatedError,
    RequestStatus,
    ServerClosedError,
    serve_requests,
)

from ..replay import replay_mismatches
from .conftest import make_request


class TestBasicServing:
    def test_single_request_round_trip(self):
        with CinnamonServer(num_workers=1) as server:
            handle = server.submit(make_request("solo"))
            result = handle.result(timeout=60)
        assert result.ok and result.status is RequestStatus.OK
        assert result.cache == "miss" and result.attempts == 1
        assert result.cycles and result.cycles > 0
        assert result.latency.total_s > 0
        assert result.latency.total_s >= result.latency.execute_s

    def test_repeat_requests_hit_cache(self):
        with CinnamonServer(num_workers=1) as server:
            first = server.submit(make_request("a1")).result(60)
            second = server.submit(make_request("a2")).result(60)
        assert first.cache == "miss"
        assert second.cache == "memory"

    def test_results_in_submission_order_via_facade(self):
        requests = [make_request(f"r{i}", rotation=(i % 3) + 1)
                    for i in range(9)]
        results = serve_requests(requests, num_workers=2)
        assert [r.name for r in results] == [f"r{i}" for i in range(9)]
        assert all(r.ok for r in results)
        # 3 distinct fingerprints -> exactly 3 misses, rest cache hits.
        assert sum(1 for r in results if r.cache == "miss") == 3

    def test_top_level_facade(self):
        results = repro.serve_requests(
            [make_request("f1"), make_request("f2")], num_workers=1)
        assert [r.status for r in results] == [RequestStatus.OK] * 2

    def test_simulate_false_skips_simulation(self):
        with CinnamonServer(num_workers=1) as server:
            result = server.submit(
                make_request("nosim", simulate=False)).result(60)
        assert result.ok and result.sim is None and result.cycles is None


def hold(server, held_shard):
    """Submit a blocker and wait until a shard is busy with it."""
    handle = server.submit(make_request("blocker", program_name="blocker"))
    assert held_shard.busy.wait(30)
    return handle


def owner(request, num_workers):
    """The shard a request belongs to, computed as admission will."""
    options = resolve_request_options(request.machine, request.options)
    key = fingerprint(request.program, request.params, options)
    return int(key, 16) % num_workers


class TestAdaptiveBatching:
    """A free shard takes its batch from the admission queue: the
    same-key backlog that formed while it was busy, up to max_batch."""

    def test_same_fingerprint_requests_coalesce(self, held_shard):
        with CinnamonServer(num_workers=1, max_batch=8) as server:
            blocker = hold(server, held_shard)
            handles = [server.submit(make_request(f"b{i}"))
                       for i in range(6)]
            held_shard.release()
            results = [h.result(60) for h in handles]
        assert blocker.result(60).ok
        assert all(r.ok for r in results)
        # All six rode one batch through one compile.
        assert [r.batch_size for r in results] == [6] * 6
        assert [r.cache for r in results] == ["miss"] + ["memory"] * 5

    def test_max_batch_splits_the_backlog(self, held_shard):
        with CinnamonServer(num_workers=1, max_batch=2) as server:
            hold(server, held_shard)
            handles = [server.submit(make_request(f"b{i}"))
                       for i in range(4)]
            held_shard.release()
            results = [h.result(60) for h in handles]
        assert all(r.ok and r.batch_size == 2 for r in results)
        snapshot = server.metrics_snapshot()
        assert snapshot["serve_batches_total"]["series"][0]["value"] == 3

    def test_distinct_fingerprints_not_batched_together(self, held_shard):
        with CinnamonServer(num_workers=1, max_batch=8) as server:
            hold(server, held_shard)
            rotations = {"a0": 1, "b0": 2, "a1": 1, "c0": 3, "b1": 2}
            handles = [server.submit(make_request(name, rotation=rotation))
                       for name, rotation in rotations.items()]
            held_shard.release()
            results = {h.request.name: h.result(60) for h in handles}
        assert all(r.ok for r in results.values())
        assert {name: r.batch_size for name, r in results.items()} == {
            "a0": 2, "a1": 2, "b0": 2, "b1": 2, "c0": 1}
        assert sum(r.cache == "miss" for r in results.values()) == 3

    def test_cache_affinity_routes_key_to_one_shard(self):
        with CinnamonServer(num_workers=4, max_batch=1) as server:
            results = [server.submit(make_request(f"s{i}")).result(60)
                       for i in range(6)]
        assert len({r.shard for r in results}) == 1

    def test_idle_shard_wakes_for_a_request_it_owns(self):
        """Both shards sleep in the queue; every put must wake both, or
        the one woken may not own the request and it waits forever."""
        rotation = next(r for r in range(1, 64)
                        if owner(make_request(rotation=r), 2) == 1)
        with CinnamonServer(num_workers=2) as server:
            for i in range(3):
                time.sleep(0.1)       # let both shards wait again
                result = server.submit(make_request(
                    f"w{i}", rotation=rotation)).result(5)
                assert result.ok and result.shard == 1


class TestBackpressure:
    def test_saturated_queue_rejects_not_hangs(self):
        """Acceptance: saturation is an immediate, explicit rejection."""
        with CinnamonServer(num_workers=1, queue_depth=2,
                            max_batch=64) as server:
            accepted, rejected = [], 0
            for i in range(40):
                try:
                    accepted.append(server.submit(make_request(f"p{i}")))
                except QueueSaturatedError:
                    rejected += 1
            assert rejected > 0
            server.drain()
            results = [h.result(30) for h in accepted]
        assert all(r.ok for r in results)
        snapshot = server.metrics_snapshot()
        series = snapshot["serve_requests_total"]["series"]
        by_status = {s["labels"]["status"]: s["value"] for s in series}
        assert by_status["rejected"] == rejected
        assert by_status["ok"] == len(accepted)

    def test_queue_depth_bounds_requests_no_shard_took(self, held_shard):
        """The admission queue is the only place a request waits, so
        ``queue_depth`` bounds everything no shard has taken: one busy
        shard plus two queued, the rest refused.  Arrivals are spaced
        so that nothing but the bound can refuse them."""
        with CinnamonServer(num_workers=1, queue_depth=2) as server:
            accepted = [hold(server, held_shard)]
            rejected = 0
            for i in range(19):
                time.sleep(0.01)
                try:
                    accepted.append(server.submit(
                        make_request(f"p{i}", rotation=i + 2)))
                except QueueSaturatedError:
                    rejected += 1
            assert (len(accepted), rejected) == (3, 17)
            held_shard.release()
            results = [h.result(60) for h in accepted]
        assert all(r.ok for r in results)

    def test_submit_after_shutdown_raises(self):
        server = CinnamonServer(num_workers=1)
        server.start()
        server.shutdown()
        with pytest.raises(ServerClosedError):
            server.submit(make_request("late"))


class TestDeadlines:
    def test_expired_deadline_resolves_timeout(self):
        with CinnamonServer(num_workers=1) as server:
            result = server.submit(
                make_request("dead", deadline_s=0.0)).result(30)
        assert result.status is RequestStatus.TIMEOUT
        assert "deadline" in result.error

    def test_server_default_timeout_applies(self):
        with CinnamonServer(num_workers=1,
                            request_timeout_s=0.0) as server:
            result = server.submit(make_request("dflt")).result(30)
        assert result.status is RequestStatus.TIMEOUT

    def test_deadline_lapsing_in_the_queue_times_out(self, held_shard):
        with CinnamonServer(num_workers=1) as server:
            hold(server, held_shard)
            handle = server.submit(make_request("stale", deadline_s=0.05))
            time.sleep(0.1)
            held_shard.release()
            result = handle.result(60)
        assert result.status is RequestStatus.TIMEOUT
        assert result.error.endswith("while queued")
        assert result.attempts == 0

    def test_generous_deadline_succeeds(self):
        with CinnamonServer(num_workers=1) as server:
            result = server.submit(
                make_request("alive", deadline_s=60.0)).result(60)
        assert result.ok


class TestDrainAndShutdown:
    def test_drain_completes_accepted_work(self):
        server = CinnamonServer(num_workers=2)
        server.start()
        handles = [server.submit(make_request(f"g{i}", rotation=i + 1))
                   for i in range(4)]
        assert server.drain(timeout=60)
        assert all(h.done() for h in handles)
        server.shutdown()
        assert all(h.result(0).ok for h in handles)

    def test_shutdown_without_drain_rejects_queued(self):
        server = CinnamonServer(num_workers=1, max_batch=64)
        server.start()
        handles = [server.submit(make_request(f"q{i}")) for i in range(8)]
        server.shutdown(drain=False)
        statuses = {h.result(30).status for h in handles if h.done()}
        assert statuses <= {RequestStatus.OK, RequestStatus.REJECTED}


class TestObservability:
    def test_metrics_and_trace_cover_requests(self):
        with CinnamonServer(num_workers=1) as server:
            for i in range(3):
                server.submit(make_request(f"m{i}")).result(60)
            text = server.metrics_prometheus()
            snapshot = server.metrics_snapshot()
            doc = server.trace()
        assert 'serve_requests_total{status="ok"} 3' in text
        assert "serve_request_latency_seconds_bucket" in text
        latency = snapshot["serve_request_latency_seconds"]["series"][0][
            "value"]
        assert latency["count"] == 3
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]
        hit_rate = snapshot["serve_compile_cache_hit_rate"]["series"][0][
            "value"]
        assert hit_rate == pytest.approx(2 / 3)

        assert doc["schema"] == TRACE_SCHEMA_VERSION
        serves = [j for j in doc["jobs"] if j["kind"] == "serve"]
        assert len(serves) == 3
        assert all(j["status"] == "ok" and j["machine"] == "Cinnamon-2"
                   and j["seconds"] > 0 for j in serves)

    def test_replaying_the_trace_reproduces_the_serve_series(self):
        """What the server journals is what its snapshot shows: counts,
        latency split and tenant bills are the fold of its serve rows."""
        with CinnamonServer(num_workers=1) as server:
            for i in range(3):
                server.submit(make_request(
                    f"fold-{i}", tenant=f"t{i % 2}")).result(60)
            server.submit(make_request("late", deadline_s=0.0)).result(60)
            snapshot, doc = server.metrics_snapshot(), server.trace()
        assert {s["labels"]["status"]: s["value"] for s in
                snapshot["serve_requests_total"]["series"]} == {
            "ok": 3, "timeout": 1, "failed": 0, "rejected": 0}
        assert snapshot["serve_execute_seconds"]["series"][0]["value"][
            "count"] == 3
        assert sum(s["value"] for s in snapshot[
            "cluster_tenant_sim_cycles_total"]["series"]) > 0
        assert replay_mismatches(snapshot, doc, kinds={"serve"}) == []

    def test_export_trace(self, tmp_path):
        with CinnamonServer(num_workers=1) as server:
            server.submit(make_request("t0")).result(60)
            path = server.export_trace(tmp_path / "serve_trace.json")
        import json

        doc = json.loads(path.read_text())
        assert doc["jobs"][0]["kind"] == "serve"
