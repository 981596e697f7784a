"""RequestLifecycle on its own — no queue, no executor, no threads but
the ones a test starts: every terminal transition journals exactly one
``serve`` row, bills the tenant once and resolves the handle once."""

import sys
import threading

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.runtime.trace import TraceRecorder
from repro.serve.lifecycle import RequestLifecycle
from repro.serve.request import LatencyBreakdown, RequestResult, \
    RequestStatus

from .conftest import make_request

SERVE_ROW_KEYS = {
    "job", "kind", "status", "machine", "shard", "attempts", "batch_size",
    "cache", "seconds", "queue_s", "execute_s", "tenant",
    "trace_id", "span_id",
}
COST = {"sim_cycles": 1234, "bootstraps": 0, "bytes": 4096,
        "compile_s": 0.25}


@pytest.fixture
def lifecycle():
    obs.enable(reset=True)
    metrics = MetricsRegistry()
    yield RequestLifecycle(metrics, TraceRecorder(registry=metrics),
                           default_machine="cinnamon_4",
                           request_timeout_s=30.0)
    obs.disable()
    obs.tracer().reset()


def admit(lifecycle, dispatched=False, **kwargs):
    request = make_request(tenant="acme", **kwargs)
    handle = lifecycle.admit(request)
    if dispatched:
        lifecycle.dispatched([request], request.submitted_at + 0.01)
    return request, handle


def reject(lifecycle):
    request, handle = admit(lifecycle)
    assert lifecycle.reject(request, "admission queue saturated")
    return handle


def timeout_queued(lifecycle):
    request, handle = admit(lifecycle, deadline_s=0.001)
    assert lifecycle.timeout(request, request.submitted_at + 1.0)
    return handle


def timeout_dispatched(lifecycle):
    request, handle = admit(lifecycle, dispatched=True, deadline_s=0.001)
    assert lifecycle.timeout(request, request.submitted_at + 1.0, shard=1)
    return handle


def fail(lifecycle):
    request, handle = admit(lifecycle, dispatched=True)
    request.attempts = 3
    assert lifecycle.fail(request, "WorkerCrashError: boom", shard=0,
                          batch_size=2)
    return handle


def ok(lifecycle):
    request, handle = admit(lifecycle, dispatched=True)
    request.attempts = 1
    start = request.submitted_at
    assert lifecycle.ok(request, start + 0.5, started=start + 0.1,
                        execute_s=0.4, shard=0, batch_size=1, cache="miss",
                        cycles=1234, cost=dict(COST))
    return handle


TRANSITIONS = {
    "rejected": (reject, RequestStatus.REJECTED),
    "timeout-queued": (timeout_queued, RequestStatus.TIMEOUT),
    "timeout-dispatched": (timeout_dispatched, RequestStatus.TIMEOUT),
    "failed": (fail, RequestStatus.FAILED),
    "ok": (ok, RequestStatus.OK),
}


def series(lifecycle, family):
    """{labels-as-sorted-tuple: value} of one metric family."""
    snapshot = lifecycle.metrics.snapshot().get(family, {"series": []})
    return {tuple(sorted(s["labels"].items())): s["value"]
            for s in snapshot["series"]}


class TestAdmission:
    def test_defaults_options_and_fingerprint_are_pinned(self, lifecycle):
        request = make_request(machine=None)
        handle = lifecycle.admit(request)
        assert handle.request is request and not handle.done()
        assert request.machine_name == "Cinnamon-4"     # default_machine
        assert request.deadline_s == 30.0               # request_timeout_s
        # The resolved options ride on the request; machine is folded in.
        assert request.machine is None
        assert request.options.machine.name == "Cinnamon-4"
        assert request.key and request.submitted_at is not None
        assert request.attempts == 0 and request.dispatched_at is None

    def test_same_program_same_fingerprint(self, lifecycle):
        first, _ = admit(lifecycle, rotation=3)
        second, _ = admit(lifecycle, rotation=3)
        other, _ = admit(lifecycle, rotation=4)
        assert first.key == second.key != other.key


class TestTerminalTransitions:
    @pytest.mark.parametrize("name", sorted(TRANSITIONS))
    def test_one_row_one_bill_one_resolution(self, lifecycle, name):
        transition, status = TRANSITIONS[name]
        handle = transition(lifecycle)

        result = handle.result(timeout=0)
        assert result.status is status
        assert result.attempts == handle.request.attempts
        assert result.latency.total_s >= 0.0

        rows = lifecycle.recorder.jobs
        assert [row["kind"] for row in rows] == ["serve"]
        assert set(rows[0]) - {"cost"} == SERVE_ROW_KEYS
        assert rows[0]["status"] == status.value
        assert rows[0]["tenant"] == "acme"
        assert rows[0]["trace_id"] == handle.request.span.trace_id

        requests_total = series(lifecycle, "serve_requests_total")
        assert requests_total[(("status", status.value),)] == 1
        assert sum(requests_total.values()) == 1
        assert series(lifecycle, "cluster_tenant_requests_total") == {
            (("status", status.value), ("tenant", "acme")): 1}
        assert series(lifecycle, "serve_inflight_requests") == {(): 0}

        spans = obs.tracer().spans(
            trace_id=handle.request.span.trace_id)
        assert {s.kind for s in spans} == {"serve", "queue"}
        assert all(s.finished for s in spans)
        assert lifecycle.wait_drained(0)

    def test_timeout_error_names_the_stage(self, lifecycle):
        assert "while queued" in \
            timeout_queued(lifecycle).result(0).error
        assert "while dispatched" in \
            timeout_dispatched(lifecycle).result(0).error

    def test_ok_splits_latency_and_bills_the_cost(self, lifecycle):
        result = ok(lifecycle).result(timeout=0)
        assert result.latency.queue_s == pytest.approx(0.1)
        assert result.latency.execute_s == pytest.approx(0.4)
        assert result.latency.total_s == pytest.approx(0.5)
        assert lifecycle.recorder.jobs[0]["cost"] == COST
        acme = (("tenant", "acme"),)
        assert series(lifecycle, "cluster_tenant_sim_cycles_total") == {
            acme: 1234}
        assert series(lifecycle, "cluster_tenant_bytes_total") == {
            acme: 4096}
        assert series(lifecycle, "cluster_tenant_compile_seconds_total") \
            == {acme: 0.25}
        assert lifecycle.metrics.snapshot()["serve_execute_seconds"][
            "series"][0]["value"]["count"] == 1

    def test_unexecuted_outcomes_bill_no_cost(self, lifecycle):
        fail(lifecycle)
        assert "cost" not in lifecycle.recorder.jobs[0]
        assert series(lifecycle, "cluster_tenant_sim_cycles_total") == {}

    def test_requeue_returns_a_request_to_the_queued_stage(self, lifecycle):
        request, handle = admit(lifecycle, dispatched=True,
                                deadline_s=0.001)
        assert series(lifecycle, "serve_inflight_requests") == {(): 1}
        lifecycle.requeued(request)
        assert series(lifecycle, "serve_inflight_requests") == {(): 0}
        lifecycle.timeout(request, request.submitted_at + 1.0)
        assert "while queued" in handle.result(0).error


class TestExactlyOnce:
    def test_second_finish_is_a_no_op(self, lifecycle):
        """A result frame racing a timeout, the server's defensive
        re-fail of an already-resolved batch: the loser changes nothing."""
        request, handle = admit(lifecycle, dispatched=True)
        first = RequestResult(request.request_id, "req", RequestStatus.OK,
                              latency=LatencyBreakdown(total_s=0.1),
                              cost=dict(COST))
        late = RequestResult(request.request_id, "req",
                             RequestStatus.TIMEOUT)
        assert lifecycle.finish(request, first) is True
        assert lifecycle.finish(request, late) is False
        assert lifecycle.fail(request, "internal dispatch error") is False

        assert handle.result(timeout=0) is first
        assert len(lifecycle.recorder.jobs) == 1
        assert sum(series(lifecycle, "serve_requests_total").values()) == 1
        assert series(lifecycle, "cluster_tenant_requests_total") == {
            (("status", "ok"), ("tenant", "acme")): 1}
        assert series(lifecycle, "cluster_tenant_sim_cycles_total") == {
            (("tenant", "acme"),): 1234}
        assert series(lifecycle, "serve_inflight_requests") == {(): 0}

    def test_racing_finishers_resolve_each_request_once(self, lifecycle):
        """More threads than cores all try to resolve the same requests;
        a lost update would show as a miscounted row, bill or gauge."""
        admitted = [admit(lifecycle, dispatched=True, name=f"race-{i}")
                    for i in range(100)]
        wins = []

        def finisher(status):
            won = 0
            for request, _ in admitted:
                result = RequestResult(request.request_id, request.label,
                                       status)
                won += lifecycle.finish(request, result)
            wins.append(won)

        threads = [threading.Thread(target=finisher, args=(status,))
                   for status in list(RequestStatus) * 2]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

        assert sum(wins) == len(admitted)
        assert len(lifecycle.recorder.jobs) == len(admitted)
        assert sum(series(lifecycle, "serve_requests_total").values()) \
            == len(admitted)
        assert series(lifecycle, "serve_inflight_requests") == {(): 0}
        assert all(handle.done() for _, handle in admitted)


class TestDrain:
    def test_wait_drained_tracks_outstanding_requests(self, lifecycle):
        assert lifecycle.wait_drained(timeout=0)
        first, _ = admit(lifecycle)
        second, _ = admit(lifecycle, dispatched=True)
        assert not lifecycle.wait_drained(timeout=0.05)
        lifecycle.reject(first, "shut down")
        assert not lifecycle.wait_drained(timeout=0.05)
        lifecycle.fail(second, "boom")
        assert lifecycle.wait_drained(timeout=0.05)

    def test_wait_drained_wakes_on_the_last_finish(self, lifecycle):
        request, handle = admit(lifecycle)
        timer = threading.Timer(
            0.05, lifecycle.reject, args=(request, "late"))
        timer.start()
        try:
            assert lifecycle.wait_drained(timeout=10)
        finally:
            timer.join(timeout=10)
        assert handle.done()
