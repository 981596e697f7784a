"""ShardExecutor on its own — no front-end, no queue, no sockets: the
one attempt loop under both policies in use (``max_retries=2`` as a
CinnamonServer shard runs it, ``max_retries=0`` as a ClusterWorker
does)."""

import pytest

from repro import obs
from repro.obs.analyze import check
from repro.obs.metrics import MetricsRegistry
from repro.runtime import CinnamonSession
from repro.runtime.trace import TraceRecorder
from repro.serve import FaultInjector, RequestStatus
from repro.serve.executor import ShardExecutor
from repro.serve.lifecycle import RequestLifecycle
from repro.sim import ChipCrash

from .conftest import make_request

EXECUTOR_COUNTERS = {
    "serve_chip_failures_total", "serve_recoveries_total",
    "serve_watchdog_timeouts_total",
}


class Rig:
    """An executor plus what a front-end would give it: admitted
    requests and a registry/journal to read afterwards."""

    def __init__(self, max_retries, faults=None, **policy):
        self.metrics = MetricsRegistry()
        self.recorder = TraceRecorder(registry=self.metrics)
        self.session = CinnamonSession()
        self.lifecycle = RequestLifecycle(self.metrics, self.recorder)
        self.executor = ShardExecutor(
            self.session, self.metrics, recorder=self.recorder,
            faults=faults, shard="rig", max_retries=max_retries,
            retry_backoff_s=0.001, **policy)

    def run(self, *requests):
        for request in requests:
            self.lifecycle.admit(request)
        return self.executor.execute(requests)

    def counter(self, name):
        return self.metrics.snapshot()[name]["series"][0]["value"]

    def recoveries(self):
        return [row for row in self.recorder.document({})["jobs"]
                if row["kind"] == "recovery"]


@pytest.fixture(params=[2, 0], ids=["server-policy", "worker-policy"])
def max_retries(request):
    return request.param


def test_clean_batch_and_the_counters_it_owns(max_retries):
    rig = Rig(max_retries)
    assert EXECUTOR_COUNTERS <= set(rig.metrics.snapshot())
    first, second = rig.run(make_request("a"), make_request("b"))
    assert first.status is second.status is RequestStatus.OK
    assert first.attempts == 1 and first.cycles > 0
    assert first.cost["sim_cycles"] == first.cycles
    assert first.started <= first.done
    assert first.compiled is not None and first.sim is not None
    assert not rig.recoveries()


def test_latency_past_the_deadline_is_a_timeout(max_retries, slow_run):
    rig = Rig(max_retries)
    late, fine = rig.run(make_request("late", deadline_s=0.15),
                         make_request("fine", deadline_s=30.0))
    assert late.status is RequestStatus.TIMEOUT and late.error is None
    assert late.attempts == 1 and late.started is not None
    assert fine.status is RequestStatus.OK
    (expired,) = rig.run(make_request("expired", deadline_s=-1.0))
    assert expired.status is RequestStatus.TIMEOUT
    assert expired.attempts == 0 and expired.started is None


def test_chip_crash_descends_once_without_spending_a_retry(max_retries):
    obs.enable(reset=True)
    try:
        rig = Rig(max_retries, FaultInjector().chip_crash(chip=1, cycle=1000))
        first, second = rig.run(make_request("die-0"),
                                make_request("die-1"))
        document = rig.recorder.document({})
        document["jobs"].extend(rig.session.trace()["jobs"])
    finally:
        obs.disable()
        obs.tracer().reset()
    assert first.status is second.status is RequestStatus.OK
    assert first.attempts == 1          # holds for max_retries=0 too
    assert rig.counter("serve_chip_failures_total") == 1
    assert rig.counter("serve_recoveries_total") == 1
    (row,) = rig.recoveries()           # one row per batch
    assert row["fault"] == "chip_crash" and row["chip"] == 1
    assert (row["machine_from"], row["machine_to"]) == \
        ("Cinnamon-2", "Cinnamon-1")
    assert row["detection_s"] > 0 and row["replay_s"] > 0
    assert row["trace_id"] and row["span_id"]
    # Only the batch's serve rows are missing (no front-end here).
    assert check(document) == []


def test_unfired_chip_fault_is_refunded_until_it_lands(max_retries):
    faults = FaultInjector().chip_crash(chip=1, cycle=10 ** 9)
    rig = Rig(max_retries, faults)
    (short,) = rig.run(make_request("too-short"))
    assert short.status is RequestStatus.OK
    assert short.cycles < 10 ** 9
    assert faults.remaining() == 1 and faults.injected["chip_crash"] == 0
    assert not rig.recoveries()
    faults.faults[0].crash = ChipCrash(chip=1, cycle=1000)  # now inside
    (hit,) = rig.run(make_request("long-enough"))
    assert hit.status is RequestStatus.OK
    assert faults.remaining() == 0 and faults.injected["chip_crash"] == 1
    assert len(rig.recoveries()) == 1


@pytest.mark.parametrize("failure", ["watchdog", "compile"])
def test_crash_survives_an_attempt_that_fails_otherwise(max_retries, failure,
                                                        monkeypatch):
    """An armed crash is spent only when it fires: an attempt that fails
    some other way hands it back, and it lands on a later batch."""
    faults = FaultInjector().chip_crash(chip=1, cycle=1000)
    rig = Rig(max_retries, faults)
    if failure == "watchdog":
        rig.executor.watchdog_s = 0.0
    else:
        def broken_compile(*args, **kwargs):
            raise RuntimeError("compiler crashed")

        monkeypatch.setattr(rig.session, "_compile", broken_compile)
    (failed,) = rig.run(make_request("armed-but-failing"))
    assert failed.status is RequestStatus.FAILED
    assert failed.attempts == max_retries + 1
    assert rig.counter("serve_chip_failures_total") == 0
    assert faults.remaining() == 1 and faults.injected["chip_crash"] == 0
    rig.executor.watchdog_s = None
    monkeypatch.undo()
    (hit,) = rig.run(make_request("lands"))
    assert hit.status is RequestStatus.OK and hit.attempts == 1
    assert rig.counter("serve_chip_failures_total") == 1
    assert faults.remaining() == 0 and faults.injected["chip_crash"] == 1
    assert len(rig.recoveries()) == 1


def test_one_chip_machine_is_out_of_rungs(max_retries):
    rig = Rig(max_retries, FaultInjector().chip_crash(chip=0, cycle=1000))
    (result,) = rig.run(make_request("one-chip", machine=1))
    assert rig.counter("serve_chip_failures_total") == 1
    assert rig.counter("serve_recoveries_total") == 0
    assert not rig.recoveries()
    if max_retries:     # falls through to a retry; the injector is spent
        assert result.status is RequestStatus.OK and result.attempts == 2
    else:
        assert result.status is RequestStatus.FAILED
        assert "ChipFailure" in result.error


def test_recovery_budget_is_per_batch(max_retries):
    rig = Rig(max_retries, FaultInjector().chip_crash(chip=1, cycle=1000),
              max_recoveries=0)
    (result,) = rig.run(make_request("no-budget"))
    assert rig.counter("serve_recoveries_total") == 0
    assert result.status is (RequestStatus.OK if max_retries
                             else RequestStatus.FAILED)


def test_watchdog_is_counted(max_retries):
    rig = Rig(max_retries, watchdog_s=0.0)
    (result,) = rig.run(make_request("hung"))
    assert result.status is RequestStatus.FAILED
    assert result.attempts == max_retries + 1
    assert "WatchdogTimeout" in result.error
    assert rig.counter("serve_watchdog_timeouts_total") == max_retries + 1
