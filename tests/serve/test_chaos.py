"""Chaos: chip crashes and watchdog timeouts against a live server."""

import json

from repro.runtime import CinnamonSession
from repro.runtime.trace import TRACE_SCHEMA_VERSION
from repro.serve import CinnamonServer, FaultInjector, RequestStatus, \
    serve_requests
from repro.serve.loadgen import main as loadgen_main
from repro.sim import WatchdogTimeout

from .conftest import PARAMS, make_program, make_request


def counter(server, name):
    snap = server.metrics_snapshot()[name]
    return sum(series["value"] for series in snap["series"])


class TestChipCrashRecovery:
    def test_mid_flight_chip_crash_loses_zero_requests(self):
        faults = FaultInjector().chip_crash(chip=1, cycle=1000)
        server = CinnamonServer(num_workers=1, queue_depth=0,
                                faults=faults, max_recoveries=2)
        with server:
            handles = server.submit_many(
                [make_request(f"chaos-{i}") for i in range(3)])
            server.drain()
            results = [h.result(timeout=600) for h in handles]
            assert all(r.status is RequestStatus.OK for r in results)
            assert faults.injected["chip_crash"] == 1
            assert counter(server, "serve_chip_failures_total") == 1
            assert counter(server, "serve_recoveries_total") == 1
            failed = counter(server, "serve_requests_total") - len(results)
            assert failed == 0
            trace = server.trace()
            assert trace["schema"] == TRACE_SCHEMA_VERSION
            recoveries = [e for e in trace["jobs"]
                          if e.get("kind") == "recovery"]
            assert len(recoveries) == 1
            entry = recoveries[0]
            assert entry["fault"] == "chip_crash"
            assert entry["chip"] == 1
            assert entry["machine_from"] == "Cinnamon-2"
            assert entry["machine_to"] == "Cinnamon-1"
            assert entry["replay_s"] is not None

    def test_recovery_does_not_consume_retries(self):
        faults = FaultInjector().chip_crash(chip=1, cycle=1000)
        results = serve_requests([make_request("no-retry")],
                                 num_workers=1, faults=faults,
                                 max_retries=0)
        assert results[0].status is RequestStatus.OK

    def test_recovery_budget_zero_fails_over_to_retries(self):
        # With recoveries disabled, the crash burns one regular retry and
        # the second (clean) attempt succeeds: the injector is drained.
        faults = FaultInjector().chip_crash(chip=1, cycle=1000)
        server = CinnamonServer(num_workers=1, faults=faults,
                                max_recoveries=0, max_retries=1,
                                retry_backoff_s=0.001)
        with server:
            handle = server.submit(make_request("budget-zero"))
            result = handle.result(timeout=600)
        assert result.status is RequestStatus.OK
        assert result.attempts == 2
        assert counter(server, "serve_chip_failures_total") == 1
        assert counter(server, "serve_recoveries_total") == 0

    def test_single_chip_crash_cannot_degrade(self):
        # A 1-chip machine has no rung below it: the fault falls through
        # to the retry path, and the drained injector lets a retry pass.
        faults = FaultInjector().chip_crash(chip=0, cycle=1000)
        server = CinnamonServer(num_workers=1, faults=faults,
                                max_retries=1, retry_backoff_s=0.001)
        with server:
            handle = server.submit(make_request("one-chip", machine=1))
            result = handle.result(timeout=600)
        assert result.status is RequestStatus.OK
        assert counter(server, "serve_recoveries_total") == 0


class TestWatchdog:
    def test_session_watchdog_raises(self):
        session = CinnamonSession(watchdog_s=0.0)
        compiled = session.compile(make_program("wd-prog"), PARAMS,
                                   machine=2)
        try:
            session.simulate(compiled, 2)
        except WatchdogTimeout as exc:
            assert exc.deadline_s == 0.0
            assert exc.elapsed_s >= 0.0
        else:
            raise AssertionError("expected WatchdogTimeout")

    def test_server_watchdog_counts_and_fails(self):
        server = CinnamonServer(num_workers=1, watchdog_s=0.0,
                                max_retries=0)
        with server:
            handle = server.submit(make_request("wd-req"))
            result = handle.result(timeout=600)
        assert result.status is RequestStatus.FAILED
        assert "WatchdogTimeout" in (result.error or "")
        assert counter(server, "serve_watchdog_timeouts_total") >= 1


class TestLoadgenChaos:
    def test_cli_chaos_run_serves_everything(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        code = loadgen_main([
            "--requests", "6", "--workers", "2", "--concurrency", "2",
            "--machine", "cinnamon_4", "--scale", "small",
            "--mix", "bootstrap=0,resnet-block=1,helr-step=0,bert-layer=0",
            "--chaos-chip-crash", "1", "--chaos-cycle", "2000",
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
            "--fail-on-errors",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos" in out
        snapshot = json.loads(metrics_path.read_text())
        chaos = snapshot["loadgen"]["chaos"]
        assert chaos["chip_failures"] == 1
        assert chaos["recoveries"] == 1
        assert snapshot["loadgen"]["counts"].get("ok") == 6
        trace = json.loads(trace_path.read_text())
        assert trace["schema"] == TRACE_SCHEMA_VERSION
        recoveries = [e for e in trace["jobs"]
                      if e.get("kind") == "recovery"]
        assert len(recoveries) == 1
        assert recoveries[0]["machine_to"] == "Cinnamon-2"
