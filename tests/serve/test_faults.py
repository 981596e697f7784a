"""Fault injection and deadlines against a live server: a drained chip
crash leaves the server clean, and a slow execution is absorbed within
its deadline or resolves ``TIMEOUT`` past it."""

import time

from repro.serve import (
    CinnamonServer,
    FaultInjector,
    RequestStatus,
)

from .conftest import make_request


class TestLatencySpike:
    def test_spike_absorbed_within_deadline(self, slow_run):
        with CinnamonServer(num_workers=1) as server:
            started = time.monotonic()
            result = server.submit(
                make_request("slow", deadline_s=30.0)).result(60)
            elapsed = time.monotonic() - started
        assert result.ok and result.attempts == 1
        assert elapsed >= 0.3  # the spike really happened

    def test_spike_past_deadline_times_out(self, slow_run):
        with CinnamonServer(num_workers=1, max_retries=0) as server:
            result = server.submit(
                make_request("late", deadline_s=0.15)).result(60)
        # Dispatched in time, the deadline lapsed mid-execution.
        assert result.status is RequestStatus.TIMEOUT
        assert result.attempts == 1


class TestScoping:
    def test_drained_injector_is_inert(self):
        faults = FaultInjector().chip_crash(chip=1, cycle=1000)
        with CinnamonServer(num_workers=1, faults=faults) as server:
            first = server.submit(make_request("x1")).result(60)
            assert first.ok and first.sim.machine == "Cinnamon-1"
            assert faults.remaining() == 0
            follow_up = server.submit(make_request("x2")).result(60)
        assert follow_up.ok and follow_up.attempts == 1
        assert follow_up.sim.machine == "Cinnamon-2"
