"""Admission queue semantics: priority, backpressure, drain."""

import threading

import pytest

from repro.serve import AdmissionQueue, Priority, QueueSaturatedError
from repro.serve.queue import Empty, QueueClosedError
from repro.serve.request import InferenceRequest


def request(name, priority=Priority.NORMAL):
    return InferenceRequest(program=None, params=None, name=name,
                            priority=priority)


class TestOrdering:
    def test_fifo_within_priority(self):
        queue = AdmissionQueue()
        for i in range(5):
            queue.put(request(f"r{i}"))
        assert [queue.get(0).name for _ in range(5)] == \
            [f"r{i}" for i in range(5)]

    def test_priority_classes(self):
        queue = AdmissionQueue()
        queue.put(request("low", Priority.LOW))
        queue.put(request("normal", Priority.NORMAL))
        queue.put(request("high", Priority.HIGH))
        queue.put(request("high2", Priority.HIGH))
        order = [queue.get(0).name for _ in range(4)]
        assert order == ["high", "high2", "normal", "low"]


class TestBackpressure:
    def test_saturation_raises_not_blocks(self):
        queue = AdmissionQueue(maxsize=2)
        queue.put(request("a"))
        queue.put(request("b"))
        with pytest.raises(QueueSaturatedError) as exc:
            queue.put(request("c"))
        assert exc.value.depth == 2 and exc.value.maxsize == 2
        # Room frees up after a get.
        queue.get(0)
        queue.put(request("c"))
        assert queue.depth() == 2

    def test_unbounded_never_saturates(self):
        queue = AdmissionQueue(maxsize=0)
        for i in range(1000):
            queue.put(request(f"r{i}"))
        assert len(queue) == 1000

    def test_get_timeout_raises_empty(self):
        queue = AdmissionQueue()
        with pytest.raises(Empty):
            queue.get(timeout=0.01)


class TestCloseAndDrain:
    def test_put_after_close_raises(self):
        queue = AdmissionQueue()
        queue.close()
        with pytest.raises(QueueClosedError):
            queue.put(request("late"))

    def test_queued_work_survives_close(self):
        queue = AdmissionQueue()
        queue.put(request("a"))
        queue.put(request("b"))
        queue.close()
        assert queue.get(0).name == "a"
        assert queue.get(0).name == "b"
        with pytest.raises(Empty):  # closed + dry: immediate, no timeout
            queue.get(timeout=30)

    def test_put_wakes_a_blocked_getter(self):
        queue = AdmissionQueue()
        got = []
        thread = threading.Thread(
            target=lambda: got.append(queue.get(timeout=5)))
        thread.start()
        queue.put(request("x"))
        thread.join(timeout=5)
        assert [r.name for r in got] == ["x"]

    def test_close_wakes_blocked_getters(self):
        queue = AdmissionQueue()
        woke = threading.Event()

        def getter():
            with pytest.raises(Empty):
                queue.get(timeout=30)
            woke.set()

        thread = threading.Thread(target=getter)
        thread.start()
        queue.close()
        assert woke.wait(5)
        thread.join()


class TestForcedRequeue:
    def test_force_bypasses_close_and_depth_bound(self):
        """``put(force=True)`` is a front-end's requeue of an already
        admitted request: neither a drain-closed queue nor a full one
        may drop it, and it still dequeues in (priority, seq) order."""
        queue = AdmissionQueue(maxsize=1)
        queue.put(request("normal"))
        with pytest.raises(QueueSaturatedError):
            queue.put(request("over"))
        queue.put(request("low", Priority.LOW), force=True)
        queue.close()
        with pytest.raises(QueueClosedError):
            queue.put(request("late"))
        queue.put(request("high", Priority.HIGH), force=True)
        queue.put(request("normal2"), force=True)
        assert queue.depth() == 4
        assert [queue.get(0).name for _ in range(4)] == \
            ["high", "normal", "normal2", "low"]
        with pytest.raises(Empty):
            queue.get(timeout=0)
