"""Admission queue semantics: FIFO order, backpressure, drain."""

import threading

import pytest

from repro.serve import AdmissionQueue, QueueSaturatedError
from repro.serve.queue import Empty, QueueClosedError
from repro.serve.request import InferenceRequest


def request(name):
    return InferenceRequest(program=None, params=None, name=name)


class TestOrdering:
    def test_fifo_within_priority(self):
        queue = AdmissionQueue()
        for i in range(5):
            queue.put(request(f"r{i}"))
        assert [queue.get(0).name for _ in range(5)] == \
            [f"r{i}" for i in range(5)]


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
