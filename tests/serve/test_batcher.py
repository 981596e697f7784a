"""Batching from the admission queue: ``AdmissionQueue.take`` hands a
free shard the oldest request it owns plus the same-key requests queued
behind it, up to ``max_batch``."""

import threading
import time

import pytest

from repro.serve import AdmissionQueue
from repro.serve.queue import Empty
from repro.serve.request import InferenceRequest


def request(key, machine="M2", name=None, simulate=True):
    req = InferenceRequest(program=None, params=None, name=name or key,
                           simulate=simulate)
    req.key = key
    req.machine_name = machine
    return req


def queued(*requests):
    queue = AdmissionQueue()
    for req in requests:
        queue.put(req)
    return queue


def names(batch):
    return [req.name for req in batch]


class TestCoalescing:
    def test_same_key_fills_one_bucket(self):
        queue = queued(*(request("k1", name=f"r{i}") for i in range(5)))
        assert names(queue.take(max_batch=3, timeout=0)) == \
            ["r0", "r1", "r2"]
        assert names(queue.take(max_batch=3, timeout=0)) == ["r3", "r4"]
        assert queue.depth() == 0

    def test_distinct_keys_do_not_coalesce(self):
        queue = queued(request("k1", name="a"), request("k2", name="b"),
                       request("k1", machine="M4", name="c"),
                       request("k1", simulate=False, name="d"),
                       request("k1", name="e"))
        batches = [names(queue.take(max_batch=8, timeout=0))
                   for _ in range(4)]
        assert batches == [["a", "e"], ["b"], ["c"], ["d"]]

    def test_force_flush_empties_everything(self):
        """A closed queue still hands out all it holds, batch by batch,
        then raises at once: a drain finishes accepted work."""
        queue = queued(request("k1"), request("k2"), request("k1"))
        queue.close()
        assert [len(queue.take(max_batch=8, timeout=30))
                for _ in range(2)] == [2, 1]
        with pytest.raises(Empty):
            queue.take(max_batch=8, timeout=30)


class TestOwnership:
    def test_take_skips_requests_another_shard_owns(self):
        queue = queued(request("k1", name="a"), request("k2", name="b"),
                       request("k2", name="c"), request("k1", name="d"))
        mine = names(queue.take(lambda r: r.key == "k2", max_batch=8,
                                timeout=0))
        assert mine == ["b", "c"]
        assert names(queue.take(max_batch=8, timeout=0)) == ["a", "d"]

    def test_closed_queue_holding_only_others_work_raises(self):
        queue = queued(request("k1"))
        queue.close()
        with pytest.raises(Empty):
            queue.take(lambda r: r.key == "k2", max_batch=8, timeout=30)
        assert queue.depth() == 1

    def test_put_wakes_the_owner_among_several_waiters(self):
        """k1's shard waits first, so a put that woke only the first
        waiter would hand k2's request to the wrong shard."""
        queue = AdmissionQueue()
        got = {}

        def shard(key):
            got[key] = names(queue.take(lambda r: r.key == key,
                                        max_batch=8))

        threads = [threading.Thread(target=shard, args=(key,))
                   for key in ("k1", "k2")]
        for thread in threads:
            thread.start()
            time.sleep(0.05)      # both wait, in this order
        queue.put(request("k2", name="b"))
        time.sleep(0.05)
        queue.put(request("k1", name="a"))
        for thread in threads:
            thread.join(timeout=5)
        queue.close()             # frees a stranded waiter either way
        assert got == {"k1": ["a"], "k2": ["b"]}
