"""Serving-layer throughput: batching on vs. batch-size-1.

Not a paper figure — this benchmarks the `repro.serve` subsystem in the
regime batching exists for: a burst of mixed traffic (open-loop arrivals
far above the service rate) against shards whose in-memory artifact
cache is capacity-bounded (the realistic setting: compiled bootstraps
run to ~1 GB, so a shard holds a couple of artifacts, not the whole
mix).  Batch-size-1 interleaves the four workload classes and thrashes
the LRU — most requests recompile; with batching on, the free shard
takes the same-fingerprint requests queued behind the oldest one, so
each batch pays at most one compile and runs its jobs in order.

Asserts the acceptance shape: batching-on throughput strictly higher
than batch-size-1, with p50/p95/p99 latency present in the metrics
snapshot.
"""

import time

import pytest

from repro.serve import CinnamonServer
from repro.serve.loadgen import LoadGenerator, build_report
from repro.workloads.serving import serving_mix

NUM_REQUESTS = 96
BURST_RATE_RPS = 20000.0      # effectively: the whole load arrives at once
SHARD_CACHE_CAPACITY = 2      # four workload classes > capacity => thrash


def serve_burst(max_batch, num_requests=NUM_REQUESTS, seed=5):
    """One loadgen run; returns (report, metrics snapshot)."""
    server = CinnamonServer(
        num_workers=1, max_batch=max_batch,
        queue_depth=0,  # unbounded: compare throughput, not admission
        seed=seed, capacity=SHARD_CACHE_CAPACITY)
    generator = LoadGenerator(server, serving_mix("small"), seed=seed)
    with server:
        start = time.monotonic()
        results = generator.run_open_loop(num_requests, BURST_RATE_RPS,
                                          machine=2)
        server.drain()
        duration = time.monotonic() - start
        report = build_report(
            server, results, duration, mode="open", machine="2",
            scale="small", offered=num_requests,
            per_class=generator._sent_per_class)
        snapshot = server.metrics_snapshot()
    return report, snapshot


class TestServingThroughput:
    def test_adaptive_batching_beats_batch_size_1(self, once):
        batched, batched_metrics = once(serve_burst, max_batch=12)
        unbatched, _ = serve_burst(max_batch=1)

        print("\nServing throughput, 96-request mixed burst, "
              f"shard cache capacity {SHARD_CACHE_CAPACITY}:")
        print(f"  batching (max_batch=12):          "
              f"{batched.throughput_rps:7.1f} req/s  "
              f"(mean batch {batched.batch['mean']:.1f})")
        print(f"  batch-size-1:                     "
              f"{unbatched.throughput_rps:7.1f} req/s")
        print(f"  speedup: {batched.throughput_rps / unbatched.throughput_rps:.2f}x")
        print(batched.render())

        # Everything served, nothing dropped, in both configurations.
        assert batched.failed == 0 and unbatched.failed == 0
        assert batched.counts["ok"] == NUM_REQUESTS
        # The acceptance shape: batching strictly wins on the mixed burst.
        assert batched.throughput_rps > unbatched.throughput_rps
        # Coalescing is the mechanism: visibly larger batches.
        assert batched.batch["mean"] > 1.5
        assert unbatched.batch["mean"] == 1.0

        # p50/p95/p99 present (and ordered) in the metrics snapshot.
        latency = batched_metrics["serve_request_latency_seconds"][
            "series"][0]["value"]
        assert latency["count"] == NUM_REQUESTS
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]

    def test_batching_reduces_compiles_under_thrash(self, once):
        batched, _ = once(serve_burst, max_batch=12, seed=9)
        unbatched, _ = serve_burst(max_batch=1, seed=9)
        # Stores == real compiles; batching needs several times fewer.
        assert batched.cache["lookups"] > 0
        assert batched.cache["hit_rate"] > unbatched.cache["hit_rate"]
