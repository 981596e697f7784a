"""Merging per-worker metrics snapshots."""

import pytest

from repro.cluster.merge import (merge_histogram_values, merge_snapshots,
                                 merged_scalar)
from repro.obs.metrics import MetricsRegistry


def snapshot_with(counter=None, gauge=None, hist=None):
    registry = MetricsRegistry()
    for labels, value in (counter or {}).items():
        registry.counter("reqs", "d", labels=dict(labels)).inc(value)
    if gauge is not None:
        registry.gauge("depth", "d").set(gauge)
    for value in hist or ():
        registry.histogram("lat", "d").observe(value)
    return registry.snapshot()


class TestCounters:
    def test_summed_per_label_set(self):
        a = snapshot_with(counter={(("status", "ok"),): 3})
        b = snapshot_with(counter={(("status", "ok"),): 4,
                                   (("status", "failed"),): 1})
        merged = merge_snapshots([a, b])
        assert merged_scalar(merged, "reqs", {"status": "ok"}) == 7
        assert merged_scalar(merged, "reqs", {"status": "failed"}) == 1
        assert merged_scalar(merged, "reqs") == 8   # across labels

    def test_disjoint_metric_names_survive(self):
        merged = merge_snapshots([snapshot_with(counter={(): 1}),
                                  snapshot_with(gauge=5)])
        assert merged_scalar(merged, "reqs") == 1
        assert merged_scalar(merged, "depth") == 5


class TestGauges:
    def test_gauges_sum_across_processes(self):
        merged = merge_snapshots([snapshot_with(gauge=2),
                                  snapshot_with(gauge=3)])
        assert merged_scalar(merged, "depth") == 5


class TestHistograms:
    def test_count_sum_max_exact(self):
        a = snapshot_with(hist=[0.1, 0.2, 0.3])
        b = snapshot_with(hist=[1.0])
        merged = merge_snapshots([a, b])
        value = merged["lat"]["series"][0]["value"]
        assert value["count"] == 4
        assert value["sum"] == pytest.approx(1.6)
        assert value["mean"] == pytest.approx(0.4)
        assert value["max"] == pytest.approx(1.0)
        # Both sides still carry their complete reservoirs, so the merge
        # re-ranks the concatenated samples instead of approximating.
        assert value["quantiles"] == "exact"

    def test_small_n_quantiles_match_single_process(self):
        """Regression: few-sample cluster p99 == single-process p99.

        Split the same observations across two workers; the merged
        quantiles must equal a single registry observing all of them
        (the old count-weighted interpolation got p99 wrong by ~2x
        whenever one worker caught the tail)."""
        observations = [0.01, 0.02, 0.05, 0.1, 0.1, 0.2, 0.4, 3.0]
        direct = MetricsRegistry()
        for value in observations:
            direct.histogram("lat", "d").observe(value)
        expected = direct.snapshot()["lat"]["series"][0]["value"]

        merged = merge_snapshots([snapshot_with(hist=observations[:3]),
                                  snapshot_with(hist=observations[3:])])
        value = merged["lat"]["series"][0]["value"]
        assert value["quantiles"] == "exact"
        for q in ("p50", "p95", "p99"):
            assert value[q] == pytest.approx(expected[q]), q
        assert value["buckets"] == expected["buckets"]

    def test_exact_merge_carries_samples_for_nesting(self):
        once = merge_snapshots([snapshot_with(hist=[0.1]),
                                snapshot_with(hist=[2.0])])
        twice = merge_snapshots([once, snapshot_with(hist=[5.0])])
        value = twice["lat"]["series"][0]["value"]
        assert value["quantiles"] == "exact"
        assert value["p99"] == pytest.approx(5.0)

    def test_weighted_quantiles(self):
        values = [{"count": 3, "sum": 3.0, "max": 2.0, "p50": 1.0,
                   "p95": 2.0, "p99": 2.0},
                  {"count": 1, "sum": 5.0, "max": 5.0, "p50": 5.0,
                   "p95": 5.0, "p99": 5.0}]
        merged = merge_histogram_values(values)
        assert merged["p50"] == pytest.approx((3 * 1.0 + 1 * 5.0) / 4)

    def test_empty_histograms(self):
        merged = merge_histogram_values([])
        assert merged["count"] == 0
        assert merged["p50"] is None

    def test_zero_count_sides_ignored_for_quantiles(self):
        values = [{"count": 0, "sum": 0.0, "max": 0.0, "p50": None},
                  {"count": 2, "sum": 4.0, "max": 3.0, "p50": 2.0,
                   "p95": 3.0, "p99": 3.0}]
        assert merge_histogram_values(values)["p50"] == 2.0


class TestShape:
    def test_merged_shape_matches_registry_snapshot(self):
        merged = merge_snapshots([snapshot_with(gauge=1, hist=[0.5])])
        for entry in merged.values():
            assert set(entry) == {"type", "series"}
            for series in entry["series"]:
                assert set(series) == {"labels", "value"}

    def test_empty_inputs(self):
        assert merge_snapshots([]) == {}
        assert merge_snapshots([{}, {}]) == {}
        assert merged_scalar({}, "anything") == 0.0
