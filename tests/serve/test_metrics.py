"""Metrics registry: counters/gauges/histograms, exposition, snapshots."""

import json
import threading

import pytest

from repro.serve import MetricsRegistry


class TestCounterGauge:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "Total requests.")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_get_or_create_returns_same_series(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.counter("a", labels={"s": "ok"}) is not \
            registry.counter("a", labels={"s": "bad"})

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7


class TestHistogram:
    def test_quantiles_over_known_distribution(self):
        hist = MetricsRegistry().histogram("lat", buckets=(1, 10, 100))
        for v in range(1, 101):  # 1..100 uniformly
            hist.observe(float(v))
        assert hist.count == 100
        assert hist.sum == 5050
        assert abs(hist.quantile(0.50) - 50) <= 2
        assert abs(hist.quantile(0.95) - 95) <= 2
        assert abs(hist.quantile(0.99) - 99) <= 2
        snap = hist.snapshot_value()
        assert snap["mean"] == pytest.approx(50.5)
        assert snap["max"] == 100
        assert {"p50", "p95", "p99"} <= set(snap)

    def test_reservoir_bounded(self):
        from repro.obs.metrics import RESERVOIR_SIZE

        hist = MetricsRegistry().histogram("big", buckets=(1.0,))
        for v in range(RESERVOIR_SIZE * 2):
            hist.observe(float(v))
        assert len(hist._reservoir) == RESERVOIR_SIZE
        assert hist.count == RESERVOIR_SIZE * 2

    def test_thread_safety_smoke(self):
        hist = MetricsRegistry().histogram("conc", buckets=(0.5, 1.0))

        def observe():
            for _ in range(500):
                hist.observe(0.7)

        threads = [threading.Thread(target=observe) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hist.count == 2000
        assert hist.sum == pytest.approx(1400.0)


class TestExposition:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.counter("serve_requests_total", "Requests.",
                         labels={"status": "ok"}).inc(3)
        registry.counter("serve_requests_total",
                         labels={"status": "failed"}).inc()
        registry.gauge("serve_queue_depth", "Depth.").set(7)
        hist = registry.histogram("serve_latency_seconds", "Latency.",
                                  buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        return registry

    def test_prometheus_text_format(self):
        text = self.make_registry().render_prometheus()
        assert "# HELP serve_requests_total Requests." in text
        assert "# TYPE serve_requests_total counter" in text
        assert 'serve_requests_total{status="ok"} 3' in text
        assert 'serve_requests_total{status="failed"} 1' in text
        assert "serve_queue_depth 7" in text
        assert 'serve_latency_seconds_bucket{le="0.1"} 1' in text
        assert 'serve_latency_seconds_bucket{le="1"} 2' in text
        assert 'serve_latency_seconds_bucket{le="+Inf"} 3' in text
        assert "serve_latency_seconds_count 3" in text
        # HELP/TYPE emitted once per metric name, not per label series.
        assert text.count("# TYPE serve_requests_total counter") == 1

    def test_snapshot_is_json_serializable(self):
        snap = self.make_registry().snapshot()
        parsed = json.loads(json.dumps(snap))
        ok_series = [s for s in parsed["serve_requests_total"]["series"]
                     if s["labels"] == {"status": "ok"}]
        assert ok_series[0]["value"] == 3
        assert parsed["serve_latency_seconds"]["series"][0]["value"][
            "count"] == 3
