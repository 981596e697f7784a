"""Histogram quantile edge cases and registry behaviour."""

import repro.serve
from repro.obs.metrics import Histogram, MetricsRegistry, default_registry


def test_default_registry_is_process_global():
    assert default_registry() is default_registry()
    # The serve package keeps exporting the one registry class.
    assert repro.serve.MetricsRegistry is MetricsRegistry


class TestHistogramQuantiles:
    def test_empty_reservoir_has_no_quantiles(self):
        hist = Histogram("h", "", ())
        assert hist.quantile(0.5) is None
        assert hist.quantile(0.99) is None
        snap = hist.snapshot_value()
        assert snap["count"] == 0
        assert snap["p50"] is None and snap["p99"] is None

    def test_single_sample_is_every_quantile(self):
        hist = Histogram("h", "", ())
        hist.observe(0.125)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert hist.quantile(q) == 0.125

    def test_two_samples_bracket(self):
        hist = Histogram("h", "", ())
        hist.observe(1.0)
        hist.observe(3.0)
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(1.0) == 3.0

    def test_many_samples_monotone_and_exact_at_ends(self):
        hist = Histogram("h", "", ())
        for value in range(100):
            hist.observe(float(value))
        assert hist.quantile(0.0) == 0.0
        assert hist.quantile(1.0) == 99.0
        quantiles = [hist.quantile(q / 10) for q in range(11)]
        assert quantiles == sorted(quantiles)
        assert abs(hist.quantile(0.5) - 49.5) <= 1.0

    def test_exposition_still_renders_empty_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("latency_seconds", "lat", buckets=(1.0, 2.0))
        text = registry.render_prometheus()
        assert 'latency_seconds_bucket{le="+Inf"} 0' in text
        assert "latency_seconds_count 0" in text
