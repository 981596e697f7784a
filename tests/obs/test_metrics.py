"""Histogram quantile edge cases and registry behaviour."""

import repro.serve
from repro.obs.metrics import (Histogram, MetricsRegistry, default_registry,
                               render_snapshot_prometheus)


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


class TestExposition:
    """Both text renderers — the registry's and the merged-snapshot one —
    write values exactly and escape label values."""

    #: ``cold_compile``'s simulated cycle count: seven significant
    #: digits, more than ``%g`` keeps.
    CYCLES = 5929603
    #: A client-chosen tenant that, unescaped, closes the label set and
    #: starts a forged series on its own line.
    FORGED = 'x"} 1e9\nfake_total 42\n\\'

    @staticmethod
    def _bodies(registry):
        return (registry.render_prometheus(),
                render_snapshot_prometheus(registry.snapshot()))

    def test_counters_and_sums_are_exact(self):
        registry = MetricsRegistry()
        registry.counter("cluster_tenant_sim_cycles_total",
                         labels={"tenant": "t0"}).inc(self.CYCLES)
        hist = registry.histogram("compile_seconds", buckets=(1.0,))
        for value in (0.1, 0.2):
            hist.observe(value)
        for body in self._bodies(registry):
            assert (f'cluster_tenant_sim_cycles_total{{tenant="t0"}} '
                    f"{self.CYCLES}") in body.splitlines()
            (total,) = [line for line in body.splitlines()
                        if line.startswith("compile_seconds_sum")]
            assert float(total.split()[-1]) == hist.sum == 0.1 + 0.2
            assert 'compile_seconds_bucket{le="1"} 2' in body

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("cluster_tenant_requests_total",
                         labels={"tenant": self.FORGED}).inc()
        registry.histogram("latency_seconds", buckets=(1.0,),
                           labels={"tenant": self.FORGED}).observe(0.5)
        escaped = 'x\\"} 1e9\\nfake_total 42\\n\\\\'
        for body in self._bodies(registry):
            samples = [line for line in body.splitlines()
                       if not line.startswith("#")]
            assert len(samples) == 5     # 1 counter + 4 histogram lines
            assert not any(line.startswith("fake_total")
                           for line in samples)
            assert (f'cluster_tenant_requests_total{{tenant="{escaped}"}} 1'
                    in samples)
            assert (f'latency_seconds_bucket{{tenant="{escaped}",'
                    f'le="+Inf"}} 1' in samples)
