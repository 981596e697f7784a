"""Unit tests for repro.obs.live: the bounded time-series store, the
multi-window burn-rate SLO engine, the flight recorder, the LivePipeline
glue, and the ``obs top`` / ``watch`` CLI."""

import json

import pytest

from repro.obs.__main__ import main as obs_main, render_top
from repro.obs.live import (
    BURN_WINDOWS,
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    LivePipeline,
    SLO,
    SLOEngine,
    STATUS_SCHEMA_VERSION,
    TimeSeriesStore,
    render_snapshot_prometheus,
    tenant_table,
)
from repro.obs.metrics import MetricsRegistry
from repro.runtime.trace import TraceRecorder

T0 = 1_000_000.0
SCALE = 1.0 / 600.0            # page long window 3600s -> 6s
LONG_S = BURN_WINDOWS[0][1] * SCALE
SHORT_S = BURN_WINDOWS[0][2] * SCALE


def make_snapshot(requests_ok=0, requests_failed=0, latencies=(),
                  queue_depth=None):
    """A realistic cumulative snapshot via a real registry.  The
    request counters and the latency histogram always exist (at zero),
    so ingesting a baseline creates ring points for them."""
    reg = MetricsRegistry()
    reg.counter("serve_requests_total",
                labels={"status": "ok"}).inc(requests_ok)
    reg.counter("serve_requests_total",
                labels={"status": "failed"}).inc(requests_failed)
    hist = reg.histogram("serve_request_latency_seconds")
    for value in latencies:
        hist.observe(value)
    if queue_depth is not None:
        reg.gauge("serve_queue_depth").set(queue_depth)
    return reg.snapshot()


# ---------------------------------------------------------------------- #
# TimeSeriesStore


class TestTimeSeriesStore:
    def test_window_is_observed_increase(self):
        store = TimeSeriesStore(interval_s=1.0, horizon_s=60.0)
        store.ingest("w0", make_snapshot(requests_ok=10), now=T0)
        store.ingest("w0", make_snapshot(requests_ok=25), now=T0 + 5)
        # Pre-existing counts at first observation are not an increase.
        got = store.window_scalar("serve_requests_total", 30.0, now=T0 + 5)
        assert got == pytest.approx(15.0)

    def test_window_sums_across_sources(self):
        store = TimeSeriesStore(interval_s=1.0, horizon_s=60.0)
        for src in ("w0", "w1"):
            store.ingest(src, make_snapshot(requests_ok=0), now=T0)
        store.ingest("w0", make_snapshot(requests_ok=4), now=T0 + 5)
        store.ingest("w1", make_snapshot(requests_ok=6), now=T0 + 5)
        got = store.window_scalar("serve_requests_total", 30.0, now=T0 + 5)
        assert got == pytest.approx(10.0)

    def test_counter_reset_clamps(self):
        store = TimeSeriesStore(interval_s=1.0, horizon_s=60.0)
        store.ingest("w0", make_snapshot(requests_ok=0), now=T0)
        store.ingest("w0", make_snapshot(requests_ok=100), now=T0 + 2)
        # Worker respawned under the same source name: counter restarts.
        store.ingest("w0", make_snapshot(requests_ok=7), now=T0 + 4)
        got = store.window_scalar("serve_requests_total", 30.0, now=T0 + 4)
        assert got == pytest.approx(7.0)

    def test_level_excludes_forgotten_sources(self):
        store = TimeSeriesStore(interval_s=1.0, horizon_s=60.0)
        store.ingest("w0", make_snapshot(queue_depth=3), now=T0)
        store.ingest("w1", make_snapshot(queue_depth=5), now=T0)
        assert store.level("serve_queue_depth") == pytest.approx(8.0)
        store.forget("w1")
        assert store.level("serve_queue_depth") == pytest.approx(3.0)
        assert store.sources() == ["w0"]

    def test_window_hist_and_good_fraction(self):
        store = TimeSeriesStore(interval_s=1.0, horizon_s=60.0)
        store.ingest("w0", make_snapshot(latencies=[]), now=T0)
        store.ingest("w0",
                     make_snapshot(latencies=[0.001, 0.002, 0.2, 0.3]),
                     now=T0 + 3)
        window = store.window_hist("serve_request_latency_seconds", 30.0,
                                   now=T0 + 3)
        assert window["count"] == 4
        assert window["sum"] == pytest.approx(0.503)
        good = store.good_fraction_le("serve_request_latency_seconds",
                                      0.005, 30.0, now=T0 + 3)
        assert good is not None
        fraction, events = good
        assert events == 4
        assert fraction == pytest.approx(0.5)

    def test_good_fraction_none_when_empty(self):
        store = TimeSeriesStore(interval_s=1.0, horizon_s=60.0)
        assert store.good_fraction_le("serve_request_latency_seconds",
                                      0.1, 30.0, now=T0) is None

    def test_memory_bound(self):
        store = TimeSeriesStore(interval_s=1.0, horizon_s=10.0)
        for i in range(1000):
            store.ingest("w0", make_snapshot(requests_ok=i), now=T0 + i)
        ring = next(iter(store._rings.values()))
        assert len(ring._points) <= 10
        assert store.history_span_s(now=T0 + 999) <= 11.0


# ---------------------------------------------------------------------- #
# SLO parsing and engine


class TestSLOParse:
    def test_latency_spec(self):
        slo = SLO.parse("latency:0.25:99.9")
        assert slo.kind == "latency"
        assert slo.threshold_s == pytest.approx(0.25)
        assert slo.objective == pytest.approx(0.999)
        assert slo.name == "latency-p99.9"

    def test_integer_percent_name(self):
        assert SLO.parse("latency:0.1:90").name == "latency-p90"

    def test_availability_and_custom_name(self):
        slo = SLO.parse("availability:99.5:api-up")
        assert slo.kind == "availability"
        assert slo.objective == pytest.approx(0.995)
        assert slo.name == "api-up"
        assert slo.error_budget == pytest.approx(0.005)

    def test_queue_wait(self):
        slo = SLO.parse("queue_wait:0.05:99:admit")
        assert slo.kind == "queue_wait"
        assert slo.name == "admit"

    @pytest.mark.parametrize("spec", [
        "latency:0.25",          # missing objective
        "availability",          # missing objective
        "cpu:0.5:99",            # unknown kind
        "latency:0:99",          # zero threshold
        "latency:0.25:100",      # objective not in (0, 1)
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            SLO.parse(spec)


def engine_with(store, spec, min_events=5, cooldown_s=60.0):
    return SLOEngine([SLO.parse(spec, min_events=min_events)], store,
                     window_scale=SCALE, cooldown_s=cooldown_s)


class TestSLOEngine:
    def _burning_store(self, events=20):
        """All `events` latencies blow a 1ms threshold inside the fast
        page window."""
        store = TimeSeriesStore(interval_s=0.1, horizon_s=60.0)
        store.ingest("w0", make_snapshot(latencies=[]), now=T0)
        store.ingest("w0", make_snapshot(latencies=[0.5] * events),
                     now=T0 + SHORT_S * 0.8)
        return store

    def test_page_fires_on_total_burn(self):
        store = self._burning_store()
        engine = engine_with(store, "latency:0.001:99:lat")
        fired = engine.evaluate(now=T0 + SHORT_S * 0.9)
        assert len(fired) == 1
        alert = fired[0]
        assert alert.severity == "page"
        assert alert.slo == "lat"
        assert alert.bad_fraction == pytest.approx(1.0)
        assert alert.burn_rate > BURN_WINDOWS[0][3]
        row = alert.as_row()
        assert row["kind"] == "alert" and row["job"] == "lat"

    def test_min_events_gates(self):
        store = self._burning_store(events=3)
        engine = engine_with(store, "latency:0.001:99:lat", min_events=5)
        assert engine.evaluate(now=T0 + SHORT_S * 0.9) == []

    def test_cooldown_suppresses_then_refires(self):
        store = self._burning_store()
        engine = engine_with(store, "latency:0.001:99:lat", cooldown_s=10.0)
        t1 = T0 + SHORT_S * 0.9
        assert len(engine.evaluate(now=t1)) == 1
        assert engine.evaluate(now=t1 + 1.0) == []          # suppressed
        # Keep the burn alive inside the window, past the cooldown.
        store.ingest("w0", make_snapshot(latencies=[0.5] * 40),
                     now=t1 + 10.5)
        assert len(engine.evaluate(now=t1 + 11.0)) == 1     # refires

    def test_healthy_traffic_never_alerts(self):
        store = TimeSeriesStore(interval_s=0.1, horizon_s=60.0)
        store.ingest("w0", make_snapshot(requests_ok=0, latencies=[]),
                     now=T0)
        store.ingest("w0",
                     make_snapshot(requests_ok=50,
                                   latencies=[0.0005] * 50),
                     now=T0 + 2.0)
        for spec in ("latency:0.001:99", "availability:99"):
            engine = engine_with(store, spec)
            assert engine.evaluate(now=T0 + 2.5) == []

    def test_availability_counts_non_ok_as_bad(self):
        store = TimeSeriesStore(interval_s=0.1, horizon_s=60.0)
        store.ingest("w0", make_snapshot(), now=T0)
        store.ingest("w0", make_snapshot(requests_ok=2, requests_failed=18),
                     now=T0 + SHORT_S * 0.8)
        engine = engine_with(store, "availability:99:up")
        fired = engine.evaluate(now=T0 + SHORT_S * 0.9)
        assert len(fired) == 1
        assert fired[0].bad_fraction == pytest.approx(0.9)

    def test_status_rows(self):
        store = self._burning_store()
        engine = engine_with(store, "latency:0.001:99:lat")
        rows = engine.status(now=T0 + SHORT_S * 0.9)
        assert len(rows) == 1
        row = rows[0]
        assert row["slo"] == "lat"
        assert row["events"] == 20
        assert row["bad_fraction"] == pytest.approx(1.0)
        assert row["burn_rate"] > 1.0
        assert 0.0 <= row["budget_remaining"] <= 1.0


# ---------------------------------------------------------------------- #
# FlightRecorder


ALERT_PAGE_ROW = {"kind": "alert", "slo": "lat", "severity": "page",
                  "long_window_s": 6.0}


class TestFlightRecorder:
    def test_dump_bundle_shape(self, tmp_path):
        rec = FlightRecorder(tmp_path, process="router")
        rec.note_row({"kind": "serve", "job": "r0", "status": "ok"})
        rec.note_sample({"unix": T0, "queue_depth": 1})
        path = rec.dump("worker_death", key="w0",
                        extra={"pid": 1234})
        assert path is not None and path.exists()
        assert "worker_death" in path.name and path.suffix == ".json"
        doc = json.loads(path.read_text())
        assert doc["schema"] == FLIGHT_SCHEMA_VERSION
        assert doc["process"] == "router"
        assert doc["trigger"] == "worker_death" and doc["key"] == "w0"
        assert doc["journal"][-1]["job"] == "r0"
        assert doc["samples"][-1]["queue_depth"] == 1
        assert doc["extra"]["pid"] == 1234
        assert isinstance(doc["chrome_trace"]["traceEvents"], list)

    def test_dedup_by_trigger_key(self, tmp_path):
        rec = FlightRecorder(tmp_path, process="router")
        assert rec.dump("worker_death", key="w0") is not None
        assert rec.dump("worker_death", key="w0") is None
        assert rec.dump("worker_death", key="w1") is not None
        assert len(rec.bundles) == 2

    def test_auto_dump_on_recovery_row(self, tmp_path):
        rec = FlightRecorder(tmp_path, process="server")
        rec.note_row({"kind": "recovery", "job": "j", "span_id": "abc"})
        assert any("recovery" in p.name for p in rec.bundles)
        # Same span again: deduplicated.
        rec.note_row({"kind": "recovery", "job": "j", "span_id": "abc"})
        assert len(rec.bundles) == 1

    def test_auto_dump_on_page_alert_not_warn(self, tmp_path):
        rec = FlightRecorder(tmp_path, process="server")
        rec.note_row(dict(ALERT_PAGE_ROW, severity="warn"))
        assert rec.bundles == []
        rec.note_row(dict(ALERT_PAGE_ROW))
        assert any("slo_breach" in p.name for p in rec.bundles)

    def test_auto_dump_on_trust_rejection(self, tmp_path):
        rec = FlightRecorder(tmp_path, process="server")
        rec.note_row({"kind": "trust", "event": "key_rotated",
                      "target": "k"})
        assert rec.bundles == []
        rec.note_row({"kind": "trust", "event": "tamper_detected",
                      "target": "cache/abc"})
        assert any("trust_rejection" in p.name for p in rec.bundles)

    def test_ring_capacity_bounds_history(self, tmp_path):
        rec = FlightRecorder(tmp_path, process="p", row_capacity=8)
        for i in range(100):
            rec.note_row({"kind": "serve", "job": f"r{i}"})
        path = rec.dump("manual")
        doc = json.loads(path.read_text())
        assert len(doc["journal"]) == 8
        assert doc["journal"][-1]["job"] == "r99"

    def test_bundle_size_bounded(self, tmp_path):
        rec = FlightRecorder(tmp_path, process="p",
                             max_bundle_bytes=4096)
        for i in range(256):
            rec.note_row({"kind": "serve", "job": f"req-{i}",
                          "blob": "x" * 200})
        path = rec.dump("manual")
        doc = json.loads(path.read_text())
        assert doc.get("truncated") is True
        assert path.stat().st_size <= 4096 + 1024  # floor slack only


# ---------------------------------------------------------------------- #
# LivePipeline


class TestLivePipeline:
    def _pipeline(self, tmp_path, **kwargs):
        registry = MetricsRegistry()
        recorder = TraceRecorder(registry=registry)
        pipe = LivePipeline(
            slos=["latency:0.001:99:lat"], process="server",
            recorder=recorder, registry=registry,
            flight_dir=tmp_path / "flight",
            status_path=tmp_path / "status.json",
            window_scale=SCALE, min_events=5, cooldown_s=60.0,
            **kwargs)
        return pipe, registry, recorder

    def _burn(self, registry):
        hist = registry.histogram("serve_request_latency_seconds")
        for _ in range(20):
            hist.observe(0.5)

    def test_tick_fires_alert_into_journal_and_flight(self, tmp_path):
        pipe, registry, recorder = self._pipeline(tmp_path)
        # Materialize the series before the baseline tick: windows
        # measure observed increase, so a series first seen mid-run
        # contributes nothing until its second point.
        registry.histogram("serve_request_latency_seconds")
        pipe.tick(now=T0)
        self._burn(registry)
        # 2s later: beyond the store's 1s ring granularity, inside the
        # 6s long window (page long window 3600s x SCALE).
        fired = pipe.tick(now=T0 + 2.0)
        assert len(fired) == 1

        rows = [r for r in recorder.jobs if r["kind"] == "alert"]
        assert len(rows) == 1
        assert rows[0]["slo"] == "lat" and rows[0]["severity"] == "page"
        assert pipe.alerts[0]["slo"] == "lat"

        # Page alert auto-dumped a breach bundle via the listener tap.
        assert any("slo_breach" in p.name for p in pipe.flight.bundles)

        # obs_slo_* metrics exposed on the owning registry.
        snap = registry.snapshot()
        assert "obs_slo_burn_rate" in snap
        assert "obs_slo_budget_remaining" in snap

    def test_status_document_shape(self, tmp_path):
        pipe, registry, _ = self._pipeline(tmp_path)
        registry.counter("cluster_tenant_requests_total",
                         labels={"tenant": "acme", "status": "ok"}).inc(3)
        registry.counter("cluster_tenant_sim_cycles_total",
                         labels={"tenant": "acme"}).inc(1000)
        pipe.tick(now=T0)

        doc = json.loads((tmp_path / "status.json").read_text())
        assert doc["schema"] == STATUS_SCHEMA_VERSION
        assert doc["process"] == "server"
        assert doc["updated_unix"] == pytest.approx(T0)
        assert [t["tenant"] for t in doc["tenants"]] == ["acme"]
        assert doc["tenants"][0]["sim_cycles"] == pytest.approx(1000.0)
        assert doc["slos"][0]["slo"] == "lat"
        assert doc["alerts"] == []
        assert "serve_request_latency_seconds" not in doc["snapshot"] or \
            isinstance(doc["snapshot"], dict)

    def test_snapshot_fn_overrides_store_merge(self, tmp_path):
        captured = make_snapshot(requests_ok=42)
        pipe = LivePipeline(process="server",
                            status_path=tmp_path / "status.json",
                            snapshot_fn=lambda: captured)
        pipe.tick(now=T0)
        doc = json.loads((tmp_path / "status.json").read_text())
        got = [s for s in doc["snapshot"]["serve_requests_total"]["series"]
               if s["labels"].get("status") == "ok"]
        assert got[0]["value"] == 42

    def test_start_stop_thread(self, tmp_path):
        pipe, _, _ = self._pipeline(tmp_path)
        pipe.interval_s = 0.05
        pipe.start()
        assert pipe._thread is not None
        pipe.stop(final_tick=True)
        assert pipe._thread is None
        assert (tmp_path / "status.json").exists()


# ---------------------------------------------------------------------- #
# tenant_table / prometheus rendering


class TestTenantTable:
    def _snapshot(self):
        reg = MetricsRegistry()
        for tenant, ok, failed, cycles in (("acme", 5, 1, 9000),
                                           ("beta", 2, 0, 400)):
            for _ in range(ok):
                reg.counter("cluster_tenant_requests_total",
                            labels={"tenant": tenant,
                                    "status": "ok"}).inc()
            for _ in range(failed):
                reg.counter("cluster_tenant_requests_total",
                            labels={"tenant": tenant,
                                    "status": "failed"}).inc()
            reg.counter("cluster_tenant_sim_cycles_total",
                        labels={"tenant": tenant}).inc(cycles)
        reg.counter("cluster_tenant_bootstraps_total",
                    labels={"tenant": "acme"}).inc(7)
        return reg.snapshot()

    def test_rollup_and_sort(self):
        rows = tenant_table(self._snapshot())
        assert [r["tenant"] for r in rows] == ["acme", "beta"]
        acme = rows[0]
        assert acme["requests"] == 6 and acme["ok"] == 5
        assert acme["failed"] == 1
        assert acme["sim_cycles"] == pytest.approx(9000)
        assert acme["bootstraps"] == pytest.approx(7)
        assert rows[1]["requests"] == 2 and rows[1]["failed"] == 0

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("cluster_tenant_sim_cycles_total",
                    labels={"tenant": "acme"}).inc(12)
        reg.histogram("serve_request_latency_seconds").observe(0.02)
        body = render_snapshot_prometheus(reg.snapshot())
        assert "# TYPE cluster_tenant_sim_cycles_total counter" in body
        assert 'cluster_tenant_sim_cycles_total{tenant="acme"} 12' in body
        assert "serve_request_latency_seconds_count 1" in body
        assert 'le="+Inf"' in body
        # _bucket lines are cumulative: the +Inf bucket equals count.
        buckets = [line for line in body.splitlines()
                   if line.startswith("serve_request_latency_seconds_bucket")]
        assert buckets[-1].endswith(" 1")


# ---------------------------------------------------------------------- #
# obs top / watch CLI


@pytest.fixture
def status_file(tmp_path):
    reg = MetricsRegistry()
    reg.counter("cluster_tenant_requests_total",
                labels={"tenant": "acme", "status": "ok"}).inc(4)
    reg.counter("cluster_tenant_sim_cycles_total",
                labels={"tenant": "acme"}).inc(800)
    snapshot = reg.snapshot()
    document = {
        "schema": STATUS_SCHEMA_VERSION,
        "process": "router",
        "updated_unix": T0,
        "interval_s": 0.5,
        "snapshot": snapshot,
        "tenants": tenant_table(snapshot),
        "workers": [{"id": "w0", "live": True, "pending": 2},
                    {"id": "w1", "live": False, "pending": 0}],
        "slos": [{"slo": "lat", "kind": "latency", "objective": 0.99,
                  "threshold_s": 0.25, "describe": "",
                  "events": 10, "bad_fraction": 0.1,
                  "burn_rate": 15.2, "budget_remaining": 0.4}],
        "alerts": [{"slo": "lat", "severity": "page", "burn_rate": 15.2,
                    "long_window_s": 6.0, "fired_unix": T0}],
        "flight_bundles": ["/tmp/flight-router-slo_breach-001.json"],
    }
    path = tmp_path / "status.json"
    path.write_text(json.dumps(document))
    return path


class TestLiveCli:
    def test_render_top_frame(self, status_file):
        frame = render_top(json.loads(status_file.read_text()))
        assert "cinnamon live — router" in frame
        assert "workers: 1/2 live" in frame
        assert "lat" in frame and "15.20" in frame
        assert "acme" in frame and "800" in frame
        assert "[page]" in frame
        assert "flight bundles: 1" in frame

    def test_top_once(self, status_file, capsys):
        assert obs_main(["top", str(status_file), "--once"]) == 0
        out = capsys.readouterr().out
        assert "cinnamon live" in out and "acme" in out

    def test_top_once_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert obs_main(["top", str(missing), "--once"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_watch_prom_out(self, status_file, tmp_path, capsys):
        out_file = tmp_path / "metrics.prom"
        code = obs_main(["watch", str(status_file), "--once",
                         "--prom-out", str(out_file)])
        assert code == 0
        body = out_file.read_text()
        assert 'cluster_tenant_sim_cycles_total{tenant="acme"} 800' in body
        assert "# TYPE cluster_tenant_requests_total counter" in body

    def test_watch_stdout(self, status_file, capsys):
        assert obs_main(["watch", str(status_file), "--once"]) == 0
        assert "cluster_tenant_requests_total" in capsys.readouterr().out
