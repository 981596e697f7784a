"""Acceptance: the live telemetry path end-to-end on a real cluster.

One 2-worker router with live telemetry, a deliberately tight
latency SLO, a flight recorder, and a status document — driven through
multi-tenant traffic and two worker kills.  Proves the ISSUE's live
path: alert rows in the merged journal, exactly one post-mortem bundle
per worker death, loadable Chrome traces inside the bundles, and
per-tenant cost attribution that sums to the cluster-wide counters.
"""

import json
import time
from types import SimpleNamespace

import pytest

from repro import obs
from repro.cluster import ClusterRouter
from repro.obs.__main__ import main as obs_main
from repro.obs.analyze import check
from repro.obs.live import FLIGHT_SCHEMA_VERSION
from repro.runtime.trace import TRACE_SCHEMA_VERSION

from .conftest import make_request

RESULT_TIMEOUT_S = 120
KILLS = 2


def _tenant(i):
    return "acme" if i % 2 else "beta"


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    """Serve multi-tenant traffic, page the SLO, kill two workers."""
    out = tmp_path_factory.mktemp("live-cluster")
    flight_dir = out / "flight"
    status_path = out / "status.json"
    obs.enable(reset=True)
    router = ClusterRouter(
        num_workers=2, heartbeat_s=0.2,
        slos=["latency:0.000001:99:lat"],
        slo_window_scale=1.0 / 600.0, slo_min_events=5,
        slo_cooldown_s=2.0,
        flight_dir=flight_dir,
        live_status_path=status_path)
    try:
        router.start()
        assert router.wait_ready(timeout=120)

        handles = [router.submit(make_request(f"r{i}", i % 3,
                                              tenant=_tenant(i)))
                   for i in range(8)]
        results = [h.result(timeout=RESULT_TIMEOUT_S) for h in handles]
        assert all(r.ok for r in results), [r.error for r in results]

        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and not router.live.alerts:
            time.sleep(0.1)

        # Chaos: kill a worker (twice) with traffic in flight; orphans
        # must requeue and the recorder must dump once per death.
        killed, chaos_results = [], []
        for round_no in range(KILLS):
            assert router.wait_ready(count=2, timeout=60)
            more = [router.submit(
                make_request(f"c{round_no}-{i}", (round_no + i) % 3,
                             tenant=_tenant(i)))
                for i in range(4)]
            worker = router.kill_worker()
            assert worker is not None
            killed.append(worker)
            chaos_results += [h.result(timeout=RESULT_TIMEOUT_S)
                              for h in more]
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                deaths = [p for p in router.live.flight.bundles
                          if "worker_death" in p.name]
                if len(deaths) >= round_no + 1:
                    break
                time.sleep(0.1)

        router.live.tick()
        snapshot = router.metrics_snapshot()
        document = router.trace()
        status = json.loads(status_path.read_text())
        bundles = list(router.live.flight.bundles)
        alerts = list(router.live.alerts)
    finally:
        router.shutdown(drain=False)
        obs.disable()
    return SimpleNamespace(
        results=results, chaos_results=chaos_results, killed=killed,
        alerts=alerts, bundles=bundles, snapshot=snapshot,
        document=document, status=status, status_path=str(status_path))


class TestLiveServing:
    def test_all_requests_survive_chaos(self, scenario):
        assert all(r.ok for r in scenario.results)
        assert all(r.ok for r in scenario.chaos_results)

    def test_results_carry_cost_rollups(self, scenario):
        for result in scenario.results + scenario.chaos_results:
            assert result.cost is not None
            assert result.cost["sim_cycles"] > 0
            assert result.cost["bytes"] > 0

    def test_slo_paged_from_streamed_telemetry(self, scenario):
        assert scenario.alerts, "tight SLO never fired"
        first = scenario.alerts[0]
        assert first["kind"] == "alert"
        assert first["slo"] == "lat"
        assert first["severity"] == "page"
        assert first["burn_rate"] > 1.0


class TestFlightUnderChaos:
    def test_exactly_one_bundle_per_worker_death(self, scenario):
        deaths = [p for p in scenario.bundles
                  if "worker_death" in p.name]
        assert len(deaths) == KILLS
        keys = [json.loads(p.read_text())["key"] for p in deaths]
        assert sorted(keys) == sorted(scenario.killed)
        assert len(set(keys)) == KILLS

    def test_slo_breach_bundle_dumped(self, scenario):
        assert any("slo_breach" in p.name for p in scenario.bundles)

    def test_bundles_are_valid_and_bounded(self, scenario):
        assert scenario.bundles
        for path in scenario.bundles:
            assert path.stat().st_size <= 4_000_000
            doc = json.loads(path.read_text())
            assert doc["schema"] == FLIGHT_SCHEMA_VERSION
            assert doc["process"] == "router"
            assert isinstance(doc["journal"], list)
            assert isinstance(doc["samples"], list)

    def test_bundle_chrome_traces_are_well_formed(self, scenario):
        for path in scenario.bundles:
            doc = json.loads(path.read_text())
            events = doc["chrome_trace"]["traceEvents"]
            assert isinstance(events, list)
            for event in events:
                if event.get("ph") == "M":
                    continue
                assert set(event) >= {"name", "ph", "ts", "dur",
                                      "pid", "tid"}

    def test_death_bundle_records_orphan_context(self, scenario):
        deaths = [p for p in scenario.bundles
                  if "worker_death" in p.name]
        for path in deaths:
            doc = json.loads(path.read_text())
            assert "extra" in doc
            assert doc["extra"]["pid"] > 0
            assert doc["extra"]["orphaned_requests"] >= 0


class TestTenantAttribution:
    def _counter_total(self, scenario, name, tenant=None):
        total = 0.0
        for series in scenario.snapshot.get(name, {}).get("series", ()):
            if tenant and series["labels"].get("tenant") != tenant:
                continue
            total += series.get("value") or 0.0
        return total

    def test_every_request_billed(self, scenario):
        served = len(scenario.results) + len(scenario.chaos_results)
        billed = self._counter_total(scenario,
                                     "cluster_tenant_requests_total")
        assert billed == pytest.approx(served)

    def test_status_rollups_sum_to_cluster_totals(self, scenario):
        tenants = scenario.status["tenants"]
        assert {t["tenant"] for t in tenants} == {"acme", "beta"}
        for column, metric in (
                ("sim_cycles", "cluster_tenant_sim_cycles_total"),
                ("bytes", "cluster_tenant_bytes_total"),
                ("bootstraps", "cluster_tenant_bootstraps_total")):
            table_sum = sum(t[column] for t in tenants)
            counter_sum = self._counter_total(scenario, metric)
            assert table_sum == pytest.approx(counter_sum)
        assert sum(t["sim_cycles"] for t in tenants) > 0

    def test_per_tenant_totals_match(self, scenario):
        for tenant in ("acme", "beta"):
            row = next(t for t in scenario.status["tenants"]
                       if t["tenant"] == tenant)
            assert row["sim_cycles"] == pytest.approx(
                self._counter_total(
                    scenario, "cluster_tenant_sim_cycles_total", tenant))
            assert row["requests"] == row["ok"] + row["failed"]


class TestStatusAndJournal:
    def test_status_document_live(self, scenario):
        status = scenario.status
        assert status["schema"] == 1
        assert status["process"] == "router"
        assert status["slos"] and status["slos"][0]["slo"] == "lat"
        assert status["alerts"]
        assert status["flight_bundles"]
        assert any(w.get("live") for w in status["workers"])

    def test_obs_top_renders_status(self, scenario, capsys):
        assert obs_main(["top", scenario.status_path, "--once"]) == 0
        out = capsys.readouterr().out
        assert "cinnamon live — router" in out
        assert "acme" in out and "beta" in out
        assert "lat" in out
        assert "flight bundles" in out

    def test_journal_schema8_checks_clean_with_alerts(self, scenario):
        document = scenario.document
        assert document["schema"] == TRACE_SCHEMA_VERSION
        alert_rows = [r for r in document["jobs"]
                      if r["kind"] == "alert"]
        assert alert_rows
        serve_rows = [r for r in document["jobs"]
                      if r["kind"] == "serve"]
        assert {r["tenant"] for r in serve_rows} == {"acme", "beta"}
        assert any(r.get("cost") for r in serve_rows)
        lost = [r for r in document["jobs"]
                if r["kind"] == "cluster"
                and r.get("event") == "worker_lost"]
        assert len(lost) >= KILLS
        assert check(document) == []


def test_status_histograms_keep_their_quantiles_on_every_tick(tmp_path):
    """Worker-side histograms reach the status document as the worker's
    full cumulative snapshot, so the merged ``p50`` is there on every
    tick — not only on the ticks that follow a slower side channel."""
    status_path = tmp_path / "status.json"
    router = ClusterRouter(num_workers=1, heartbeat_s=0.1,
                           live_status_path=status_path)
    try:
        router.start()
        assert router.wait_ready(timeout=120)
        handles = [router.submit(make_request(f"h{i}", i % 2))
                   for i in range(4)]
        assert all(h.result(timeout=RESULT_TIMEOUT_S).ok for h in handles)
        router.metrics_snapshot()       # every compile is in the store
        since = time.time()
        ticks = {}
        deadline = time.monotonic() + 30
        while len(ticks) < 6 and time.monotonic() < deadline:
            doc = json.loads(status_path.read_text())
            if doc["updated_unix"] >= since:
                ticks[doc["updated_unix"]] = doc
            time.sleep(0.02)
        assert len(ticks) >= 6, "monitor stopped ticking"
        for doc in ticks.values():
            (series,) = doc["snapshot"]["runtime_compile_seconds"]["series"]
            assert series["value"]["count"] == 4
            assert series["value"]["p50"] is not None
    finally:
        router.shutdown(drain=False)
