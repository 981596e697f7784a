"""Acceptance: a real cluster under multi-tenant traffic and two kills.

One 2-worker router, driven through multi-tenant traffic and two worker
kills.  Every request survives exactly once, results carry their cost
rollups, and the run's journal alone answers what the router's merged
metrics say: replaying it reproduces every tenant's bill.
"""

import time
from types import SimpleNamespace

import pytest

from repro import obs
from repro.cluster import ClusterRouter
from repro.cluster.merge import merged_scalar
from repro.obs.analyze import check, registry_from_journal
from repro.obs.metrics import TENANT_COST_FAMILIES
from repro.runtime.trace import TRACE_SCHEMA_VERSION

from .conftest import make_request

RESULT_TIMEOUT_S = 120
KILLS = 2
TENANT_FAMILIES = ("cluster_tenant_requests_total",) + tuple(
    family for family, _field, _help in TENANT_COST_FAMILIES)


def _tenant(i):
    return "acme" if i % 2 else "beta"


@pytest.fixture(scope="module")
def scenario():
    """Serve multi-tenant traffic, then kill two workers mid-flight."""
    obs.enable(reset=True)
    router = ClusterRouter(num_workers=2, heartbeat_s=0.2)
    try:
        router.start()
        assert router.wait_ready(timeout=120)

        handles = [router.submit(make_request(f"r{i}", i % 3,
                                              tenant=_tenant(i)))
                   for i in range(8)]
        results = [h.result(timeout=RESULT_TIMEOUT_S) for h in handles]
        assert all(r.ok for r in results), [r.error for r in results]

        # Chaos: kill a worker (twice) with traffic in flight; orphans
        # must requeue and resolve once.
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
            # A victim with nothing in flight may die after its round's
            # results are in: wait for its death to be journaled.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and merged_scalar(
                    router.metrics.snapshot(),
                    "cluster_worker_deaths_total") < round_no + 1:
                time.sleep(0.05)

        snapshot = router.metrics_snapshot()
        document = router.trace()
    finally:
        router.shutdown(drain=False)
        obs.disable()
    return SimpleNamespace(
        results=results, chaos_results=chaos_results, killed=killed,
        snapshot=snapshot, document=document)


def _by_tenant(snapshot, family):
    """``{labels: value}`` of one counter family, labels as sorted items."""
    return {tuple(sorted(s["labels"].items())): s["value"]
            for s in snapshot.get(family, {}).get("series", ())}


class TestLiveServing:
    def test_all_requests_survive_chaos(self, scenario):
        assert all(r.ok for r in scenario.results)
        assert all(r.ok for r in scenario.chaos_results)
        # Exactly once: one terminal serve row per request, whichever
        # worker finally ran it.
        served = [r for r in scenario.document["jobs"]
                  if r["kind"] == "serve"]
        assert len(served) == len(scenario.results) \
            + len(scenario.chaos_results)
        assert len({r["trace_id"] for r in served}) == len(served)

    def test_results_carry_cost_rollups(self, scenario):
        for result in scenario.results + scenario.chaos_results:
            assert result.cost is not None
            assert result.cost["sim_cycles"] > 0
            assert result.cost["bytes"] > 0


class TestTenantAttribution:
    def test_every_request_billed(self, scenario):
        served = len(scenario.results) + len(scenario.chaos_results)
        billed = sum(_by_tenant(scenario.snapshot,
                                "cluster_tenant_requests_total").values())
        assert billed == served

    def test_per_tenant_totals_match(self, scenario):
        """The journal alone reproduces every tenant's bill: its replay
        equals the router's merged snapshot, family by family."""
        replayed = registry_from_journal(scenario.document).snapshot()
        for family in TENANT_FAMILIES:
            live = _by_tenant(scenario.snapshot, family)
            assert {dict(k)["tenant"] for k in live} == {"acme", "beta"}
            assert _by_tenant(replayed, family) == live, family
        assert sum(_by_tenant(scenario.snapshot,
                              "cluster_tenant_sim_cycles_total").values()) > 0


class TestJournal:
    def test_journal_checks_clean_after_two_kills(self, scenario):
        document = scenario.document
        assert document["schema"] == TRACE_SCHEMA_VERSION
        serve_rows = [r for r in document["jobs"]
                      if r["kind"] == "serve"]
        assert {r["tenant"] for r in serve_rows} == {"acme", "beta"}
        assert any(r.get("cost") for r in serve_rows)
        lost = [r["worker"] for r in document["jobs"]
                if r["kind"] == "cluster"
                and r.get("event") == "worker_lost"]
        assert sorted(lost) == sorted(scenario.killed)
        assert check(document) == []


def test_merged_histograms_keep_their_quantiles():
    """Worker-side histograms reach the merged snapshot as the worker's
    full cumulative snapshot, so the merged ``p50`` is always there."""
    router = ClusterRouter(num_workers=1, heartbeat_s=0.1)
    try:
        router.start()
        assert router.wait_ready(timeout=120)
        handles = [router.submit(make_request(f"h{i}", i % 2))
                   for i in range(4)]
        assert all(h.result(timeout=RESULT_TIMEOUT_S).ok for h in handles)
        for _ in range(3):
            snapshot = router.metrics_snapshot()
            (series,) = snapshot["runtime_compile_seconds"]["series"]
            assert series["value"]["count"] == 4
            assert series["value"]["p50"] is not None
    finally:
        router.shutdown(drain=False)
