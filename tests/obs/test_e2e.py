"""Acceptance: one traced serve run -> one joined timeline + journal.

The paper-level payoff of repro.obs: a request's serve span, its
compiler-pass child spans, and the scaled per-functional-unit simulator
timeline all share one ``trace_id`` inside a single Chrome-trace file,
and ``python -m repro.obs`` reconstructs the request's critical path
from the trace journal alone.
"""

import json
from types import SimpleNamespace

import pytest

from repro.core.dsl.program import CinnamonProgram
from repro.fhe import ArchParams
from repro.obs import check, disable, enable, export_chrome_trace, tracer
from repro.obs.__main__ import main as obs_main
from repro.obs.analyze import (load_journal, registry_from_journal,
                               trace_table)
from repro.obs.export import SIM_PID_BASE, WALL_PID, build_chrome_trace
from repro.serve import InferenceRequest
from repro.serve.server import serve_requests

PARAMS = ArchParams(max_level=6)


def _request(name, rotation=1):
    prog = CinnamonProgram(f"obs-{name}", level=6)
    a, b = prog.input("a"), prog.input("b")
    prog.output("y", a * b + a.rotate(rotation))
    return InferenceRequest(program=prog, params=PARAMS, machine=2,
                            name=name)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One serve run with tracing on; everything captured before the
    per-test tracer reset."""
    out = tmp_path_factory.mktemp("obs-e2e")
    journal_path = out / "journal.json"
    chrome_path = out / "chrome.json"
    enable(reset=True)
    try:
        requests = [_request("ra", 1), _request("rb", 1), _request("rc", 2)]
        results = serve_requests(requests, num_workers=2,
                                 trace_out=str(journal_path))
        spans = tracer().spans()
        chrome = build_chrome_trace()
        export_chrome_trace(str(chrome_path))
    finally:
        disable()
    with open(journal_path) as handle:
        document = json.load(handle)
    return SimpleNamespace(results=results, spans=spans, chrome=chrome,
                           document=document,
                           journal_path=str(journal_path),
                           chrome_path=str(chrome_path))


@pytest.fixture(scope="module", params=["server", "cluster"])
def backend_journal(request, tmp_path_factory):
    """The same 3-request workload journaled by both serving backends:
    the in-process server and a 2-worker cluster router."""
    out = tmp_path_factory.mktemp(f"obs-e2e-{request.param}")
    journal_path = out / "journal.json"
    enable(reset=True)
    try:
        requests = [_request("ra", 1), _request("rb", 1), _request("rc", 2)]
        if request.param == "server":
            results = serve_requests(requests, num_workers=2,
                                     trace_out=str(journal_path))
            with open(journal_path) as handle:
                document = json.load(handle)
        else:
            from repro.cluster import ClusterRouter

            router = ClusterRouter(num_workers=2, heartbeat_s=0.2)
            router.start()
            assert router.wait_ready(timeout=120)
            handles = [router.submit(r) for r in requests]
            results = [h.result(timeout=120) for h in handles]
            assert all(r.ok for r in results), \
                [r.error for r in results]
            document = router.trace()
            router.shutdown(drain=False)
            journal_path.write_text(json.dumps(document))
    finally:
        disable()
    return SimpleNamespace(backend=request.param, results=results,
                           document=document,
                           journal_path=str(journal_path))


@pytest.fixture(scope="module", params=["server", "cluster"])
def chaos_journal(request, tmp_path_factory):
    """One request whose simulation loses chip 0 at cycle 1000, journaled
    by a 1-shard server and by a 1-worker cluster router."""
    from repro.serve import FaultInjector

    out = tmp_path_factory.mktemp(f"obs-chaos-{request.param}")
    journal_path = out / "journal.json"
    enable(reset=True)
    try:
        if request.param == "server":
            results = serve_requests(
                [_request("die")], num_workers=1,
                faults=FaultInjector().chip_crash(chip=0, cycle=1000),
                trace_out=str(journal_path))
        else:
            from repro.cluster import ClusterRouter

            with ClusterRouter(num_workers=1, chaos_chip_crash=1,
                               chaos_cycle=1000) as router:
                assert router.wait_ready(timeout=120)
                results = [router.submit(_request("die")).result(120)]
                router.export_trace(journal_path)
    finally:
        disable()
    with open(journal_path) as handle:
        document = json.load(handle)
    return SimpleNamespace(results=results, document=document,
                           journal_path=str(journal_path))


class TestRecoveryParity:
    """Both back-ends run the same ShardExecutor, so a chip crash leaves
    the same ``recovery`` row whichever one served the request."""

    def test_recovery_row_is_the_same_on_both_backends(self, chaos_journal):
        assert [r.status.value for r in chaos_journal.results] == ["ok"]
        rows = [r for r in chaos_journal.document["jobs"]
                if r["kind"] == "recovery"]
        assert len(rows) == 1
        row = rows[0]
        assert set(row) - {"worker"} == {
            "job", "kind", "fault", "chip", "cycle", "machine_from",
            "machine_to", "lost_cycles", "detection_s", "replay_s",
            "trace_id", "span_id"}
        assert (row["fault"], row["chip"], row["cycle"]) == \
            ("chip_crash", 0, 1000)
        # The replay starts over at cycle 0: everything before the
        # fault is lost.
        assert row["lost_cycles"] == row["cycle"]
        assert (row["machine_from"], row["machine_to"]) == \
            ("Cinnamon-2", "Cinnamon-1")
        assert row["detection_s"] > 0
        assert row["replay_s"] is not None and row["replay_s"] > 0

    def test_chaos_journal_checks_clean_and_counts_recovery(
            self, chaos_journal, capsys):
        assert obs_main([chaos_journal.journal_path, "--check"]) == 0
        assert "OK" in capsys.readouterr().out
        (split,) = [s for s in trace_table(chaos_journal.document).values()
                    if s["job"] == "die"]
        assert split["rows"]["recovery"] == 1
        assert split["recovery"] > 0.0


class TestOneTraceId:
    def test_all_requests_served(self, traced):
        assert [r.status.value for r in traced.results] == ["ok"] * 3

    def test_serve_pass_and_sim_spans_share_the_trace(self, traced):
        serve_spans = [s for s in traced.spans if s.kind == "serve"]
        assert len(serve_spans) == 3
        # The cache-missing request compiled for real: its trace holds
        # per-compiler-pass children AND a simulate span with an
        # attached FU timeline — all under the serve span's trace_id.
        with_passes = [
            root for root in serve_spans
            if any(s.kind == "pass"
                   for s in traced.spans if s.trace_id == root.trace_id)
        ]
        assert with_passes, "no trace carries compiler-pass spans"
        root = with_passes[0]
        kinds = {s.kind for s in traced.spans
                 if s.trace_id == root.trace_id}
        assert {"serve", "queue", "execute", "compile",
                "cache", "pass", "simulate"} <= kinds
        sims = [s for s in traced.spans
                if s.trace_id == root.trace_id and s.kind == "simulate"]
        assert any(s.sim_events for s in sims), "no FU timeline captured"

    def test_span_tree_is_well_parented(self, traced):
        by_id = {s.span_id: s for s in traced.spans}
        for span in traced.spans:
            assert span.finished, f"span {span.name} left open"
            if span.parent_id is not None:
                parent = by_id[span.parent_id]
                assert parent.trace_id == span.trace_id

    def test_journal_rows_join_on_trace_id(self, backend_journal):
        document = backend_journal.document
        assert document["schema"] >= 5
        assert check(document) == []
        table = trace_table(document)
        # The cluster router adds membership traces (job=w*); every
        # *request* trace joins fully either way.
        served = {k: v for k, v in table.items()
                  if v["job"] in ("ra", "rb", "rc")}
        assert len(served) == 3
        for split in served.values():
            assert split["status"] == "ok"
            assert split["compile"] > 0.0
            assert split["sim"] > 0.0
            assert split["total_s"] >= split["compile"] + split["sim"] \
                - 1e-6

    def test_serve_rows_carry_tenant_and_cost(self, backend_journal):
        serve_rows = [r for r in backend_journal.document["jobs"]
                      if r["kind"] == "serve"]
        assert len(serve_rows) == 3
        assert all(r.get("tenant") == "default" for r in serve_rows)
        costed = [r["cost"] for r in serve_rows if r.get("cost")]
        assert costed, "no serve row carries a cost rollup"
        assert all(c["sim_cycles"] > 0 for c in costed)

    def test_serve_rows_share_one_key_set(self, backend_journal):
        """Both backends journal through RequestLifecycle.finish(), so a
        ``serve`` row has the same keys whichever one wrote it."""
        serve_rows = [r for r in backend_journal.document["jobs"]
                      if r["kind"] == "serve"]
        assert serve_rows
        for row in serve_rows:
            assert set(row) - {"cost"} == {
                "job", "kind", "status", "machine", "shard", "attempts",
                "batch_size", "cache", "seconds", "queue_s",
                "execute_s", "tenant", "trace_id", "span_id"}


class TestChromeExport:
    def test_event_shape(self, traced):
        events = traced.chrome["traceEvents"]
        assert events
        for event in events:
            if event["ph"] == "M":
                continue
            assert event["ph"] == "X"
            assert set(event) >= {"name", "ts", "dur", "pid", "tid",
                                  "args"}
            assert event["dur"] >= 1.0
            assert {"trace_id", "span_id"} <= set(event["args"])

    def test_wall_and_sim_tracks_coexist(self, traced):
        events = [e for e in traced.chrome["traceEvents"]
                  if e["ph"] == "X"]
        pids = {e["pid"] for e in events}
        assert WALL_PID in pids
        assert any(pid >= SIM_PID_BASE for pid in pids)
        assert any(e["cat"] == "isa" for e in events)
        # chip/lane thread naming on the sim tracks
        sim_tids = {e["tid"] for e in events if e["pid"] >= SIM_PID_BASE}
        assert all(tid.startswith("chip") for tid in sim_tids)

    def test_fu_timeline_scaled_into_enclosing_simulate_span(self, traced):
        events = traced.chrome["traceEvents"]
        sim_windows = {}  # trace_id -> (ts, ts+dur) of its simulate slice
        for event in events:
            if event.get("cat") == "simulate":
                tid = event["args"]["trace_id"]
                window = (event["ts"], event["ts"] + event["dur"])
                prior = sim_windows.get(tid)
                sim_windows[tid] = (min(window[0], prior[0]),
                                    max(window[1], prior[1])) \
                    if prior else window
        isa = [e for e in events if e.get("cat") == "isa"]
        assert isa
        for event in isa:
            lo, hi = sim_windows[event["args"]["trace_id"]]
            assert lo - 1e-6 <= event["ts"]
            # +1 slack: sub-microsecond cycles clamp to dur=1
            assert event["ts"] + event["dur"] <= hi + 1.0 + 1e-6

    def test_file_is_loadable_json(self, traced):
        with open(traced.chrome_path) as handle:
            payload = json.load(handle)
        assert payload["traceEvents"]


class TestCli:
    def test_report_prints_critical_path(self, backend_journal, capsys):
        assert obs_main([backend_journal.journal_path]) == 0
        out = capsys.readouterr().out
        traces = len(trace_table(backend_journal.document))
        assert f"{traces} trace(s)" in out
        for phase in ("queue", "compile", "sim", "recovery"):
            assert phase in out
        assert "utilization" in out

    def test_single_trace_by_prefix(self, backend_journal, capsys):
        trace_id = next(iter(trace_table(backend_journal.document)))
        assert obs_main([backend_journal.journal_path,
                         "--trace-id", trace_id[:8]]) == 0
        out = capsys.readouterr().out
        assert "1 trace(s)" in out
        assert trace_id in out

    def test_check_passes_on_healthy_journal(self, backend_journal,
                                             capsys):
        assert obs_main([backend_journal.journal_path, "--check"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_fails_on_unstamped_rows(self, backend_journal,
                                           tmp_path, capsys):
        doctored = dict(backend_journal.document)
        doctored["jobs"] = [
            {k: v for k, v in row.items()
             if k not in ("trace_id", "span_id")}
            for row in backend_journal.document["jobs"]
        ]
        path = tmp_path / "doctored.json"
        path.write_text(json.dumps(doctored))
        assert obs_main([str(path), "--check"]) == 1
        assert "missing trace_id" in capsys.readouterr().out

    def test_check_fails_when_a_serve_trace_has_no_children(
            self, backend_journal, tmp_path, capsys):
        doctored = dict(backend_journal.document)
        doctored["jobs"] = [row
                            for row in backend_journal.document["jobs"]
                            if row["kind"] == "serve"]
        path = tmp_path / "orphans.json"
        path.write_text(json.dumps(doctored))
        assert obs_main([str(path), "--check"]) == 1
        out = capsys.readouterr().out
        assert "no compile-or-cache child" in out
        assert "no simulate child" in out

    def test_prometheus_textfile_from_journal(self, backend_journal,
                                              tmp_path, capsys):
        prom = tmp_path / "metrics.prom"
        assert obs_main([backend_journal.journal_path,
                         "--prom-out", str(prom)]) == 0
        text = prom.read_text()
        assert "runtime_compile_requests_total" in text
        assert "runtime_simulations_total" in text
        assert 'serve_requests_total{status="ok"} 3' in text
        # schema 8: tenant attribution replays from the journal alone
        assert 'cluster_tenant_requests_total' in text
        assert 'tenant="default"' in text

    def test_registry_replay_matches_row_counts(self, backend_journal):
        document = backend_journal.document
        registry = registry_from_journal(document)
        snap = registry.snapshot()
        compiles = sum(s["value"] for s in
                       snap["runtime_compile_requests_total"]["series"])
        assert compiles == sum(1 for r in document["jobs"]
                               if r["kind"] == "compile")
        tenant_requests = sum(
            s["value"] for s in
            snap["cluster_tenant_requests_total"]["series"])
        assert tenant_requests == sum(1 for r in document["jobs"]
                                      if r["kind"] == "serve")


class TestSchemaBackCompat:
    """Journals written before schema 8 (no tenant/cost/alert rows)
    stay fully analyzable — the committed fixture is a real v7 run."""

    FIXTURE = __file__.rsplit("/", 1)[0] + "/fixtures/journal_v7.json"

    def test_fixture_is_v7_without_live_fields(self):
        with open(self.FIXTURE) as handle:
            document = json.load(handle)
        assert document["schema"] == 7
        for row in document["jobs"]:
            assert "tenant" not in row
            assert "cost" not in row
            assert row["kind"] != "alert"

    def test_check_accepts_v7(self, capsys):
        assert obs_main([self.FIXTURE, "--check"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_report_renders_v7(self, capsys):
        assert obs_main([self.FIXTURE]) == 0
        assert "trace(s)" in capsys.readouterr().out

    def test_registry_replay_without_tenant_rows(self):
        with open(self.FIXTURE) as handle:
            document = json.load(handle)
        registry = registry_from_journal(document)
        snap = registry.snapshot()
        serves = sum(1 for r in document["jobs"] if r["kind"] == "serve")
        assert serves > 0
        total = sum(s["value"] for s in
                    snap["serve_requests_total"]["series"])
        assert total == serves
        # No tenant attribution can be synthesized from v7 rows.
        assert "cluster_tenant_requests_total" not in snap

    def test_removed_alert_rows_load_and_are_named(self, tmp_path):
        """A schema-10 journal may hold ``alert`` rows (schema 8-10): it
        still loads, replays with the alerts skipped, and ``check()``
        names each one instead of calling it unstamped."""
        stamp = {"trace_id": "t1", "span_id": "s1"}
        serve = dict(stamp, job="r0", kind="serve", status="ok",
                     machine="Cinnamon-4", shard=0, attempts=1,
                     batch_size=1, cache="miss", seconds=0.5,
                     queue_s=0.1, batch_s=0.0, execute_s=0.4,
                     tenant="acme")
        alert = dict(job="lat", kind="alert", slo="lat", severity="page",
                     burn_rate=20.0, long_window_s=60.0,
                     short_window_s=5.0, bad_fraction=0.2,
                     objective=0.99, threshold=14.4, message="")
        path = tmp_path / "journal_v10.json"
        path.write_text(json.dumps({
            "schema": 10, "created_unix": 0.0, "cache": {},
            "jobs": [
                dict(stamp, job="r0", kind="compile", cache="miss",
                     key="ab12", seconds=0.3, compile=None),
                dict(stamp, job="r0", kind="simulate", cache="miss",
                     machine="Cinnamon-4", tag="", seconds=0.1,
                     simulate={"cycles": 1000}),
                alert, serve, dict(alert, severity="warn")]}))
        document = load_journal(str(path))
        without = dict(document, jobs=[r for r in document["jobs"]
                                       if r["kind"] != "alert"])
        assert registry_from_journal(document).snapshot() \
            == registry_from_journal(without).snapshot()
        assert check(document) == [
            "row 2: kind 'alert' removed in schema 11",
            "row 4: kind 'alert' removed in schema 11"]
        assert check(without) == []

    def test_schema_11_batch_s_is_part_of_queue(self, tmp_path):
        """A schema-11 serve row split its wait into ``queue_s`` and the
        ``batch_s`` inside it; schema 12 has one wait, so the breakdown
        reads ``queue_s`` whole, ignores ``batch_s``, and checks clean."""
        stamp = {"trace_id": "t1", "span_id": "s1"}
        path = tmp_path / "journal_v11.json"
        path.write_text(json.dumps({
            "schema": 11, "created_unix": 0.0, "cache": {},
            "jobs": [
                dict(stamp, job="r0", kind="compile", cache="miss",
                     key="ab12", seconds=0.3, compile=None),
                dict(stamp, job="r0", kind="simulate", cache="miss",
                     machine="Cinnamon-4", tag="", seconds=0.1,
                     simulate={"cycles": 1000}),
                dict(stamp, job="r0", kind="serve", status="ok",
                     machine="Cinnamon-4", shard=0, attempts=1,
                     batch_size=2, cache="miss", seconds=0.6,
                     queue_s=0.1, batch_s=0.04, execute_s=0.4,
                     tenant="acme")]}))
        document = load_journal(str(path))
        assert check(document) == []
        split = trace_table(document)["t1"]
        assert split["queue"] == 0.1
        assert "batch" not in split
        assert split["other"] == pytest.approx(0.6 - 0.1 - 0.3 - 0.1)
