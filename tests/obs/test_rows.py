"""repro.obs.rows: the row vocabulary, and metrics as a fold over rows —
what a recorder journals is what its registry counts, and replaying the
journal gives the same registry."""

import re
from pathlib import Path

import pytest

from repro.cluster import ClusterRouter
from repro.obs.analyze import registry_from_journal
from repro.obs.metrics import MetricsRegistry
from repro.obs.rows import ROW_KINDS, SERIES, TRUST_REJECTIONS
from repro.runtime.trace import TraceRecorder
from repro.serve import CinnamonServer, RequestStatus

DOCS = Path(__file__).resolve().parents[2] / "docs"

COMPILE = dict(job="prog", key="ab12", seconds=0.4)
SIMULATE = dict(job="prog", machine="Cinnamon-4", tag="", seconds=0.1)
SERVE = dict(job="req-1", machine="Cinnamon-4", shard=0, attempts=1,
             batch_size=2, cache="miss", seconds=0.5, tenant="acme")
EXECUTED = dict(queue_s=0.1, execute_s=0.4)
COST = {"sim_cycles": 1234, "bootstraps": 1, "bytes": 4096,
        "compile_s": 0.25}

VARIANTS = {
    "compile-miss": ("compile", dict(
        COMPILE, cache="miss", compile={
            "passes": [{"name": "keyswitch", "seconds": 0.01},
                       {"name": "codegen", "seconds": 0.3}],
            "counters": {"ct_ops": 9}, "total_seconds": 0.31})),
    "compile-hit": ("compile", dict(COMPILE, cache="memory",
                                    compile=None)),
    "simulate-miss": ("simulate", dict(
        SIMULATE, cache="miss", simulate={"cycles": 813000})),
    "simulate-memo-hit": ("simulate", dict(SIMULATE, cache="memory",
                                           simulate=None)),
    "simulate-error": ("simulate", dict(
        SIMULATE, cache="miss", simulate=None,
        error="ChipFailure: chip 3 died")),
    "cluster": ("cluster", dict(event="worker_lost", worker="w1",
                                detail={"pid": 42, "ring_size": 1})),
    "recovery": ("recovery", dict(
        job="prog", fault="chip_crash", chip=3, cycle=2000,
        machine_from="Cinnamon-4", machine_to="Cinnamon-2",
        replay_s=0.2)),
    "tune": ("tune", dict(
        job="tune-bootstrap", workload="bootstrap", machine="Cinnamon-4",
        budget=8, candidates=8, default_cycles=405368, best_cycles=327000,
        best_config={"num_digits": 2}, cache_hits=3, seconds=12.8)),
}
#: A schema-8..10 ``alert`` row: schema 11 records no such kind.
ALERT = dict(slo="lat", severity="page", burn_rate=20.0, long_window_s=60.0,
             short_window_s=5.0, bad_fraction=0.2, objective=0.99,
             threshold=14.4)
for status in RequestStatus:
    VARIANTS[f"serve-{status.value}-unexecuted"] = (
        "serve", dict(SERVE, status=status.value))
    VARIANTS[f"serve-{status.value}-executed"] = (
        "serve", dict(SERVE, **EXECUTED, status=status.value))
    VARIANTS[f"serve-{status.value}-billed"] = (
        "serve", dict(SERVE, **EXECUTED, status=status.value, cost=COST))
for event in sorted(TRUST_REJECTIONS) + ["key_rotation", "keys_replicated"]:
    VARIANTS[f"trust-{event}"] = ("trust", dict(
        event=event, target="acme", detail={"reason": "nonce-reuse"}))
VARIANTS["trust-untargeted"] = ("trust", dict(event="tamper_detected"))


def recorded(kind, fields):
    registry = MetricsRegistry()
    recorder = TraceRecorder(registry=registry)
    return registry, recorder, recorder.record(kind, **fields)


class TestReplayEqualsLive:
    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_one_row(self, name):
        registry, recorder, row = recorded(*VARIANTS[name])
        assert registry.snapshot(), "the row fed no series"
        assert registry_from_journal(recorder.document()).snapshot() \
            == registry.snapshot()

    def test_every_family_is_fed_by_some_variant(self):
        registry = MetricsRegistry()
        recorder = TraceRecorder(registry=registry)
        for kind, fields in VARIANTS.values():
            recorder.record(kind, **fields)
        assert {family.name for family in SERIES} == set(registry.snapshot())
        assert len(SERIES) == 21
        assert {family.kind for family in SERIES} == set(ROW_KINDS)

    def test_a_v7_serve_row_names_no_tenant_to_bill(self):
        registry, recorder, row = recorded(*VARIANTS["serve-ok-billed"])
        document = recorder.document()
        del document["jobs"][0]["tenant"]
        live = {name: entry for name, entry in registry.snapshot().items()
                if not name.startswith("cluster_tenant_")}
        assert len(live) == 4
        assert registry_from_journal(document).snapshot() == live

    def test_only_executed_requests_split_their_wall_time(self):
        registry, _, _ = recorded(*VARIANTS["serve-timeout-unexecuted"])
        assert "serve_request_latency_seconds" in registry.snapshot()
        assert "serve_queue_wait_seconds" not in registry.snapshot()
        assert "serve_execute_seconds" not in registry.snapshot()

    def test_trust_rejections_own_a_counter_each(self):
        for event, counter in TRUST_REJECTIONS.items():
            registry, _, _ = recorded(*VARIANTS[f"trust-{event}"])
            assert set(registry.snapshot()) == {"trust_events_total",
                                                counter}
        registry, _, _ = recorded(*VARIANTS["trust-key_rotation"])
        assert set(registry.snapshot()) == {"trust_events_total"}


class TestRecord:
    def test_row_shape(self):
        _, _, row = recorded(*VARIANTS["cluster"])
        assert row == {"job": "w1", "kind": "cluster",
                       "event": "worker_lost", "worker": "w1", "pid": 42,
                       "ring_size": 1}
        _, _, row = recorded("cluster", dict(event="scale_up"))
        assert row["job"] == "cluster" and row["worker"] is None
        _, _, row = recorded(*VARIANTS["trust-untargeted"])
        assert row == {"job": "trust", "kind": "trust",
                       "event": "tamper_detected", "target": ""}
        _, _, row = recorded(*VARIANTS["simulate-memo-hit"])
        assert "error" not in row
        _, _, row = recorded(*VARIANTS["serve-ok-unexecuted"])
        assert "cost" not in row and row["queue_s"] == 0.0

    def test_the_journal_does_not_alias_the_callers_values(self):
        cost = dict(COST)
        _, _, row = recorded("serve", dict(SERVE, status="ok", cost=cost))
        cost["sim_cycles"] = 0
        assert row["cost"] == COST
        _, _, first = recorded(*VARIANTS["tune"])
        first["trials"].append("x")
        _, _, second = recorded(*VARIANTS["tune"])
        assert second["trials"] == []

    @pytest.mark.parametrize("kind, fields", [
        ("deploy", dict(job="x")),                          # unknown kind
        ("compile", dict(COMPILE, cache="miss", compile=None,
                         compile_stats=None)),              # unknown field
        ("compile", dict(COMPILE, cache="miss")),           # missing field
        ("serve", dict(status="ok")),
        ("compile", dict(key="k", cache="miss", seconds=0.0,
                         compile=None)),                    # missing job
        ("alert", ALERT),                                   # removed kind
        ("recovery", dict(VARIANTS["recovery"][1],
                          detail={"a": 1})),                # no detail
    ])
    def test_bad_rows_are_type_errors(self, kind, fields):
        registry = MetricsRegistry()
        recorder = TraceRecorder(registry=registry)
        with pytest.raises(TypeError):
            recorder.record(kind, **fields)
        assert recorder.jobs == [] and registry.snapshot() == {}

    def test_absorbed_rows_are_journaled_but_never_folded(self):
        _, _, row = recorded(*VARIANTS["compile-miss"])
        registry = MetricsRegistry()
        recorder = TraceRecorder(registry=registry)
        recorder.absorb([row], worker="w0")
        assert recorder.jobs == [dict(row, worker="w0")]
        assert registry.snapshot() == {}


@pytest.mark.parametrize("frontend", [
    lambda: CinnamonServer(num_workers=1),
    lambda: ClusterRouter(num_workers=1, spawn_workers=False),
], ids=["server", "router"])
def test_serve_series_exist_at_zero_before_the_first_request(frontend):
    """An unused front-end already exports the serve families at zero,
    so a scraper's first ``rate()`` sees every status's first request."""
    front = frontend()
    try:
        snapshot = front.metrics_snapshot()
    finally:
        front.shutdown(drain=False)
    assert {tuple(s["labels"].items()): s["value"] for s in
            snapshot["serve_requests_total"]["series"]} == {
        (("status", status.value),): 0 for status in RequestStatus}
    for family in ("serve_request_latency_seconds",
                   "serve_queue_wait_seconds", "serve_execute_seconds"):
        (series,) = snapshot[family]["series"]
        assert series["value"]["count"] == 0


def _section(path: Path, heading: str) -> str:
    text = path.read_text()
    start = text.index(f"\n## {heading}")
    end = text.find("\n## ", start + 1)
    return text[start:end if end != -1 else len(text)]


def test_docs_name_every_kind_and_family():
    schema = _section(DOCS / "runtime.md", "Trace JSON schema")
    for kind, spec in ROW_KINDS.items():
        assert f'`"{kind}"`' in schema, kind
        for field in spec.fields:
            assert re.search(rf"`{field}`", schema), (kind, field)
    metrics = _section(DOCS / "observability.md", "Metrics")
    for family in SERIES:
        assert f"`{family.name}`" in metrics, family.name
