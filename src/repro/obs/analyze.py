"""Journal analysis: critical paths, utilization, and a Prometheus dump.

Everything here works from the *trace journal alone* — the JSON document
:class:`repro.runtime.trace.TraceRecorder` renders (schema >= 5, where
rows carry ``trace_id``/``span_id``).  That makes ``python -m repro.obs``
usable on an artifact from another process or another machine: no live
tracer or registry required.

The per-trace breakdown splits one request's wall time into

* ``queue``   — admission-queue wait (``queue_s``; a journal older
  than schema 12 also carries ``batch_s``, a part of ``queue_s`` that
  is ignored),
* ``compile`` — wall time of the trace's compile rows (hits included),
* ``sim``     — wall time of its simulate rows,
* ``recovery``— detection + replay (which includes the degraded
  recompile),
* ``other``   — the unattributed remainder (scheduling, bookkeeping).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .metrics import MetricsRegistry
from .rows import REMOVED_KINDS, observe_row

#: Breakdown phases, in report order.
PHASES = ("queue", "compile", "sim", "recovery", "other")


def load_journal(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def group_by_trace(document: dict) -> Dict[str, List[dict]]:
    """Journal rows keyed by ``trace_id`` (untraced rows are dropped)."""
    traces: Dict[str, List[dict]] = {}
    for row in document.get("jobs", ()):
        trace_id = row.get("trace_id")
        if trace_id:
            traces.setdefault(trace_id, []).append(row)
    return traces


def breakdown(rows: List[dict]) -> dict:
    """Critical-path split for one trace's rows (see module docstring)."""
    serve = next((r for r in rows if r.get("kind") == "serve"), None)
    compile_s = sum(r.get("seconds", 0.0)
                    for r in rows if r.get("kind") == "compile")
    sim_s = sum(r.get("seconds", 0.0)
                for r in rows if r.get("kind") == "simulate")
    recovery_s = sum((r.get("detection_s") or 0.0)
                     + (r.get("replay_s") or 0.0)
                     for r in rows if r.get("kind") == "recovery")
    out = {
        "job": (serve or (rows[0] if rows else {})).get("job", "?"),
        "status": serve.get("status") if serve else None,
        "total_s": serve.get("seconds", 0.0) if serve else
                   compile_s + sim_s + recovery_s,
        "queue": (serve or {}).get("queue_s") or 0.0,
        "compile": compile_s, "sim": sim_s, "recovery": recovery_s,
        "other": 0.0,
        "rows": {kind: sum(1 for r in rows if r.get("kind") == kind)
                 for kind in ("serve", "compile", "simulate", "recovery",
                              "trust")},
    }
    accounted = sum(out[p] for p in PHASES if p != "other")
    out["other"] = max(0.0, out["total_s"] - accounted)
    return out


def trace_table(document: dict) -> Dict[str, dict]:
    """``breakdown`` per trace id, in first-appearance order."""
    return {trace_id: breakdown(rows)
            for trace_id, rows in group_by_trace(document).items()}


def utilization_summary(document: dict) -> dict:
    """FU and network-link utilization aggregated over every simulate
    payload in the journal (cycle-weighted means)."""
    fu_busy: Dict[str, float] = {}
    link_busy: Dict[str, float] = {}
    link_bytes: Dict[str, float] = {}
    total_cycles = 0
    runs = 0
    for row in document.get("jobs", ()):
        if row.get("kind") != "simulate":
            continue
        payload = row.get("simulate")
        if not payload:
            continue
        runs += 1
        cycles = payload.get("cycles", 0) or 0
        total_cycles += cycles
        for name, busy in (payload.get("fu_busy_cycles") or {}).items():
            fu_busy[name] = fu_busy.get(name, 0.0) + busy
        for cid, link in (payload.get("links") or {}).items():
            link_busy[cid] = link_busy.get(cid, 0.0) \
                + link.get("busy_cycles", 0)
            link_bytes[cid] = link_bytes.get(cid, 0.0) \
                + link.get("bytes", 0)
    from ..sim.simulator import METRICS_SCHEMA_VERSION

    denom = max(1, total_cycles)
    return {
        # Same metric vocabulary (and version) as SimulationResult.as_dict.
        "schema_version": METRICS_SCHEMA_VERSION,
        "simulations": runs,
        "total_cycles": total_cycles,
        "fu_utilization": {name: min(1.0, busy / denom)
                           for name, busy in sorted(fu_busy.items())},
        "link_utilization": {cid: min(1.0, busy / denom)
                             for cid, busy in sorted(link_busy.items())},
        "link_bytes": {cid: int(b)
                       for cid, b in sorted(link_bytes.items())},
    }


def registry_from_journal(document: dict,
                          registry: Optional[MetricsRegistry] = None
                          ) -> MetricsRegistry:
    """Fold every journal row into a registry with
    :func:`repro.obs.rows.observe_row` — the function a live
    :class:`TraceRecorder` folds each row with as it records it, so a
    journal artifact replays to the series the run exported.  Rows of a
    kind this schema removed (:data:`~repro.obs.rows.REMOVED_KINDS`)
    fold into nothing."""
    registry = registry or MetricsRegistry()
    for row in document.get("jobs", ()):
        observe_row(registry, row)
    return registry


def check(document: dict) -> List[str]:
    """Cross-layer invariants over a journal; returns problem strings
    (empty = healthy).  Checked:

    * every row carries a ``trace_id``/``span_id`` (schema 5);
    * no row is of a kind the current schema removed (an older journal's
      ``alert`` rows, gone in schema 11) — each is named once, not as a
      missing trace id;
    * every *successful* serve row's trace also contains at least one
      compile row (hit or miss) and at least one simulate row — i.e. the
      request's execution really was traced end-to-end.  (Rejected and
      timed-out requests legitimately never reach the shard.)
    """
    problems: List[str] = []
    schema = document.get("schema", 0)
    if schema < 5:
        problems.append(f"journal schema {schema} < 5: rows predate "
                        "trace-id stamping")
    for index, row in enumerate(document.get("jobs", ())):
        kind = row.get("kind")
        if kind in REMOVED_KINDS:
            problems.append(f"row {index}: kind {kind!r} removed in "
                            f"schema {REMOVED_KINDS[kind]}")
            continue
        if not row.get("trace_id") or not row.get("span_id"):
            problems.append(
                f"row {index} ({row.get('kind', '?')}:"
                f"{row.get('job', '?')}) missing trace_id/span_id")
    for trace_id, rows in group_by_trace(document).items():
        serves = [r for r in rows if r.get("kind") == "serve"
                  and r.get("status") == "ok"]
        if not serves:
            continue
        kinds = {r.get("kind") for r in rows}
        if "compile" not in kinds:
            problems.append(f"trace {trace_id}: serve row has no "
                            "compile-or-cache child row")
        if "simulate" not in kinds:
            problems.append(f"trace {trace_id}: serve row has no "
                            "simulate child row")
    return problems


# ---------------------------------------------------------------------- #
# Report rendering (the `python -m repro.obs` output)


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:9.2f}ms"


def render_breakdown(trace_id: str, split: dict) -> str:
    lines = [f"trace {trace_id}  job={split['job']}  "
             f"status={split['status'] or '-'}  "
             f"total={_fmt_ms(split['total_s']).strip()}"]
    total = max(split["total_s"], 1e-12)
    for phase in PHASES:
        seconds = split[phase]
        bar = "#" * int(round(40 * seconds / total))
        lines.append(f"  {phase:<9}{_fmt_ms(seconds)}  "
                     f"{100 * seconds / total:5.1f}%  {bar}")
    rows = split["rows"]
    lines.append("  rows     "
                 + "  ".join(f"{k}={v}" for k, v in rows.items() if v))
    return "\n".join(lines)


def render_report(document: dict,
                  trace_id: Optional[str] = None) -> str:
    """The full text report: per-trace critical paths plus the journal's
    aggregate FU/link utilization."""
    table = trace_table(document)
    if trace_id is not None:
        table = {tid: split for tid, split in table.items()
                 if tid == trace_id or tid.startswith(trace_id)}
        if not table:
            return f"no journal rows for trace id {trace_id!r}"
    parts = [f"trace journal: schema {document.get('schema', '?')}, "
             f"{len(document.get('jobs', []))} rows, "
             f"{len(table)} trace(s)"]
    parts.extend(render_breakdown(tid, split)
                 for tid, split in table.items())
    util = utilization_summary(document)
    if util["simulations"]:
        parts.append(f"utilization over {util['simulations']} "
                     f"simulation(s), {util['total_cycles']} cycles:")
        fu = "  ".join(f"{name}={frac:.1%}" for name, frac
                       in util["fu_utilization"].items())
        parts.append(f"  FU    {fu}")
        links = "  ".join(f"link{cid}={frac:.1%}" for cid, frac
                          in util["link_utilization"].items())
        if links:
            parts.append(f"  links {links}")
    return "\n".join(parts)
