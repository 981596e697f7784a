"""The journal row vocabulary and the one fold from rows to metrics.

Two tables live here and nothing else in the repo knows their content:

* :data:`ROW_KINDS` — what a journal row of each ``kind`` holds.
  :func:`build_row` is its only reader;
  :meth:`repro.runtime.trace.TraceRecorder.record` is the only caller.
* :data:`SERIES` — which metric series a row feeds.
  :func:`observe_row` is its only reader: a recorder folds each row it
  records into its registry, and
  :func:`repro.obs.analyze.registry_from_journal` folds a journal
  artifact — the same function, so replay and live cannot disagree.

docs/runtime.md ("Trace JSON schema") and docs/observability.md
("Metrics") are the prose form of the two tables.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Dict, Iterable, NamedTuple, Optional, Tuple

from .metrics import (CYCLE_BUCKETS, DEFAULT_BUCKETS, TENANT_COST_FAMILIES,
                      MetricsRegistry)

#: Field default: the caller must pass it.
REQUIRED = object()
#: Field default: optional, and left out of the row while ``None``.
OMIT = object()


class RowKind(NamedTuple):
    """One ``kind`` of journal row."""

    #: Field name -> default, in row order (after ``job`` and ``kind``).
    fields: Dict[str, object]
    #: Derives ``job`` from the row's fields when the caller passes
    #: none; ``None`` means ``job`` is required.
    job: Optional[Callable[[dict], str]] = None
    #: Accepts an open ``detail={...}`` that is flattened into the row.
    detail: bool = False


ROW_KINDS: Dict[str, RowKind] = {
    "compile": RowKind({
        "cache": REQUIRED, "key": REQUIRED, "seconds": REQUIRED,
        "compile": REQUIRED,         # CompileStats.as_dict(); None on hits
    }),
    "simulate": RowKind({
        "cache": REQUIRED, "machine": REQUIRED, "tag": REQUIRED,
        "seconds": REQUIRED,
        "simulate": REQUIRED,        # SimulationResult.as_dict() or None
        "error": OMIT,
    }),
    "serve": RowKind({
        "status": REQUIRED, "machine": REQUIRED, "shard": REQUIRED,
        "attempts": REQUIRED, "batch_size": REQUIRED, "cache": REQUIRED,
        "seconds": REQUIRED, "queue_s": 0.0, "execute_s": 0.0,
        "tenant": "default",
        "cost": OMIT,                # serve.request.cost_rollup()
    }),
    "recovery": RowKind({
        "fault": REQUIRED, "chip": REQUIRED, "cycle": REQUIRED,
        "machine_from": REQUIRED, "machine_to": REQUIRED,
        "lost_cycles": 0, "detection_s": 0.0, "replay_s": None,
    }),
    "tune": RowKind({
        "workload": REQUIRED, "machine": REQUIRED, "budget": REQUIRED,
        "candidates": REQUIRED, "default_cycles": REQUIRED,
        "best_cycles": REQUIRED, "best_config": REQUIRED,
        "cache_hits": REQUIRED, "seconds": REQUIRED, "trials": [],
    }),
    "cluster": RowKind(
        {"event": REQUIRED, "worker": None},
        job=lambda row: row["worker"] or "cluster", detail=True),
    "trust": RowKind(
        {"event": REQUIRED, "target": ""},
        job=lambda row: row["target"] or "trust", detail=True),
}

#: Row kinds a journal of an older schema may hold that this one no
#: longer records, with the schema that removed them.  They fold into no
#: series; :func:`repro.obs.analyze.check` names each one.
REMOVED_KINDS = {"alert": 11}


def build_row(kind: str, fields: dict) -> dict:
    """The ``kind`` row made of keyword ``fields``.  An unknown kind, an
    unknown field or a missing required one is a ``TypeError``, as from
    a keyword-only signature.  Dict and list values are copied, so the
    journal does not alias what the caller keeps using."""
    spec = ROW_KINDS.get(kind)
    if spec is None:
        raise TypeError(f"unknown journal row kind {kind!r}")
    fields = dict(fields)
    job = fields.pop("job", None)
    detail = fields.pop("detail", None) if spec.detail else None
    unknown = sorted(set(fields) - set(spec.fields))
    if unknown:
        raise TypeError(f"{kind} row got unexpected field(s) {unknown}")
    row = {"job": job, "kind": kind}
    for name, default in spec.fields.items():
        value = fields.get(name, None if default is OMIT else default)
        if value is REQUIRED:
            raise TypeError(f"{kind} row missing required field {name!r}")
        if default is OMIT and value is None:
            continue
        row[name] = (type(value)(value)
                     if isinstance(value, (dict, list)) else value)
    if spec.job is not None:
        row["job"] = job or spec.job(row)
    elif job is None:
        raise TypeError(f"{kind} row missing required field 'job'")
    if detail:
        row.update(detail)
    return row


# ---------------------------------------------------------------------- #
# Row -> series

class Series(NamedTuple):
    """One metric family and how rows of one kind feed it."""

    kind: str                        # the row kind that feeds it
    type: str                        # "counter" | "histogram"
    name: str
    help: str
    labels: Tuple[str, ...]
    #: ``(label values, amount)`` per sample a row contributes: the
    #: increment of a counter, the observation of a histogram.
    samples: Callable[[dict], Iterable[Tuple[tuple, float]]]
    buckets: Tuple[float, ...] = DEFAULT_BUCKETS

    def on(self, registry: MetricsRegistry, values: tuple = ()):
        """This family's series for ``values`` (get-or-create)."""
        labels = dict(zip(self.labels, values))
        if self.type == "histogram":
            return registry.histogram(self.name, self.help, labels,
                                      self.buckets)
        return registry.counter(self.name, self.help, labels)


def _count(kind: str, name: str, help: str, *labels: str) -> Series:
    """One increment per row, labelled by the row's own fields."""
    def samples(row):
        return [(tuple(row.get(label, "?") for label in labels), 1)]
    return Series(kind, "counter", name, help, labels, samples)


def _seconds(kind: str, name: str, help: str, field: str,
             when=lambda row: True) -> Series:
    """One observation of ``row[field]`` per row that passes ``when``."""
    def samples(row):
        return [((), row.get(field) or 0.0)] if when(row) else ()
    return Series(kind, "histogram", name, help, (), samples)


#: Trust events that reject something, and the counter each one owns;
#: every other event (``key_rotation``, ``keys_replicated``, ...) only
#: counts in ``trust_events_total``.
TRUST_REJECTIONS = {
    "tamper_detected": "trust_tamper_detected_total",
    "replay_rejected": "trust_replay_rejected_total",
    "stale_request": "trust_replay_rejected_total",
    "stale_key": "trust_stale_key_rejections_total",
}


def _rejection(name: str, help: str, labels: Tuple[str, ...],
               values: Callable[[dict], tuple]) -> Series:
    """One increment per trust row whose event owns counter ``name``."""
    def samples(row):
        owned = TRUST_REJECTIONS.get(row.get("event")) == name
        return [(values(row), 1)] if owned else ()
    return Series("trust", "counter", name, help, labels, samples)


def _executed(row: dict) -> bool:
    """A serve row whose request reached an executor: only those split
    their wall time (an unexecuted one has both parts ``0.0``)."""
    return bool(row.get("queue_s") or row.get("execute_s"))


SERIES: Tuple[Series, ...] = (
    _count("compile", "runtime_compile_requests_total",
           "Compile requests by cache outcome.", "cache"),
    _seconds("compile", "runtime_compile_seconds",
             "Wall time of one compile call (hits included).", "seconds"),
    Series("compile", "histogram", "runtime_compile_pass_seconds",
           "Wall time per compiler pass (cache misses only).", ("pass",),
           lambda row: [((timing["name"],), timing["seconds"]) for timing
                        in (row.get("compile") or {}).get("passes", ())]),
    _count("simulate", "runtime_simulations_total",
           "Simulations by cache outcome.", "cache"),
    Series("simulate", "histogram", "runtime_simulated_cycles",
           "Simulated cycles per workload run.", ("workload", "machine"),
           lambda row: [((row.get("job", "?"), row.get("machine", "?")),
                         row["simulate"]["cycles"])]
           if "cycles" in (row.get("simulate") or {}) else (),
           buckets=CYCLE_BUCKETS),
    _count("recovery", "runtime_recoveries_total",
           "Degraded-mode recoveries by fault kind.", "fault"),
    _count("tune", "runtime_tune_runs_total", "Autotuning runs recorded.",
           "workload"),
    _count("cluster", "cluster_events_total",
           "Cluster control-plane events by kind.", "event"),
    _count("trust", "trust_events_total", "Trust-layer events by kind.",
           "event"),
    _rejection("trust_tamper_detected_total",
               "Artifacts whose bytes mismatched their signed manifest.",
               ("target",), lambda row: (row.get("target") or "unknown",)),
    _rejection("trust_replay_rejected_total",
               "Requests rejected by the replay/freshness guard.",
               ("reason",), lambda row: (row.get("reason", row["event"]),)),
    _rejection("trust_stale_key_rejections_total",
               "Requests rejected for stale/revoked/unknown keys.",
               (), lambda row: ()),
    _count("serve", "serve_requests_total", "Requests by terminal status.",
           "status"),
    _seconds("serve", "serve_request_latency_seconds",
             "End-to-end latency, submit to resolution.", "seconds"),
    _seconds("serve", "serve_queue_wait_seconds",
             "Admission-queue wait before execution starts.",
             "queue_s", when=_executed),
    _seconds("serve", "serve_execute_seconds",
             "Compile+simulate time in the executor.", "execute_s",
             when=_executed),
    # Tenant billing: every terminal outcome counts against the row's
    # tenant (rows older than schema 8 name none); an executed request's
    # cost rollup is billed field by field.
    Series("serve", "counter", "cluster_tenant_requests_total",
           "Requests by tenant and terminal status.", ("tenant", "status"),
           lambda row: [((row["tenant"], row.get("status", "?")), 1)]
           if row.get("tenant") else ()),
    *(Series("serve", "counter", family, help, ("tenant",),
             lambda row, field=field: [
                 ((row["tenant"],), row["cost"].get(field) or 0)]
             if row.get("tenant") and row.get("cost") else ())
      for family, field, help in TENANT_COST_FAMILIES),
)

_BY_KIND: Dict[str, Tuple[Series, ...]] = {
    kind: tuple(s for s in SERIES if s.kind == kind) for kind in ROW_KINDS}


def observe_row(registry: MetricsRegistry, row: dict) -> None:
    """Fold one journal row into ``registry``."""
    for series in _BY_KIND.get(row.get("kind"), ()):
        for values, amount in series.samples(row):
            metric = series.on(registry, values)
            if series.type == "histogram":
                metric.observe(amount)
            else:
                metric.inc(amount)


def declare_series(registry: MetricsRegistry, kind: str,
                   **label_values: Iterable[str]) -> None:
    """Create, at zero, the series of ``kind`` rows whose every label
    has its values listed in ``label_values`` (label-free ones
    included), so every status series is exported from the first
    snapshot on: a counter that first appears at 1 hides that increment
    from a scraper's ``rate()``."""
    for series in _BY_KIND[kind]:
        if set(series.labels) <= set(label_values):
            for values in product(*(label_values[label]
                                    for label in series.labels)):
                series.on(registry, values)
