"""Structured run traces for the runtime session.

One :class:`TraceRecorder` accumulates the journal rows of a session or
a serving front-end — one per compile, simulate, serve resolution,
recovery, tuning run, cluster or trust event — and
renders them as a single JSON document (``schema``, ``created_unix``,
``cache``, ``jobs``).  docs/runtime.md ("Trace JSON schema") is the
field reference; :data:`repro.obs.rows.ROW_KINDS` is the table
:meth:`TraceRecorder.record` validates against.

A recorder keeps at most :data:`RESIDENT_ROWS` rows in memory.  Older
rows are appended, as JSON lines, to an anonymous temporary file opened
on first need; every reader sees spilled + resident rows in record
order.  A row is folded into the registry when it is recorded, so what
the metrics say never depends on where the row lives.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
import weakref
from typing import Dict, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry, default_registry
from ..obs.rows import build_row, observe_row
from ..obs.tracing import current_span

#: Version of the overall trace document layout.
#: 2: added ``kind == "serve"`` entries (the repro.serve request log).
#: 3: added ``kind == "recovery"`` entries (machine-level fault recovery)
#:    and an optional ``error`` field on simulate entries.
#: 4: added ``kind == "tune"`` entries (repro.tune autotuning runs:
#:    candidates tried, cycles).
#: 5: cross-layer observability (repro.obs): every entry carries
#:    ``trace_id``/``span_id`` when recorded under an active span, so
#:    serve/compile/simulate/recovery rows of one request are joinable;
#:    serve entries gain a ``queue_s``/``batch_s``/``execute_s`` latency
#:    split.
#: 6: added ``kind == "cluster"`` entries (repro.cluster membership and
#:    failover events: worker spawn/exit/kill, drain, requeue-on-death,
#:    autoscale decisions) plus ``worker`` attribution on rows absorbed
#:    from worker-process journals into the router's merged journal.
#: 7: added ``kind == "trust"`` entries (repro.trust security events:
#:    tampered artifacts detected+quarantined, stale/revoked key
#:    rejections, replayed or reordered request envelopes, key
#:    rotations and manifest replications).
#: 8: added ``kind == "alert"`` entries (SLO burn-rate alerts of the
#:    since-removed live telemetry pipeline; see 11);
#:    serve entries gain ``tenant`` and an optional per-request ``cost``
#:    rollup (``sim_cycles``/``bootstraps``/``bytes``/``compile_s``)
#:    feeding the ``cluster_tenant_*`` attribution counters.
#: 9: ``tune`` entries drop ``strategy``, ``goal`` and the two pruning
#:    counts (one search simulates every candidate to completion).
#: 10: ``recovery`` entries drop their separate recompile time (it is
#:    timed inside ``replay_s``).
#: 11: ``alert`` entries are gone with the live telemetry pipeline that
#:    fired them; an older journal's ``alert`` rows still load, fold into
#:    no series, and ``check()`` names each one.
#: 12: ``serve`` entries drop ``batch_s`` with the batching window that
#:    timed it: a request waits only in the admission queue, so
#:    ``queue_s`` is its whole wait.  An older journal's ``batch_s`` (a
#:    part of its ``queue_s``) is ignored.
TRACE_SCHEMA_VERSION = 12

#: Most journal rows a recorder holds in memory.  Reaching it spills the
#: older half to the recorder's temporary file in one write.
RESIDENT_ROWS = 1024


class TraceRecorder:
    """Thread-safe accumulator of journal rows.

    Every row :meth:`record` appends is also folded, exactly once, into
    ``registry`` (:func:`repro.obs.rows.observe_row`; default: the
    process-global :func:`~repro.obs.metrics.default_registry`), so what
    a recorder journals is what its registry counts.

    Rows are JSON by contract (:meth:`to_json` dumps them, workers ship
    them as JSON): a spilled row reads back JSON-equal, tuples as lists.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = (registry if registry is not None
                         else default_registry())
        self._lock = threading.Lock()
        self._jobs: List[dict] = []     # the resident, newest rows
        self._spill = None              # older rows, one JSON line each
        self._spilled = 0
        self.created_unix = time.time()

    # ------------------------------------------------------------------ #

    def record(self, kind: str, **fields) -> dict:
        """Journal one ``kind`` row built from ``fields`` (validated
        against :data:`repro.obs.rows.ROW_KINDS`; a bad kind or field is
        a ``TypeError``).  The row is stamped with the active
        :mod:`repro.obs` span, if any, so rows from every layer of one
        request join on ``trace_id`` (schema 5)."""
        row = build_row(kind, fields)
        span = current_span()
        if span is not None:
            row.setdefault("trace_id", span.trace_id)
            row.setdefault("span_id", span.span_id)
        with self._lock:
            self._append(row)
        observe_row(self.registry, row)
        return row

    def absorb(self, rows, worker: Optional[str] = None) -> None:
        """Merge pre-stamped journal rows (from a worker process) into
        this recorder.  Rows keep their own ``trace_id``/``span_id`` —
        they were recorded under the request's propagated span in the
        worker — and gain a ``worker`` attribution (schema 6).  They are
        not folded into the registry: the worker counted them, in the
        snapshot it ships."""
        with self._lock:
            for row in rows:
                row = dict(row)
                if worker is not None:
                    row.setdefault("worker", worker)
                self._append(row)

    def _append(self, row: dict) -> None:
        """Add one row, spilling the older half of the resident rows
        once they reach :data:`RESIDENT_ROWS` (caller holds the lock)."""
        if len(self._jobs) >= RESIDENT_ROWS:
            cut = len(self._jobs) // 2
            if self._spill is None:
                self._spill = tempfile.TemporaryFile()
                weakref.finalize(self, self._spill.close)
            self._spill.seek(0, 2)
            self._spill.write("".join(
                json.dumps(old, separators=(",", ":")) + "\n"
                for old in self._jobs[:cut]).encode("utf-8"))
            del self._jobs[:cut]
            self._spilled += cut
        self._jobs.append(row)

    def _spilled_rows(self, start: int = 0) -> List[dict]:
        """Spilled rows from index ``start`` on (caller holds the lock)."""
        if self._spill is None or start >= self._spilled:
            return []
        self._spill.seek(0)
        lines = self._spill.read().splitlines()
        return [json.loads(line) for line in lines[start:]]

    # ------------------------------------------------------------------ #

    @property
    def jobs(self) -> List[dict]:
        """Every row recorded since the last :meth:`clear`, in order."""
        with self._lock:
            return self._spilled_rows() + self._jobs

    def rows_since(self, cursor: int) -> Tuple[List[dict], int]:
        """Rows from index ``cursor`` on, and the cursor that follows
        them.  A cursor near the end — a shipper that keeps up — is
        served from the resident rows without touching the spill."""
        with self._lock:
            total = self._spilled + len(self._jobs)
            rows = (self._spilled_rows(cursor)
                    + self._jobs[max(0, cursor - self._spilled):])
            return rows, total

    def clear(self) -> None:
        with self._lock:
            self._jobs.clear()
            if self._spill is not None:
                self._spill.close()
            self._spill = None
            self._spilled = 0

    def document(self, cache_stats: Dict[str, int] = None) -> dict:
        """The merged trace document for the whole session so far."""
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "created_unix": self.created_unix,
            "cache": dict(cache_stats or {}),
            "jobs": self.jobs,
        }

    def to_json(self, cache_stats: Dict[str, int] = None,
                indent: int = 2) -> str:
        return json.dumps(self.document(cache_stats), indent=indent,
                          sort_keys=False)
