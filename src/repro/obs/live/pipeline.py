"""The live telemetry pipeline: store + SLO engine + flight recorder.

One :class:`LivePipeline` per serving front-end (a
:class:`~repro.cluster.router.ClusterRouter` or a single-process
:class:`~repro.serve.CinnamonServer`).  Sources feed it cumulative
snapshots; each ``tick()``:

1. folds the owning process's registry into the store,
2. evaluates every SLO's burn-rate rules, journaling fired alerts as
   ``kind:"alert"`` rows (schema 8) and bumping ``obs_slo_*`` metrics,
3. rings a compact metric sample into the flight recorder,
4. atomically rewrites the live **status document** — the JSON that
   ``python -m repro.obs top`` renders and ``watch --prom-out``
   re-exports as a Prometheus textfile.

The router drives ``tick()`` from its monitor loop; single-process
servers call ``start()`` for a daemon thread at ``interval_s``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

from ..metrics import TENANT_COST_FAMILIES, MetricsRegistry, \
    default_registry
from ..rows import observe_row
from .flight import FlightRecorder
from .slo import Alert, SLO, SLOEngine
from .timeseries import TimeSeriesStore

#: Status document version.
STATUS_SCHEMA_VERSION = 1


def tenant_table(snapshot: dict) -> List[dict]:
    """Per-tenant cost rollups out of a (merged) metrics snapshot."""
    tenants: dict = {}

    def row(tenant: str) -> dict:
        return tenants.setdefault(tenant, {
            "tenant": tenant, "requests": 0.0, "ok": 0.0, "failed": 0.0,
            "sim_cycles": 0.0, "bootstraps": 0.0, "bytes": 0.0,
            "compile_s": 0.0,
        })

    for series in snapshot.get("cluster_tenant_requests_total",
                               {}).get("series", ()):
        labels = series.get("labels", {})
        tenant = labels.get("tenant", "default")
        value = series.get("value") or 0.0
        entry = row(tenant)
        entry["requests"] += value
        if labels.get("status") == "ok":
            entry["ok"] += value
        else:
            entry["failed"] += value
    for metric, column, _help in TENANT_COST_FAMILIES:
        for series in snapshot.get(metric, {}).get("series", ()):
            tenant = series.get("labels", {}).get("tenant", "default")
            row(tenant)[column] += series.get("value") or 0.0
    return sorted(tenants.values(),
                  key=lambda r: (-r["sim_cycles"], r["tenant"]))


def render_snapshot_prometheus(snapshot: dict) -> str:
    """Prometheus text exposition from a (merged) snapshot dict — the
    ``obs watch --prom-out`` body, mirroring
    :meth:`~repro.obs.metrics.MetricsRegistry.render_prometheus` for
    series that only exist post-merge."""
    lines: List[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry.get("type", "gauge")
        lines.append(f"# TYPE {name} {kind}")
        for series in entry.get("series", ()):
            labels = series.get("labels", {})
            text = ",".join(f'{k}="{v}"'
                            for k, v in sorted(labels.items()))
            base = f"{name}{{{text}}}" if text else name
            value = series.get("value")
            if isinstance(value, dict):    # histogram
                buckets = value.get("buckets") or {}
                cumulative = 0.0
                for bound, count in zip(buckets.get("le", ()),
                                        buckets.get("counts", ())):
                    cumulative += count
                    le = f'le="{bound:g}"'
                    sep = "," if text else ""
                    lines.append(f"{name}_bucket{{{text}{sep}{le}}} "
                                 f"{cumulative:g}")
                sep = "," if text else ""
                lines.append(f'{name}_bucket{{{text}{sep}le="+Inf"}} '
                             f'{value.get("count", 0):g}')
                lines.append(f"{name}_sum{{{text}}} "
                             f"{value.get('sum', 0.0):g}"
                             if text else
                             f"{name}_sum {value.get('sum', 0.0):g}")
                lines.append(f"{name}_count{{{text}}} "
                             f"{value.get('count', 0):g}"
                             if text else
                             f"{name}_count {value.get('count', 0):g}")
            elif isinstance(value, (int, float)):
                lines.append(f"{base} {value:g}")
    return "\n".join(lines) + "\n"


class LivePipeline:
    """Continuous telemetry for one serving front-end."""

    def __init__(self, *, slos: Sequence[Union[str, SLO]] = (),
                 flight_dir=None, process: str = "server",
                 recorder=None, registry: Optional[MetricsRegistry] = None,
                 interval_s: float = 1.0, horizon_s: float = 1800.0,
                 window_scale: float = 1.0, cooldown_s: float = 60.0,
                 min_events: int = 10,
                 status_path=None,
                 snapshot_fn: Optional[Callable[[], dict]] = None,
                 workers_fn: Optional[Callable[[], List[dict]]] = None):
        self.interval_s = interval_s
        self.process = process
        self.recorder = recorder
        self.registry = registry
        self.status_path = Path(status_path) if status_path else None
        self._snapshot_fn = snapshot_fn
        self._workers_fn = workers_fn

        self.store = TimeSeriesStore(interval_s=interval_s,
                                     horizon_s=horizon_s)
        self.engine = SLOEngine(
            [SLO.parse(s, min_events=min_events)
             if isinstance(s, str) else s for s in slos],
            self.store, window_scale=window_scale, cooldown_s=cooldown_s)
        self.flight: Optional[FlightRecorder] = None
        if flight_dir is not None:
            self.flight = FlightRecorder(flight_dir, process=process)
            if recorder is not None:
                recorder.add_listener(self.flight.note_row)

        self._alerts: deque = deque(maxlen=64)
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Ingestion (router reader loop / local registry).

    def ingest(self, source: str, snapshot: dict,
               now: Optional[float] = None) -> None:
        self.store.ingest(source, snapshot, now=now)

    def forget(self, source: str) -> None:
        self.store.forget(source)

    # ------------------------------------------------------------------ #

    def merged_snapshot(self) -> dict:
        """The cluster-wide snapshot: the owner's view when provided
        (router: registry + worker states), else the store's sources."""
        if self._snapshot_fn is not None:
            return self._snapshot_fn()
        from ...cluster.merge import merge_snapshots

        return merge_snapshots(self.store.snapshots().values())

    @property
    def alerts(self) -> List[dict]:
        with self._lock:
            return list(self._alerts)

    def tick(self, now: Optional[float] = None) -> List[Alert]:
        """One evaluation cycle; returns any alerts that fired."""
        now = time.time() if now is None else now
        if self.registry is not None:
            self.store.ingest(self.process, self.registry.snapshot(),
                              now=now)

        fired = self.engine.evaluate(now=now)
        for alert in fired:
            row = alert.as_row()
            if self.recorder is not None:
                # Journals the row, folds it into the recorder's
                # registry, and (via the listener) rings + auto-dumps
                # the flight recorder.
                self.recorder.record(**row)
            else:
                observe_row(default_registry(), row)
                if self.flight is not None:
                    self.flight.note_row(row)
            row["fired_unix"] = alert.fired_unix
            with self._lock:
                self._alerts.append(row)

        slo_status = self.engine.status(now=now)
        if self.registry is not None:
            for entry in slo_status:
                labels = {"slo": entry["slo"]}
                self.registry.gauge(
                    "obs_slo_burn_rate",
                    "Current fast-window error-budget burn rate.",
                    labels=labels).set(entry["burn_rate"])
                self.registry.gauge(
                    "obs_slo_budget_remaining",
                    "Fraction of the error budget left.",
                    labels=labels).set(entry["budget_remaining"])

        if self.flight is not None:
            self.flight.note_sample({
                "unix": now,
                "queue_depth": self.store.level("serve_queue_depth"),
                "inflight": self.store.level("serve_inflight_requests"),
                "requests": self.store.level("serve_requests_total"),
                "workers": self.store.level("cluster_workers"),
            })

        if self.status_path is not None:
            self.write_status(now=now, slo_status=slo_status)
        return fired

    # ------------------------------------------------------------------ #
    # The status document (obs top / watch read this).

    def status_document(self, now: Optional[float] = None,
                        slo_status: Optional[List[dict]] = None) -> dict:
        now = time.time() if now is None else now
        snapshot = self.merged_snapshot()
        workers = self._workers_fn() if self._workers_fn else []
        return {
            "schema": STATUS_SCHEMA_VERSION,
            "process": self.process,
            "updated_unix": now,
            "interval_s": self.interval_s,
            "snapshot": snapshot,
            "tenants": tenant_table(snapshot),
            "workers": workers,
            "slos": (slo_status if slo_status is not None
                     else self.engine.status(now=now)),
            "alerts": self.alerts,
            "flight_bundles": [str(p) for p in self.flight.bundles]
            if self.flight else [],
        }

    def write_status(self, now: Optional[float] = None,
                     slo_status: Optional[List[dict]] = None) -> None:
        document = self.status_document(now=now, slo_status=slo_status)
        self.status_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.status_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(document))
        os.replace(tmp, self.status_path)

    # ------------------------------------------------------------------ #
    # Standalone mode (single-process server): background tick thread.

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()

        def _run():
            while not self._stop.wait(self.interval_s):
                try:
                    self.tick()
                except Exception:   # pragma: no cover - keep ticking
                    pass

        self._thread = threading.Thread(target=_run, daemon=True,
                                        name="obs-live")
        self._thread.start()

    def stop(self, final_tick: bool = True) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if final_tick:
            try:
                self.tick()
            except Exception:   # pragma: no cover - defensive
                pass
