"""Merging per-worker metrics into one cluster view.

Each worker process owns its own :class:`~repro.obs.metrics.MetricsRegistry`;
every heartbeat ``pong`` carries its ``snapshot()`` dict to the router,
which folds them together:

* **counters** — summed per (name, labels) series;
* **gauges** — summed (queue depths, inflight counts: the cluster value
  of a worker-local level *is* the sum);
* **histograms** — ``count``/``sum``/``max`` merge exactly; ``mean`` is
  recomputed from the merged sum/count; bucket counts sum elementwise
  when every side shares the same bounds.  Quantiles merge **exactly**
  when every contributing side still carries its complete reservoir in
  the snapshot (``"samples"``, present while ``count`` ≤
  :data:`~repro.obs.metrics.SNAPSHOT_SAMPLES_MAX`): the reservoirs are
  concatenated and re-ranked, flagged ``"quantiles": "exact"`` — so
  small-N cluster p99s match the single-process value.  Larger
  histograms fall back to count-weighted averages of the per-worker
  quantiles (an approximation, flagged ``"quantiles": "weighted"``).

Journal rows need no merge step:
:meth:`repro.runtime.trace.TraceRecorder.absorb` appends a worker's rows
to the router's journal as they arrive.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import SNAPSHOT_SAMPLES_MAX, quantile_from_sorted

_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def _series_key(labels: dict) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def merge_histogram_values(values: List[dict]) -> dict:
    """Fold N worker-side histogram snapshots into one."""
    count = sum(v.get("count", 0) for v in values)
    total = sum(v.get("sum", 0.0) for v in values)
    merged = {
        "count": count,
        "sum": total,
        "mean": total / count if count else 0.0,
        "max": max((v.get("max", 0.0) for v in values), default=0.0),
    }
    contributing = [v for v in values if v.get("count", 0) > 0]

    bounds = {tuple(v.get("buckets", {}).get("le", ()))
              for v in contributing}
    if contributing and len(bounds) == 1 and all(
            v.get("buckets", {}).get("counts") for v in contributing):
        le = list(bounds.pop())
        width = len(le) + 1   # +inf tail
        counts = [0] * width
        if all(len(v["buckets"]["counts"]) == width for v in contributing):
            for v in contributing:
                for i, c in enumerate(v["buckets"]["counts"]):
                    counts[i] += c
            merged["buckets"] = {"le": le, "counts": counts}

    samples: List[float] = []
    exact = bool(contributing)
    for v in contributing:
        carried = v.get("samples")
        if carried is None or len(carried) != v.get("count", 0):
            exact = False
            break
        samples.extend(carried)
    if exact:
        samples.sort()
        merged["quantiles"] = "exact"
        for q, frac in _QUANTILES:
            merged[q] = quantile_from_sorted(samples, frac)
        if len(samples) <= SNAPSHOT_SAMPLES_MAX:
            merged["samples"] = samples   # keep nested merges exact too
    else:
        merged["quantiles"] = "weighted"
        for q, _ in _QUANTILES:
            weighted = [(v.get("count", 0), v[q]) for v in contributing
                        if v.get(q) is not None]
            weight = sum(c for c, _ in weighted)
            merged[q] = (sum(c * x for c, x in weighted) / weight
                         if weight else None)
    return merged


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge :meth:`MetricsRegistry.snapshot` dicts into one cluster
    snapshot of the same shape."""
    acc: Dict[str, dict] = {}
    for snapshot in snapshots:
        if not snapshot:
            continue
        for name, entry in snapshot.items():
            kind = entry.get("type", "gauge")
            slot = acc.setdefault(name, {"type": kind, "series": {}})
            for series in entry.get("series", ()):
                labels = series.get("labels", {})
                slot["series"].setdefault(
                    _series_key(labels),
                    {"labels": dict(labels), "values": []},
                )["values"].append(series.get("value"))
    out: Dict[str, dict] = {}
    for name, entry in acc.items():
        kind = entry["type"]
        merged_series = []
        for bucket in entry["series"].values():
            values = [v for v in bucket["values"] if v is not None]
            if kind == "histogram":
                value = merge_histogram_values(
                    [v for v in values if isinstance(v, dict)])
            else:  # counter and gauge both sum across processes
                value = float(sum(values))
            merged_series.append({"labels": bucket["labels"],
                                  "value": value})
        out[name] = {"type": kind, "series": merged_series}
    return out


def merged_scalar(snapshot: dict, name: str,
                  labels: Optional[dict] = None) -> float:
    """Convenience: one counter/gauge value out of a merged snapshot
    (summed across label sets when ``labels`` is ``None``)."""
    entry = snapshot.get(name)
    if not entry:
        return 0.0
    want = _series_key(labels) if labels is not None else None
    total = 0.0
    for series in entry.get("series", ()):
        if want is not None and _series_key(series["labels"]) != want:
            continue
        value = series.get("value")
        if isinstance(value, (int, float)):
            total += value
    return total
