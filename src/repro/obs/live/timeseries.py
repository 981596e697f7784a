"""Bounded in-memory time-series over metric snapshots.

The live pipeline's storage layer: every source (a cluster worker, the
router, or a single-process server) periodically contributes a full
cumulative :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` (a
cluster worker's arrives on every heartbeat ``pong``).  The store keeps
the latest snapshot per source and appends a point to a fixed-interval
ring buffer per series, bounded by ``horizon_s`` — memory is
O(sources x series x horizon/interval) regardless of run length.

Window queries subtract ring endpoints per source and sum across
sources, which is exactly right for cumulative counters and histogram
bucket counts (PromQL's ``increase()``); counter resets (a respawned
worker re-using a source name) clamp to the newer value instead of
going negative.  :class:`~repro.obs.live.slo.SLOEngine` drives its
burn-rate math entirely off these windows.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Optional[dict]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in (labels or {}).items()))


class _Ring:
    """Fixed-interval ring of (slot, value) points; same-slot pushes
    overwrite so the memory bound holds however fast a source reports."""

    __slots__ = ("interval_s", "_points")

    def __init__(self, interval_s: float, capacity: int):
        self.interval_s = max(1e-3, interval_s)
        self._points: deque = deque(maxlen=max(2, capacity))

    def push(self, now: float, value) -> None:
        slot = int(now / self.interval_s)
        if self._points and self._points[-1][0] == slot:
            self._points[-1] = (slot, value)
        else:
            self._points.append((slot, value))

    def latest(self):
        return self._points[-1][1] if self._points else None

    def at_or_before(self, t: float):
        """Newest value recorded at or before ``t`` — falls back to the
        oldest retained point so short histories still give a (partial)
        window rather than nothing."""
        if not self._points:
            return None
        slot = int(t / self.interval_s)
        best = None
        for point_slot, value in self._points:
            if point_slot <= slot:
                best = value
            else:
                break
        return best if best is not None else self._points[0][1]

    def oldest_unix(self) -> Optional[float]:
        if not self._points:
            return None
        return self._points[0][0] * self.interval_s


class TimeSeriesStore:
    """Per-source cumulative snapshots plus bounded per-series history."""

    def __init__(self, interval_s: float = 1.0, horizon_s: float = 3600.0):
        self.interval_s = interval_s
        self.horizon_s = horizon_s
        self._capacity = max(2, int(horizon_s / max(1e-3, interval_s)))
        self._lock = threading.Lock()
        self._cumulative: Dict[str, dict] = {}     # source -> snapshot
        self._rings: Dict[Tuple[str, str, LabelKey], _Ring] = {}

    # ------------------------------------------------------------------ #

    def ingest(self, source: str, snapshot: dict,
               now: Optional[float] = None) -> None:
        """Fold a full cumulative snapshot from ``source``."""
        now = time.time() if now is None else now
        with self._lock:
            self._cumulative[source] = snapshot
            for name, entry in snapshot.items():
                kind = entry.get("type", "gauge")
                for series in entry.get("series", ()):
                    key = (source, name, _labels_key(series.get("labels")))
                    ring = self._rings.get(key)
                    if ring is None:
                        ring = self._rings[key] = _Ring(self.interval_s,
                                                        self._capacity)
                    value = series.get("value")
                    if kind == "histogram" and isinstance(value, dict):
                        buckets = value.get("buckets") or {}
                        value = (value.get("count", 0),
                                 value.get("sum", 0.0),
                                 tuple(buckets.get("le", ())),
                                 tuple(buckets.get("counts", ())))
                    ring.push(now, value)

    def forget(self, source: str) -> None:
        """Drop a dead source's latest levels (its history stays until
        it ages out, so windows spanning its lifetime remain right)."""
        with self._lock:
            self._cumulative.pop(source, None)

    # ------------------------------------------------------------------ #

    def sources(self) -> List[str]:
        with self._lock:
            return sorted(self._cumulative)

    def snapshots(self) -> Dict[str, dict]:
        """Latest cumulative snapshot per live source."""
        with self._lock:
            return dict(self._cumulative)

    def history_span_s(self, now: Optional[float] = None) -> float:
        """Seconds of history actually retained (caps every window)."""
        now = time.time() if now is None else now
        with self._lock:
            oldest = [r.oldest_unix() for r in self._rings.values()]
        oldest = [t for t in oldest if t is not None]
        return max(0.0, now - min(oldest)) if oldest else 0.0

    def _matching(self, name: str, labels: Optional[dict]):
        want = _labels_key(labels) if labels is not None else None
        for (source, ring_name, key), ring in self._rings.items():
            if ring_name != name:
                continue
            if want is not None and key != want:
                continue
            yield ring

    def level(self, name: str, labels: Optional[dict] = None) -> float:
        """Latest value summed across live sources (gauge levels and
        cumulative counter totals alike)."""
        with self._lock:
            total = 0.0
            live = set(self._cumulative)
            for (source, ring_name, key), ring in self._rings.items():
                if ring_name != name or source not in live:
                    continue
                if labels is not None and key != _labels_key(labels):
                    continue
                value = ring.latest()
                if isinstance(value, tuple):
                    value = value[0]    # histogram ring: count
                if isinstance(value, (int, float)):
                    total += value
            return total

    def window_scalar(self, name: str, window_s: float,
                      labels: Optional[dict] = None,
                      now: Optional[float] = None) -> float:
        """Counter increase over the trailing window, summed across
        sources and (optionally) label sets."""
        now = time.time() if now is None else now
        start = now - window_s
        with self._lock:
            total = 0.0
            for ring in self._matching(name, labels):
                end_v = ring.latest()
                if not isinstance(end_v, (int, float)):
                    continue
                start_v = ring.at_or_before(start)
                if not isinstance(start_v, (int, float)):
                    start_v = 0.0
                delta = end_v - start_v
                total += end_v if delta < 0 else delta   # counter reset
            return total

    def window_hist(self, name: str, window_s: float,
                    labels: Optional[dict] = None,
                    now: Optional[float] = None) -> dict:
        """Histogram increase over the trailing window: event count,
        value sum, and per-bucket counts (summed across sources)."""
        now = time.time() if now is None else now
        start = now - window_s
        count, total = 0, 0.0
        le: Tuple[float, ...] = ()
        counts: List[float] = []
        with self._lock:
            for ring in self._matching(name, labels):
                end_v = ring.latest()
                if not isinstance(end_v, tuple):
                    continue
                start_v = ring.at_or_before(start)
                if not isinstance(start_v, tuple):
                    start_v = (0, 0.0, end_v[2], (0,) * len(end_v[3]))
                d_count = end_v[0] - start_v[0]
                if d_count < 0:    # reset: take the post-reset totals
                    start_v = (0, 0.0, end_v[2], (0,) * len(end_v[3]))
                    d_count = end_v[0]
                count += d_count
                total += end_v[1] - start_v[1]
                if end_v[2] and end_v[2] == start_v[2] \
                        and len(end_v[3]) == len(start_v[3]):
                    if not le:
                        le, counts = end_v[2], [0.0] * len(end_v[3])
                    if end_v[2] == le:
                        for i in range(len(counts)):
                            counts[i] += end_v[3][i] - start_v[3][i]
        return {"count": count, "sum": total,
                "le": list(le), "counts": counts}

    def good_fraction_le(self, name: str, threshold: float,
                         window_s: float,
                         now: Optional[float] = None) -> Optional[Tuple[float, int]]:
        """(fraction of events <= threshold, total events) over the
        window, from bucket counts — ``None`` when there were no events.
        A threshold between bucket bounds rounds *down* (conservative:
        overestimates the bad fraction, never hides a breach)."""
        window = self.window_hist(name, window_s, now=now)
        if window["count"] <= 0 or not window["le"]:
            return None
        good = 0.0
        for bound, bucket in zip(window["le"], window["counts"]):
            if bound <= threshold:
                good += bucket
        return good / window["count"], int(window["count"])
