"""Unified counter/gauge/histogram metrics for the whole stack.

A tiny, dependency-free registry in the Prometheus data model: counters
only go up, gauges float, histograms keep cumulative buckets *plus* a
bounded reservoir so the snapshot can report exact-ish p50/p95/p99
quantiles (Prometheus proper computes those server-side; a self-contained
loadgen report needs them locally).

This is the process-wide home of the registry: serving, runtime, cache,
tuning, and recovery metrics all land in the same scrape
(:func:`default_registry`).

Two exports:

* :meth:`MetricsRegistry.render_prometheus` — text exposition format
  (``# HELP`` / ``# TYPE`` / ``name{label="v"} value``), scrapeable;
  :func:`render_snapshot_prometheus` writes the same format from a
  snapshot (a cluster's merged view);
* :meth:`MetricsRegistry.snapshot` — one JSON-serializable dict, the
  artifact the CI smoke job uploads.
"""

from __future__ import annotations

import json
import math
import random
import threading
from bisect import bisect_left, insort
from typing import Dict, Iterable, List, Optional, Tuple

#: Default histogram buckets, in seconds — spans sub-ms queue waits to
#: multi-minute paper-scale bootstrap compiles.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                   1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)

#: Buckets for simulated-cycle histograms (1K cycles to 1G cycles).
CYCLE_BUCKETS = (1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9)

#: Reservoir size per histogram; beyond this, uniform replacement keeps
#: the sample representative without unbounded memory.
RESERVOIR_SIZE = 4096

#: Snapshots carry the raw reservoir only while it is still *exact*
#: (every observation is in it) and small enough for the wire; beyond
#: this the cluster merge falls back to count-weighted quantiles.
SNAPSHOT_SAMPLES_MAX = 512

LabelSet = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Optional[dict]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in (labels or {}).items()))


def _value_text(value: float) -> str:
    """A sample value (or bucket bound) exactly: integral values as
    integers, other floats by ``repr`` (shortest round-trip form)."""
    if isinstance(value, int):
        return str(int(value))
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return str(int(value)) if value.is_integer() else repr(value)


def _escape(value: str) -> str:
    """A label value escaped as the text format requires."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _labels_text(key: LabelSet, le: Optional[str] = None) -> str:
    parts = [f'{k}="{_escape(v)}"' for k, v in key]
    if le is not None:
        parts.append(f'le="{le}"')
    return "{" + ",".join(parts) + "}" if parts else ""


def _sample_lines(name: str, labels: LabelSet, value) -> List[str]:
    """Exposition lines of one series: a counter/gauge number, or a
    histogram's snapshot value (per-bucket counts made cumulative)."""
    if not isinstance(value, dict):
        return [f"{name}{_labels_text(labels)} {_value_text(value)}"]
    buckets = value.get("buckets") or {}
    lines, cumulative = [], 0
    for bound, count in zip(buckets.get("le", ()), buckets.get("counts", ())):
        cumulative += count
        le = _value_text(bound)
        lines.append(f"{name}_bucket{_labels_text(labels, le)} "
                     f"{_value_text(cumulative)}")
    count = _value_text(value.get("count", 0))
    return lines + [
        f"{name}_bucket{_labels_text(labels, '+Inf')} {count}",
        f"{name}_sum{_labels_text(labels)} "
        f"{_value_text(value.get('sum', 0.0))}",
        f"{name}_count{_labels_text(labels)} {count}",
    ]


def _render(families) -> str:
    """One scrape body from ``(name, kind, help, [(labels, value)])``."""
    lines: List[str] = []
    for name, kind, help_text, series in families:
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in series:
            lines.extend(_sample_lines(name, labels, value))
    return "\n".join(lines) + "\n"


def render_snapshot_prometheus(snapshot: dict) -> str:
    """Prometheus text exposition of a (merged) snapshot dict, for
    series that only exist post-merge (a cluster's worker families)."""
    return _render(
        (name, entry.get("type", "gauge"), "",
         [(_labels_key(series.get("labels")), series["value"])
          for series in entry.get("series", ())
          if isinstance(series.get("value"), (dict, int, float))])
        for name, entry in sorted(snapshot.items()))


def quantile_from_sorted(samples: List[float], q: float) -> Optional[float]:
    """Quantile of a *sorted* sample list — the one nearest-rank formula
    shared by :meth:`Histogram.quantile` and the cluster merge, so
    single-process and merged values agree."""
    if not samples:
        return None
    if len(samples) == 1:
        return samples[0]
    idx = min(len(samples) - 1, int(q * (len(samples) - 1) + 0.5))
    return samples[idx]


class Counter:
    """Monotonic counter."""

    kind = "counter"

    def __init__(self, name: str, help: str, labels: LabelSet):
        self.name, self.help, self.labels = name, help, labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot_value(self):
        return self.value


class Gauge:
    """Point-in-time value."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labels: LabelSet):
        self.name, self.help, self.labels = name, help, labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot_value(self):
        return self.value


class Histogram:
    """Cumulative-bucket histogram with a quantile reservoir."""

    kind = "histogram"

    def __init__(self, name: str, help: str, labels: LabelSet,
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        self.name, self.help, self.labels = name, help, labels
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # +inf tail
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._reservoir: List[float] = []   # kept sorted for quantiles
        self._rng = random.Random(0x5e12e)  # deterministic replacement
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._counts[bisect_left(self.buckets, value)] += 1
            self._count += 1
            self._sum += value
            self._max = max(self._max, value)
            if len(self._reservoir) < RESERVOIR_SIZE:
                insort(self._reservoir, value)
            else:
                slot = self._rng.randrange(self._count)
                if slot < RESERVOIR_SIZE:
                    del self._reservoir[self._rng.randrange(RESERVOIR_SIZE)]
                    insort(self._reservoir, value)

    def quantile(self, q: float) -> Optional[float]:
        """Quantile estimate from the reservoir.

        An empty reservoir has no quantiles — ``None``, not a misleading
        0.0; a single-sample reservoir returns that sample for every q.
        """
        with self._lock:
            return quantile_from_sorted(self._reservoir, q)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot_value(self) -> dict:
        with self._lock:
            count, total = self._count, self._sum
            maximum = self._max
            counts = list(self._counts)
            samples = (list(self._reservoir)
                       if 0 < count <= SNAPSHOT_SAMPLES_MAX else None)
        value = {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "max": maximum,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": {"le": list(self.buckets), "counts": counts},
        }
        if samples is not None:
            value["samples"] = samples
        return value


class MetricsRegistry:
    """Get-or-create registry of named (and optionally labeled) series."""

    def __init__(self):
        self._metrics: Dict[Tuple[str, LabelSet], object] = {}
        self._help: Dict[str, Tuple[str, str]] = {}  # name -> (kind, help)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #

    def _get_or_create(self, cls, name: str, help: str,
                       labels: Optional[dict], **kwargs):
        key = (name, _labels_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                declared = self._help.setdefault(name, (cls.kind, help))
                if declared[0] != cls.kind:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{declared[0]}, not {cls.kind}")
                metric = cls(name, help or declared[1], key[1], **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise ValueError(f"metric {name!r} is not a {cls.kind}")
            return metric

    def counter(self, name: str, help: str = "",
                labels: Optional[dict] = None) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Optional[dict] = None) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Optional[dict] = None,
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   buckets=buckets)

    # ------------------------------------------------------------------ #

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (one scrape body)."""
        with self._lock:
            ordered = sorted(self._metrics.items())
            help_map = dict(self._help)
        families: Dict[str, list] = {}
        for (name, labels), metric in ordered:
            families.setdefault(name, []).append(
                (labels, metric.snapshot_value()))
        return _render((name, *help_map[name], series)
                       for name, series in families.items())

    def snapshot(self) -> dict:
        """JSON-serializable state of every series."""
        with self._lock:
            ordered = sorted(self._metrics.items())
        out: dict = {}
        for (name, labels), metric in ordered:
            entry = out.setdefault(name, {"type": metric.kind, "series": []})
            entry["series"].append({
                "labels": dict(labels),
                "value": metric.snapshot_value(),
            })
        return out

    def snapshot_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=False)


# ---------------------------------------------------------------------- #
# The process-global default registry.

_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry a session's journal rows are folded
    into (a serving front-end folds the rows it records into its own
    registry so tests stay isolated; pass ``metrics=default_registry()``
    to merge them)."""
    return _DEFAULT_REGISTRY


# ---------------------------------------------------------------------- #
# Per-tenant cost attribution (trace schema 8).

#: ``(family, cost field, help)`` — one row per field of the
#: :func:`repro.serve.request.cost_rollup` a request's tenant is billed.
#: The row -> series fold (:mod:`repro.obs.rows`) reads this table.
TENANT_COST_FAMILIES = (
    ("cluster_tenant_sim_cycles_total", "sim_cycles",
     "Simulated accelerator cycles billed to the tenant."),
    ("cluster_tenant_bootstraps_total", "bootstraps",
     "Bootstrap operations billed to the tenant."),
    ("cluster_tenant_bytes_total", "bytes",
     "HBM + network bytes moved for the tenant."),
    ("cluster_tenant_compile_seconds_total", "compile_s",
     "Compile wall seconds billed (cache misses only)."),
)

