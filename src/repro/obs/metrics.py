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
* :meth:`MetricsRegistry.snapshot` — one JSON-serializable dict, the
  artifact the CI smoke job uploads.
"""

from __future__ import annotations

import json
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


def _labels_text(key: LabelSet, extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def quantile_from_sorted(samples: List[float], q: float) -> Optional[float]:
    """Quantile of a *sorted* sample list — the one nearest-rank formula
    shared by :meth:`Histogram.quantile`, the cluster merge, and the live
    time-series windows, so single-process and merged values agree."""
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

    def expose(self) -> List[str]:
        return [f"{self.name}{_labels_text(self.labels)} {self.value:g}"]

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

    def expose(self) -> List[str]:
        return [f"{self.name}{_labels_text(self.labels)} {self.value:g}"]

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

    def expose(self) -> List[str]:
        with self._lock:
            lines, cumulative = [], 0
            for bound, bucket_count in zip(self.buckets, self._counts):
                cumulative += bucket_count
                le = f'le="{bound:g}"'
                lines.append(
                    f"{self.name}_bucket{_labels_text(self.labels, le)} "
                    f"{cumulative}")
            cumulative += self._counts[-1]
            inf = 'le="+Inf"'
            lines.append(
                f"{self.name}_bucket{_labels_text(self.labels, inf)} "
                f"{cumulative}")
            lines.append(
                f"{self.name}_sum{_labels_text(self.labels)} {self._sum:g}")
            lines.append(
                f"{self.name}_count{_labels_text(self.labels)} {self._count}")
            return lines

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
        lines, seen = [], set()
        for (name, _), metric in ordered:
            if name not in seen:
                seen.add(name)
                kind, help_text = help_map[name]
                if help_text:
                    lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")
            lines.extend(metric.expose())
        return "\n".join(lines) + "\n"

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
#: The row -> series fold (:mod:`repro.obs.rows`) and the ``obs top``
#: tenant table both read this one table.
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

