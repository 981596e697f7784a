"""repro.obs — cross-layer observability for the whole stack.

One ``trace_id`` follows a request from serve admission through the
admission queue, the adaptive batcher, the compile pipeline (one child
span per compiler pass), the content-addressed cache and the
cycle-accurate simulator (with an optional per-functional-unit
timeline).  A degrade-ladder descent opens no span of its own: the next
attempt is another ``execute`` span, and the ``recovery`` row joins the
same trace.  Three consumers:

* :func:`export_chrome_trace` — one merged Perfetto-loadable timeline;
* ``python -m repro.obs journal.json`` — per-request critical paths,
  utilization summaries, invariant checks, Prometheus textfile dumps,
  all from the trace journal alone;
* :func:`default_registry` — the process-wide metrics registry every
  layer (serve, runtime, cache, tune) reports into.

Tracing is off by default and costs one ``if`` per span site when
disabled; ``repro.obs.enable()`` switches it on for the process.
"""

from __future__ import annotations

from .analyze import (breakdown, check, group_by_trace, load_journal,
                      registry_from_journal, render_report, trace_table,
                      utilization_summary)
from .export import build_chrome_trace, export_chrome_trace
from .metrics import (CYCLE_BUCKETS, Counter, DEFAULT_BUCKETS, Gauge,
                      Histogram, MetricsRegistry, default_registry,
                      render_snapshot_prometheus)
from .tracing import (NULL_SPAN, Span, Tracer, current_span, disable,
                      enable, enabled, start_span, tracer)

__all__ = [
    "CYCLE_BUCKETS",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "breakdown",
    "build_chrome_trace",
    "check",
    "current_span",
    "default_registry",
    "disable",
    "enable",
    "enabled",
    "export_chrome_trace",
    "group_by_trace",
    "load_journal",
    "registry_from_journal",
    "render_report",
    "render_snapshot_prometheus",
    "start_span",
    "trace_table",
    "tracer",
    "utilization_summary",
]
