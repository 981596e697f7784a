"""One merged Chrome-trace timeline: serve spans down to simulated FUs.

The exporter folds three very different clocks into a single
Perfetto-loadable file:

* **Wall-clock spans** (serve / queue / batch / execute / compile /
  cache / pass / simulate / recovery) — one track per request on the
  ``repro wall-clock`` process, nested as recorded;
* **Compiler pass children** — already wall-clock (synthesized from
  ``CompileStats`` timings), they land inside their compile span;
* **Simulated per-FU cycle timelines** — each ``simulate`` span that
  captured a :class:`~repro.sim.trace.TraceEvent` list gets its own
  process (``pid >= 1000``) with one thread per ``chip/lane``; cycle
  timestamps are *scaled onto the wall-clock interval of the enclosing
  span* (``scale = span_duration_us / simulated_cycles``), so zooming
  into a request's simulate slice reveals what the NTTs, base-conversion
  units, and HBM were doing during exactly that wall-clock window.

All timestamps are microseconds relative to the tracer's epoch, which
the Chrome trace-event format expects.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .tracing import Tracer, tracer as _global_tracer

#: Process id of the wall-clock span tracks.
WALL_PID = 1
#: First process id handed to per-simulate-span FU timelines.
SIM_PID_BASE = 1000

_ARG_TYPES = (str, int, float, bool)


def _request_tracks(spans) -> Dict[str, str]:
    """Name each trace's track after its root span (the serve span for
    served requests, the first parentless span otherwise)."""
    track: Dict[str, str] = {}
    for span in spans:
        if span.parent_id is None and span.trace_id not in track:
            rid = span.attrs.get("request_id")
            if rid is not None:
                track[span.trace_id] = f"req-{rid} {span.name}"
            else:
                track[span.trace_id] = f"{span.name} [{span.trace_id[:8]}]"
    return track


def fu_event_record(event, *, pid: int, origin_us: float,
                    us_per_cycle: float, **args) -> dict:
    """One simulated :class:`~repro.sim.trace.TraceEvent` as a Chrome
    ``"X"`` record: ``pid`` is the simulate span's process, threads are
    ``chip/lane`` and cycles are scaled onto the span's wall-clock
    window."""
    return {
        "name": event.name, "ph": "X", "cat": "isa",
        "ts": round(origin_us + event.start * us_per_cycle, 3),
        "dur": round(max(1, event.duration * us_per_cycle), 3),
        "pid": pid, "tid": f"chip{event.chip}/{event.lane}",
        "args": dict(args, cycles=event.duration),
    }


def build_chrome_trace(tr: Optional[Tracer] = None) -> dict:
    """The merged trace document (``{"traceEvents": [...]}``) for every
    span the tracer has collected."""
    tr = tr or _global_tracer()
    spans = tr.spans()
    records: List[dict] = [{
        "ph": "M", "pid": WALL_PID, "name": "process_name",
        "args": {"name": "repro wall-clock"},
    }]
    track = _request_tracks(spans)
    sim_pid = SIM_PID_BASE
    for span in spans:
        tid = track.get(span.trace_id, f"trace-{span.trace_id[:8]}")
        ts = (span.start_s - tr.epoch_s) * 1e6
        dur = max(1.0, span.duration_s * 1e6)
        args = {"trace_id": span.trace_id, "span_id": span.span_id,
                "kind": span.kind}
        args.update({k: v for k, v in span.attrs.items()
                     if isinstance(v, _ARG_TYPES)})
        records.append({
            "name": span.name, "ph": "X", "cat": span.kind,
            "ts": round(ts, 3), "dur": round(dur, 3),
            "pid": WALL_PID, "tid": tid, "args": args,
        })
        if span.sim_events:
            # Scale simulated cycles onto the span's wall-clock window.
            scale = dur / max(1, span.sim_cycles)
            records.append({
                "ph": "M", "pid": sim_pid, "name": "process_name",
                "args": {"name": f"sim {span.name} "
                                 f"[{span.trace_id[:8]}]"},
            })
            records.extend(
                fu_event_record(event, pid=sim_pid, origin_us=ts,
                                us_per_cycle=scale,
                                trace_id=span.trace_id,
                                span_id=span.span_id)
                for event in span.sim_events)
            sim_pid += 1
    return {"traceEvents": records, "displayTimeUnit": "ms"}


def export_chrome_trace(path: str, tr: Optional[Tracer] = None) -> int:
    """Write the merged timeline to ``path``; returns the event count."""
    document = build_chrome_trace(tr)
    with open(path, "w") as handle:
        json.dump(document, handle)
    return len(document["traceEvents"])
