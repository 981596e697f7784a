"""Flight recorder: bounded recent-history rings + post-mortem bundles.

Every process in the serving path (router, worker, single-process
server) keeps a bounded ring of the most recent journal rows and
periodic metric samples.  When something goes wrong — a worker death, an
SLO burn-rate page, a chip-failure recovery, a trust rejection — the
recorder dumps a **post-mortem bundle**: one self-contained JSON file
holding the rings plus a Chrome-trace snapshot of the most recent spans,
loadable directly in Perfetto/``chrome://tracing``.

Bundles are deduplicated per ``(trigger, key)`` — one worker death
produces exactly one bundle however many requests it orphaned — and
bounded in bytes: an oversized bundle sheds sim-event detail, then
halves its rings, rather than filling the disk during a crash loop.

Journal-row triggers arrive via :meth:`note_row` (wired as a
:meth:`~repro.runtime.trace.TraceRecorder.add_listener` tap), so the
resilience layer's ``recovery`` rows and the trust layer's rejection
rows trigger dumps without those layers knowing the recorder exists.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import List, Optional

from ..export import build_chrome_trace
from ..rows import TRUST_REJECTIONS
from ..tracing import tracer as _global_tracer

#: Bundle document version.
FLIGHT_SCHEMA_VERSION = 1


class _TracerView:
    """Duck-typed Tracer over a fixed span list, for the exporter."""

    def __init__(self, spans, epoch_s: float):
        self._spans = list(spans)
        self.epoch_s = epoch_s

    def spans(self, trace_id=None, kind=None):
        return self._spans


class FlightRecorder:
    """Bounded black box with crash-triggered dumps."""

    def __init__(self, out_dir, *, process: str = "proc",
                 row_capacity: int = 512, sample_capacity: int = 512,
                 span_limit: int = 256,
                 max_bundle_bytes: int = 4_000_000):
        self.out_dir = Path(out_dir)
        self.process = process
        self.span_limit = span_limit
        self.max_bundle_bytes = max_bundle_bytes
        self._rows: deque = deque(maxlen=row_capacity)
        self._samples: deque = deque(maxlen=sample_capacity)
        self._dumped: set = set()
        self._bundles: List[Path] = []
        self._seq = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Feeding the rings.

    def note_row(self, row: dict) -> None:
        """Ring a journal row; auto-dump on post-mortem-worthy kinds."""
        with self._lock:
            self._rows.append(dict(row))
        kind = row.get("kind")
        if kind == "recovery":
            self.dump("recovery", key=row.get("span_id")
                      or f"{row.get('job')}@{row.get('cycle')}")
        elif kind == "alert" and row.get("severity") == "page":
            self.dump("slo_breach",
                      key=f"{row.get('slo')}@{row.get('severity')}"
                          f"@{int(row.get('long_window_s') or 0)}")
        elif kind == "trust" and row.get("event") in TRUST_REJECTIONS:
            self.dump("trust_rejection",
                      key=f"{row.get('event')}@{row.get('target')}")

    def note_sample(self, sample: dict) -> None:
        """Ring one periodic metric sample (small scalar dict)."""
        with self._lock:
            self._samples.append(dict(sample))

    # ------------------------------------------------------------------ #

    @property
    def bundles(self) -> List[Path]:
        with self._lock:
            return list(self._bundles)

    def dump(self, trigger: str, key: Optional[str] = None,
             extra: Optional[dict] = None) -> Optional[Path]:
        """Write one post-mortem bundle; returns its path, or ``None``
        when this ``(trigger, key)`` already produced one."""
        with self._lock:
            dedup = (trigger, key)
            if key is not None and dedup in self._dumped:
                return None
            self._dumped.add(dedup)
            self._seq += 1
            seq = self._seq
            rows = list(self._rows)
            samples = list(self._samples)

        tr = _global_tracer()
        spans = tr.spans()[-self.span_limit:]
        document = {
            "schema": FLIGHT_SCHEMA_VERSION,
            "process": self.process,
            "trigger": trigger,
            "key": key,
            "created_unix": time.time(),
            "journal": rows,
            "samples": samples,
            "chrome_trace": build_chrome_trace(
                _TracerView(spans, tr.epoch_s)),
        }
        if extra:
            document["extra"] = dict(extra)

        encoded = self._bounded_encode(document, spans, tr.epoch_s)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        name = f"flight-{self.process}-{trigger}-{seq:03d}.json"
        path = self.out_dir / name
        tmp = path.with_suffix(".tmp")
        tmp.write_text(encoded)
        os.replace(tmp, path)
        with self._lock:
            self._bundles.append(path)
        return path

    def _bounded_encode(self, document: dict, spans,
                        epoch_s: float) -> str:
        """Serialize within ``max_bundle_bytes``: first drop simulated
        FU timelines (usually the bulk), then halve the rings until the
        bundle fits (floor: 16 rows/samples, 8 spans)."""
        encoded = json.dumps(document)
        if len(encoded) <= self.max_bundle_bytes:
            return encoded
        slim_spans = spans
        if any(getattr(s, "sim_events", None) for s in slim_spans):
            slim_spans = [_without_sim_events(s) for s in slim_spans]
            document["chrome_trace"] = build_chrome_trace(
                _TracerView(slim_spans, epoch_s))
            encoded = json.dumps(document)
        while len(encoded) > self.max_bundle_bytes:
            rows = document["journal"]
            samples = document["samples"]
            if len(rows) <= 16 and len(samples) <= 16 \
                    and len(slim_spans) <= 8:
                document["truncated"] = True
                break
            document["journal"] = rows[len(rows) // 2:]
            document["samples"] = samples[len(samples) // 2:]
            slim_spans = slim_spans[len(slim_spans) // 2:]
            document["chrome_trace"] = build_chrome_trace(
                _TracerView(slim_spans, epoch_s))
            document["truncated"] = True
            encoded = json.dumps(document)
        return encoded


def _without_sim_events(span):
    """A shallow copy of a span minus its per-FU cycle timeline."""
    from ..tracing import Span

    clone = Span(span.name, kind=span.kind, trace_id=span.trace_id,
                 parent_id=span.parent_id, attrs=dict(span.attrs),
                 start_s=span.start_s)
    clone.span_id = span.span_id
    clone.end_s = span.end_s
    clone.start_unix = span.start_unix
    clone.sim_cycles = span.sim_cycles
    return clone
