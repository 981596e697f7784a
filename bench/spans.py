"""In-memory spans recorded by the benchmark around its calls into each layer.

A span is ``{name, layer, start, end, parent, request_id}``; ``parent`` is
the index of the enclosing span (``None`` for a root).  Spans live in a
list until :meth:`SpanRecorder.write` dumps them once at exit.  A span's
*self time* is its duration minus the part of it its children cover, so
the self times under one root sum to that root's duration.

Timed end-to-end runs use a disabled recorder, whose ``span()`` does
nothing; only the traced run pays for span bookkeeping.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class SpanRecorder:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._current = threading.local()

    def add(self, name: str, layer: str, start: float, end: float,
            parent: Optional[int] = None,
            request_id: Optional[int] = None) -> Optional[int]:
        """Record a finished span (used for intervals a layer reports
        after the fact); returns its index."""
        if not self.enabled:
            return None
        span = {"name": name, "layer": layer, "start": start, "end": end,
                "parent": parent, "request_id": request_id}
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, layer: str,
             request_id: Optional[int] = None):
        """Time the enclosed block as a child of this thread's open span."""
        if not self.enabled:
            yield None
            return
        parent = getattr(self._current, "index", None)
        if request_id is None and parent is not None:
            request_id = self.spans[parent]["request_id"]
        index = self.add(name, layer, time.perf_counter(), 0.0, parent,
                         request_id)
        self._current.index = index
        try:
            yield index
        finally:
            self.spans[index]["end"] = time.perf_counter()
            self._current.index = parent

    # ------------------------------------------------------------------ #

    def self_times(self) -> List[float]:
        """Per-span self time: duration minus the union of its children's
        intervals (clipped to the span)."""
        children: Dict[int, List[dict]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        out = []
        for index, span in enumerate(self.spans):
            covered, edge = 0.0, span["start"]
            for child in sorted(children.get(index, ()),
                                key=lambda c: c["start"]):
                lo = max(edge, child["start"])
                hi = min(span["end"], child["end"])
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out.append(span["end"] - span["start"] - covered)
        return out

    def self_by_layer(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            totals[span["layer"]] = totals.get(span["layer"], 0.0) + own
        return totals

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans,
                       "self_s_by_layer": self.self_by_layer()}, handle)
