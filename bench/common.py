"""Shared pieces of the workloads: run configuration, failure accounting,
and the few statistics the benchmark reports."""

from __future__ import annotations

import math
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from .spans import SpanRecorder


@dataclass
class RunConfig:
    seed: int
    #: Length of the timed section.  Ignored when ``fixed`` is set.
    seconds: float
    #: Traced run: spans on, reduced counts, per-layer metrics.
    trace: bool
    #: ``--quick``: one round / 60 requests per phase, smallest programs.
    quick: bool
    #: Scratch directory inside the checkout (caches, spans, temp files).
    work_dir: Path
    recorder: SpanRecorder = field(default_factory=lambda: SpanRecorder(False))

    #: Set-up-only child: do every set-up phase, measure nothing.
    setup_only: bool = False

    @property
    def fixed(self) -> bool:
        """Counts fixed in advance (one round) instead of by ``seconds``."""
        return self.quick or self.trace


class SetupClock:
    """Accumulates set-up time.  The first phase is charged from process
    start, so interpreter start-up and imports count as set-up; later
    phases (a second front-end built after the first was measured) add
    their own duration."""

    def __init__(self, process_started: float):
        self.total = 0.0
        self._mark: Optional[float] = process_started

    @contextmanager
    def phase(self):
        start = self._mark if self._mark is not None else time.perf_counter()
        self._mark = None
        try:
            yield
        finally:
            self.total += time.perf_counter() - start


@dataclass
class Tally:
    """Operations attempted and failed; a failed check fails its operation."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def op(self, problem: Optional[str]) -> None:
        """Count one operation; ``problem`` is None when it was correct."""
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(problem)


@dataclass
class Outcome:
    """What one workload run measured."""

    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    #: Operations per second over the timed section (batch workloads).
    ops_per_s: float = 0.0
    #: Sample counts behind the medians and percentiles.
    counts: Dict[str, int] = field(default_factory=dict)
    #: Ungated facts worth keeping with the result (digests, per-pair rows).
    detail: dict = field(default_factory=dict)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return float(ordered[rank])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
