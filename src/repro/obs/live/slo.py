"""Declarative SLOs with multi-window burn-rate evaluation.

An :class:`SLO` states an objective over a stream of events — "99.9% of
requests complete within 250ms", "99.9% of requests succeed", "99% wait
less than 100ms in the admission queue".  The :class:`SLOEngine` turns
the :class:`~repro.obs.live.timeseries.TimeSeriesStore` windows into the
Google-SRE multi-window multi-burn-rate policy:

* **burn rate** = observed bad fraction / error budget (``1 -
  objective``).  Burn 1.0 spends the budget exactly over the compliance
  window; burn 14.4 over 1h spends a 30-day budget in ~2 days.
* An alert fires when **both** a long and a short window exceed the
  same burn threshold — the long window proves sustained impact, the
  short window proves it is *still* happening (fast reset once fixed):

  ========  ===========  ============  ==============
  severity  long window  short window  burn threshold
  ========  ===========  ============  ==============
  page      1h           5m            14.4
  page      6h           30m           6.0
  warn      24h          6h            3.0
  ========  ===========  ============  ==============

``window_scale`` compresses the canonical windows (tests and short
loadgen runs use e.g. ``1/60`` so "5m" means 5s); windows additionally
clamp to the history the store actually holds, so a deliberately tight
SLO fires within seconds of a real burn instead of needing an hour of
uptime first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..rows import ROW_KINDS, build_row
from .timeseries import TimeSeriesStore

#: (severity, long window s, short window s, burn-rate threshold).
BURN_WINDOWS: Tuple[Tuple[str, float, float, float], ...] = (
    ("page", 3600.0, 300.0, 14.4),
    ("page", 6 * 3600.0, 1800.0, 6.0),
    ("warn", 24 * 3600.0, 6 * 3600.0, 3.0),
)

#: Compliance window the error budget is stated over (30 days).
BUDGET_WINDOW_S = 30 * 24 * 3600.0

_KINDS = ("latency", "availability", "queue_wait")

#: Which metric series backs each SLO kind.
_KIND_METRICS = {
    "latency": ("histogram", "serve_request_latency_seconds"),
    "queue_wait": ("histogram", "serve_queue_wait_seconds"),
    "availability": ("counter", "serve_requests_total"),
}


@dataclass(frozen=True)
class SLO:
    """One objective: ``objective`` fraction of events must be good.

    ``threshold_s`` defines "good" for the latency kinds (event value <=
    threshold); availability counts any non-``ok`` terminal status as
    bad.  ``min_events`` gates evaluation so a two-request window can't
    page."""

    name: str
    kind: str                    # latency | availability | queue_wait
    objective: float             # e.g. 0.999
    threshold_s: float = 0.0
    min_events: int = 10

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r} "
                             f"(want one of {_KINDS})")
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be a fraction in (0, 1)")
        if self.kind != "availability" and self.threshold_s <= 0:
            raise ValueError(f"{self.kind} SLO needs a threshold")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective

    def describe(self) -> str:
        if self.kind == "availability":
            return f"{self.objective * 100:g}% of requests succeed"
        noun = ("complete within" if self.kind == "latency"
                else "wait at most")
        return (f"{self.objective * 100:g}% of requests {noun} "
                f"{self.threshold_s * 1e3:g}ms")

    @classmethod
    def parse(cls, spec: str, min_events: int = 10) -> "SLO":
        """Parse the CLI/config grammar::

            latency:<threshold_s>:<objective_pct>[:<name>]
            queue_wait:<threshold_s>:<objective_pct>[:<name>]
            availability:<objective_pct>[:<name>]

        e.g. ``latency:0.25:99.9`` — 99.9% of requests within 250ms.
        """
        parts = spec.split(":")
        kind = parts[0].strip()
        if kind == "availability":
            if len(parts) < 2:
                raise ValueError(f"bad SLO spec {spec!r}")
            objective = float(parts[1]) / 100.0
            name = parts[2] if len(parts) > 2 else "availability"
            return cls(name=name, kind=kind, objective=objective,
                       min_events=min_events)
        if kind in ("latency", "queue_wait"):
            if len(parts) < 3:
                raise ValueError(f"bad SLO spec {spec!r}")
            threshold = float(parts[1])
            objective = float(parts[2]) / 100.0
            pct = parts[2].strip()
            if "." in pct:
                pct = pct.rstrip("0").rstrip(".")
            name = parts[3] if len(parts) > 3 else f"{kind}-p{pct}"
            return cls(name=name, kind=kind, objective=objective,
                       threshold_s=threshold, min_events=min_events)
        raise ValueError(f"unknown SLO kind in spec {spec!r}")


@dataclass
class Alert:
    """One fired burn-rate rule — becomes a ``kind:"alert"`` journal row."""

    slo: str
    severity: str
    burn_rate: float
    long_window_s: float
    short_window_s: float
    bad_fraction: float
    objective: float
    threshold: float
    fired_unix: float = field(default_factory=time.time)
    message: str = ""

    def as_row(self) -> dict:
        return build_row("alert", {name: getattr(self, name) for name
                                   in ROW_KINDS["alert"].fields})


class SLOEngine:
    """Evaluates every SLO against the store on each tick."""

    def __init__(self, slos: List[SLO], store: TimeSeriesStore,
                 window_scale: float = 1.0, cooldown_s: float = 60.0):
        self.slos = list(slos)
        self.store = store
        self.window_scale = window_scale
        self.cooldown_s = cooldown_s
        self._last_fired: Dict[Tuple[str, str], float] = {}

    # ------------------------------------------------------------------ #

    def _bad_fraction(self, slo: SLO, window_s: float,
                      now: float) -> Optional[Tuple[float, int]]:
        """(bad fraction, events) over the trailing window, or ``None``
        when the window holds no events."""
        kind, metric = _KIND_METRICS[slo.kind]
        if kind == "histogram":
            good = self.store.good_fraction_le(
                metric, slo.threshold_s, window_s, now=now)
            if good is None:
                return None
            fraction, events = good
            return 1.0 - fraction, events
        total = self.store.window_scalar(metric, window_s, now=now)
        if total <= 0:
            return None
        ok = self.store.window_scalar(metric, window_s,
                                      labels={"status": "ok"}, now=now)
        return max(0.0, total - ok) / total, int(total)

    def _burn(self, slo: SLO, window_s: float,
              now: float) -> Optional[Tuple[float, float, int]]:
        """(burn rate, bad fraction, events) over the window."""
        bad = self._bad_fraction(slo, window_s, now)
        if bad is None:
            return None
        fraction, events = bad
        return fraction / slo.error_budget, fraction, events

    # ------------------------------------------------------------------ #

    def evaluate(self, now: Optional[float] = None) -> List[Alert]:
        """One tick: fire at most one alert per SLO (the most severe
        rule that matched), honoring the per-rule cooldown."""
        now = time.time() if now is None else now
        fired: List[Alert] = []
        for slo in self.slos:
            for severity, long_w, short_w, threshold in BURN_WINDOWS:
                long_s = long_w * self.window_scale
                short_s = short_w * self.window_scale
                long_burn = self._burn(slo, long_s, now)
                short_burn = self._burn(slo, short_s, now)
                if long_burn is None or short_burn is None:
                    continue
                if long_burn[2] < slo.min_events:
                    continue
                if long_burn[0] <= threshold or short_burn[0] <= threshold:
                    continue
                key = (slo.name, severity)
                last = self._last_fired.get(key)
                if last is not None and now - last < self.cooldown_s:
                    break   # still burning, still suppressed
                self._last_fired[key] = now
                fired.append(Alert(
                    slo=slo.name, severity=severity,
                    burn_rate=long_burn[0],
                    long_window_s=long_s, short_window_s=short_s,
                    bad_fraction=long_burn[1], objective=slo.objective,
                    threshold=slo.threshold_s, fired_unix=now,
                    message=(f"{slo.describe()}: burn {long_burn[0]:.1f}x "
                             f"budget over {long_s:g}s "
                             f"(and {short_burn[0]:.1f}x over "
                             f"{short_s:g}s)")))
                break   # most severe rule wins; skip milder ones
        return fired

    def status(self, now: Optional[float] = None) -> List[dict]:
        """Per-SLO dashboard rows: current fast-window burn, bad
        fraction, and error budget remaining over the retained history."""
        now = time.time() if now is None else now
        rows = []
        for slo in self.slos:
            fast = self._burn(slo, BURN_WINDOWS[0][1] * self.window_scale,
                              now)
            span = min(BUDGET_WINDOW_S * self.window_scale,
                       max(self.store.history_span_s(now),
                           self.store.interval_s))
            overall = self._burn(slo, span, now)
            consumed = 0.0
            if overall is not None:
                consumed = min(1.0, overall[1] / slo.error_budget)
            rows.append({
                "slo": slo.name,
                "kind": slo.kind,
                "objective": slo.objective,
                "threshold_s": slo.threshold_s,
                "describe": slo.describe(),
                "events": overall[2] if overall else 0,
                "bad_fraction": overall[1] if overall else 0.0,
                "burn_rate": fast[0] if fast else 0.0,
                "budget_remaining": 1.0 - consumed,
            })
        return rows
