"""repro.obs.live — continuous telemetry for the serving path.

Post-hoc journals (:mod:`repro.obs.analyze`) answer "what happened";
this package answers "what is happening": a bounded in-memory
time-series store fed by per-worker cumulative snapshots
(:mod:`.timeseries`), a Google-SRE multi-window burn-rate SLO engine
(:mod:`.slo`), a crash-triggered flight recorder (:mod:`.flight`), and
the :class:`~repro.obs.live.pipeline.LivePipeline` that ties them to a
router or server and feeds ``python -m repro.obs top`` / ``watch``.
"""

from .flight import FLIGHT_SCHEMA_VERSION, FlightRecorder
from .pipeline import (LivePipeline, STATUS_SCHEMA_VERSION,
                       render_snapshot_prometheus, tenant_table)
from .slo import Alert, BURN_WINDOWS, SLO, SLOEngine
from .timeseries import TimeSeriesStore

__all__ = [
    "Alert",
    "BURN_WINDOWS",
    "FLIGHT_SCHEMA_VERSION",
    "FlightRecorder",
    "LivePipeline",
    "SLO",
    "SLOEngine",
    "STATUS_SCHEMA_VERSION",
    "TimeSeriesStore",
    "render_snapshot_prometheus",
    "tenant_table",
]
