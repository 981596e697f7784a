"""Execution trace export for the cycle simulator.

``TracingSimulator.timeline`` runs the engine with a recording sink: every
functional-unit, HBM and network-link reservation the run makes becomes a
:class:`TraceEvent`, so the timeline and the cycle / utilization numbers of
a :class:`~repro.sim.simulator.SimulationResult` come from the same
schedule.

A traced :class:`~repro.runtime.CinnamonSession` does not run twice: it
hands :func:`recording_sink` to the run whose result it returns and
stores the events on its ``simulate`` span, and
:func:`repro.obs.export_chrome_trace` writes them as Chrome trace-event
JSON (load in ``chrome://tracing`` or Perfetto): one row per chip and
unit, showing exactly how NTTs, base conversions, HBM transfers, and
collectives overlap — the visual counterpart of the utilization numbers
in Figure 15.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .simulator import SimulatorEngine


@dataclass
class TraceEvent:
    chip: int
    lane: str       # FU class, "hbm", or "network"
    name: str
    start: int      # cycles
    duration: int


class _TimelineFull(Exception):
    """Every chip has reached its event limit: stop the run."""


def recording_sink(chips, limit_per_chip: int, stop_when_full: bool = False):
    """``(events, sink)``: a timeline sink for ``SimulatorEngine.run``
    that appends the first ``limit_per_chip`` reservations of each chip
    in ``chips`` to ``events`` as :class:`TraceEvent` and ignores the
    rest — or, with ``stop_when_full``, raises :class:`_TimelineFull`
    at the first reservation after every chip has that many."""
    events: List[TraceEvent] = []
    room = {chip: limit_per_chip for chip in chips}

    def sink(chip, lane, opcode, start, duration):
        if room[chip] > 0:
            room[chip] -= 1
            events.append(TraceEvent(chip, lane, opcode, start, duration))
        elif stop_when_full and not any(room.values()):
            raise _TimelineFull

    return events, sink


class TracingSimulator(SimulatorEngine):
    """A :class:`SimulatorEngine` whose run can be watched."""

    def timeline(self, isa_module,
                 limit_per_chip: int = 50000) -> List[TraceEvent]:
        """The occupancy intervals of every FU unit, HBM channel and
        network link, as the engine itself reserves them while running
        ``isa_module`` (first ``limit_per_chip`` per chip; the run stops
        once every chip has that many)."""
        events, sink = recording_sink(isa_module.streams, limit_per_chip,
                                      stop_when_full=True)
        try:
            self.run(isa_module, sink=sink)
        except _TimelineFull:
            pass
        return events
