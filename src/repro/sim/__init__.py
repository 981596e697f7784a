"""Cycle-level simulator for the Cinnamon scale-out architecture.

Consumes the per-chip ISA streams emitted by the compiler and models:

* per-chip pipelined vector functional units (NTT, automorphism, add,
  multiply, BCU, RNS-resolve) with occupancies derived from the vector
  width (Section 5: four 256-lane clusters at 1 GHz);
* HBM bandwidth for loads/stores/spills;
* the ring/switch interconnect with broadcast and aggregation collectives;
* utilization accounting per resource (Figure 15);
* the one machine fault, a :class:`ChipCrash`, and the typed failures a
  simulation raises (:class:`ChipFailure`, :class:`WatchdogTimeout`).
"""

from .config import (
    ChipConfig,
    MachineConfig,
    CINNAMON_1,
    CINNAMON_4,
    CINNAMON_8,
    CINNAMON_12,
    CINNAMON_M,
    DEGRADE_LADDER,
    config_for,
    degraded_machine,
    resolve_machine,
)
from .simulator import (
    ChipCrash,
    ChipFailure,
    SimulationResult,
    SimulatorEngine,
    WatchdogTimeout,
)

__all__ = [
    "ChipConfig",
    "MachineConfig",
    "CINNAMON_1",
    "CINNAMON_4",
    "CINNAMON_8",
    "CINNAMON_12",
    "CINNAMON_M",
    "DEGRADE_LADDER",
    "config_for",
    "degraded_machine",
    "resolve_machine",
    "SimulatorEngine",
    "SimulationResult",
    "ChipCrash",
    "ChipFailure",
    "WatchdogTimeout",
]
