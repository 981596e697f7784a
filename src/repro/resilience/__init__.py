"""Machine-level fault tolerance for scale-out encrypted execution.

The paper's machine is a multi-chip package of reticle-sized dies; at
realistic defect densities some fraction of deployments *will* lose a
die mid-run.  This package models that one fault and its one recovery:

* :mod:`~repro.resilience.faults` — a seeded, deterministic
  :class:`FaultSchedule` of chip crashes, the rule that decides from a
  finished clean run whether one fires, and the typed failures
  (:class:`ChipFailure`, :class:`WatchdogTimeout`);
* :mod:`~repro.resilience.recovery` — :func:`descend_ladder`, the one
  degrade-ladder step: a crash costs one rung (12 -> 8 -> 4 -> 2 -> 1),
  and the caller recompiles and replays from cycle 0 on the survivors.
"""

from .faults import (
    CHIP_CRASH,
    NO_MACHINE_FAULTS,
    ChipFailure,
    FaultSchedule,
    MachineFault,
    MachineFaultError,
    WatchdogTimeout,
)
from .recovery import RecoveryEvent, RecoveryExhausted, descend_ladder

__all__ = [
    "CHIP_CRASH",
    "NO_MACHINE_FAULTS",
    "ChipFailure",
    "FaultSchedule",
    "MachineFault",
    "MachineFaultError",
    "RecoveryEvent",
    "RecoveryExhausted",
    "WatchdogTimeout",
    "descend_ladder",
]
