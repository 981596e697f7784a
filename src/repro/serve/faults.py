"""Chip-crash injection for the serving layer.

Chaos tests and the load generator script die losses against a live
server instead of monkeypatching internals: a :class:`FaultInjector` is
armed with chip crashes, each with a firing budget, and every
:class:`~repro.serve.executor.ShardExecutor` takes one before an
execution attempt.  The executor hands the armed
:class:`~repro.sim.ChipCrash` to the session's simulate, which raises
:class:`~repro.sim.ChipFailure` when the clean run reaches the crash
cycle, and recovers by recompiling for the degrade ladder's next rung.
A crash that does not fire (the program ended first, or the attempt
failed some other way) is refunded, so a crash is spent only when it
fires; a drained injector is inert.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import List, Optional

from ..sim.simulator import ChipCrash


@dataclass
class Fault:
    """One scripted chip crash with a firing budget."""

    crash: ChipCrash
    count: int = 1


@dataclass
class FaultInjector:
    """Scripted chip crashes, consumed as executors dispatch batches."""

    faults: List[Fault] = field(default_factory=list)

    def __post_init__(self):
        self._lock = threading.Lock()
        self.injected = {"chip_crash": 0}

    def chip_crash(self, chip: int = 0, cycle: int = 1000,
                   count: int = 1) -> "FaultInjector":
        """Kill ``chip`` at simulated ``cycle`` during the next ``count``
        batches; the server recovers by degrading to fewer chips."""
        self.faults.append(Fault(ChipCrash(chip, cycle), count))
        return self

    def take(self) -> Optional[Fault]:
        """Arm the next crash with budget left for one execution
        attempt, or ``None`` when the injector is drained."""
        with self._lock:
            for fault in self.faults:
                if fault.count > 0:
                    fault.count -= 1
                    self.injected["chip_crash"] += 1
                    return fault
        return None

    def refund(self, fault: Fault) -> None:
        """Re-arm a crash that was taken but never fired, so a later
        dispatch triggers it."""
        with self._lock:
            fault.count += 1
            self.injected["chip_crash"] -= 1

    def remaining(self) -> int:
        with self._lock:
            return sum(max(0, f.count) for f in self.faults)


#: Inert default: consulted on every dispatch, never fires.
NO_FAULTS = FaultInjector()
