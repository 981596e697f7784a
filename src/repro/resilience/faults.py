"""Machine-level fault model: one fault, a chip crash, and its rule.

A :class:`FaultSchedule` scripts chip crashes against a simulated run:
chip ``chip`` dies at cycle ``cycle``.  A crash is fatal and perturbs
nothing before it fires, so a faulted run *is* the clean run up to the
crash, and :meth:`FaultSchedule.first_crash` decides it from the
finished clean run alone: a crash fires exactly when its chip is in the
module and the clean run is still going at its cycle.
:meth:`repro.runtime.CinnamonSession.simulate` applies the rule and
raises :class:`ChipFailure`; the degrade ladder
(:func:`repro.resilience.recovery.descend_ladder`) recovers from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

#: The one machine fault kind: a die dies mid-run.
CHIP_CRASH = "chip_crash"


class MachineFaultError(RuntimeError):
    """Base of the fatal machine faults a simulation raises: which chip
    of which machine died, at which cycle."""

    def __init__(self, message: str, *, chip: int, cycle: int,
                 machine: str = ""):
        super().__init__(message)
        self.chip = chip
        self.cycle = cycle
        self.machine = machine


class ChipFailure(MachineFaultError):
    """A chip died mid-run (the die the yield model says will fail)."""


class WatchdogTimeout(TimeoutError):
    """A simulation exceeded its wall-clock deadline and was cancelled."""

    def __init__(self, message: str, *, deadline_s: float,
                 elapsed_s: float, machine: str = ""):
        super().__init__(message)
        self.deadline_s = deadline_s
        self.elapsed_s = elapsed_s
        self.machine = machine


@dataclass(frozen=True)
class MachineFault:
    """One scheduled fault: ``kind`` hits ``chip`` at ``cycle``."""

    kind: str
    chip: int
    cycle: int

    def __post_init__(self):
        if self.kind != CHIP_CRASH:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.cycle < 0:
            raise ValueError("fault cycle must be >= 0")


@dataclass
class FaultSchedule:
    """A deterministic script of chip crashes for one simulated run::

        FaultSchedule().chip_crash(chip=3, cycle=20_000)

    Nothing consumes the schedule, so one schedule can be replayed any
    number of times.
    """

    faults: List[MachineFault] = field(default_factory=list)

    def chip_crash(self, chip: int, cycle: int) -> "FaultSchedule":
        self.faults.append(MachineFault(CHIP_CRASH, chip, cycle))
        return self

    def first_crash(self, chips: Iterable[int],
                    cycles: int) -> Optional[MachineFault]:
        """The crash that ends a run over ``chips`` whose clean run
        takes ``cycles``: the earliest one on a chip of the run at a
        cycle the clean run reaches (ties go to the lowest chip), or
        ``None`` when the run completes."""
        chips = set(chips)
        fired = [fault for fault in self.faults
                 if fault.chip in chips and fault.cycle <= cycles]
        return min(fired, key=lambda fault: (fault.cycle, fault.chip),
                   default=None)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)


#: Inert schedule: simulating with it is identical to simulating without.
NO_MACHINE_FAULTS = FaultSchedule()
