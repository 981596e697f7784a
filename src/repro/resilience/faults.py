"""Machine-level fault model: schedules and typed failures.

A :class:`FaultSchedule` scripts *machine* faults — a chip dying, a
network link losing bandwidth or severing, a vector cluster slowing down
— against a simulated run.  Faults are pinned to a cycle and a chip, so
the same schedule replays identically (the recovery tests depend on
this); :meth:`FaultSchedule.from_yield_model` instead derives per-chip
failure probabilities from the Section 7.2 defect model and samples a
schedule with a seeded RNG, which is still deterministic per seed.

Fatal faults surface as typed exceptions carrying the exact failure
cycle and every chip's progress at detection time, which is what the
recovery orchestrator (:mod:`repro.resilience.recovery`) needs to report
the work lost and re-partition the program onto the survivors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..arch.yield_model import DEFECT_DENSITY_PER_CM2, die_yield

#: Fault kinds a schedule may carry.
CHIP_CRASH = "chip_crash"
LINK_DEGRADE = "link_degrade"
LINK_SEVER = "link_sever"
CLUSTER_SLOW = "cluster_slow"

FAULT_KINDS = (CHIP_CRASH, LINK_DEGRADE, LINK_SEVER, CLUSTER_SLOW)

#: Die area of one Cinnamon chip (Table 3), used by the yield sampler.
CINNAMON_DIE_AREA_MM2 = 223.18


class MachineFaultError(RuntimeError):
    """Base of all fatal machine faults raised by the simulator.

    Carries everything recovery needs: which chip, the scheduled cycle,
    each chip's instruction frontier (``progress``: chip id -> program
    counter) and local completion time at detection.
    """

    def __init__(self, message: str, *, chip: int, cycle: int,
                 machine: str = "",
                 progress: Optional[Dict[int, int]] = None,
                 per_chip_cycles: Optional[Dict[int, int]] = None,
                 fault: Optional["MachineFault"] = None):
        super().__init__(message)
        self.chip = chip
        self.cycle = cycle
        self.machine = machine
        self.progress = dict(progress or {})
        self.per_chip_cycles = dict(per_chip_cycles or {})
        self.fault = fault

    @property
    def completed_instructions(self) -> int:
        return sum(self.progress.values())


class ChipFailure(MachineFaultError):
    """A chip died mid-run (the die the yield model says will fail)."""


class LinkFailure(MachineFaultError):
    """A network link severed; the chip is unreachable mid-collective."""


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
    """One scheduled fault: ``kind`` hits ``chip`` at ``cycle``.

    ``factor`` scales the affected resource for the non-fatal kinds: the
    link's bytes/cycle for ``link_degrade``, the vector occupancy for
    ``cluster_slow``.
    """

    kind: str
    chip: int
    cycle: int
    factor: float = 1.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.cycle < 0:
            raise ValueError("fault cycle must be >= 0")
        if self.kind in (LINK_DEGRADE, CLUSTER_SLOW) and self.factor <= 0:
            raise ValueError(f"{self.kind} needs a positive factor")

    @property
    def fatal(self) -> bool:
        return self.kind in (CHIP_CRASH, LINK_SEVER)


@dataclass
class FaultSchedule:
    """A deterministic script of machine faults for one simulated run.

    Build fluently::

        FaultSchedule().chip_crash(chip=3, cycle=20_000) \\
                       .link_degrade(chip=1, cycle=5_000, factor=0.25)

    or sample one from the yield model::

        FaultSchedule.from_yield_model("cinnamon_12", horizon_cycles=1e6,
                                       seed=7)

    The schedule itself is immutable during a run — the simulator copies
    the fault list and consumes its copy — so one schedule can be
    replayed any number of times.
    """

    faults: List[MachineFault] = field(default_factory=list)
    seed: Optional[int] = None

    # ------------------------- fluent builders ------------------------ #

    def add(self, fault: MachineFault) -> "FaultSchedule":
        self.faults.append(fault)
        return self

    def chip_crash(self, chip: int, cycle: int) -> "FaultSchedule":
        return self.add(MachineFault(CHIP_CRASH, chip, cycle))

    def link_sever(self, chip: int, cycle: int) -> "FaultSchedule":
        return self.add(MachineFault(LINK_SEVER, chip, cycle))

    def link_degrade(self, chip: int, cycle: int,
                     factor: float = 0.5) -> "FaultSchedule":
        return self.add(MachineFault(LINK_DEGRADE, chip, cycle, factor))

    def cluster_slow(self, chip: int, cycle: int,
                     factor: float = 2.0) -> "FaultSchedule":
        return self.add(MachineFault(CLUSTER_SLOW, chip, cycle, factor))

    # ------------------------------------------------------------------ #

    @classmethod
    def from_yield_model(cls, machine, horizon_cycles: int, seed: int = 0,
                         die_area_mm2: float = CINNAMON_DIE_AREA_MM2,
                         defect_scale: float = 1.0) -> "FaultSchedule":
        """Sample a schedule from the Section 7.2 defect model.

        Each chip fails within ``horizon_cycles`` with probability
        ``1 - yield(area)`` (scaled by ``defect_scale`` so tests can force
        faults without pretending dies are that bad); failure cycles are
        uniform over the horizon.  Same ``seed`` -> same schedule.
        """
        from ..sim.config import resolve_machine

        resolved = resolve_machine(machine)
        rng = random.Random(seed)
        p_fail = min(1.0, defect_scale * (1.0 - die_yield(
            die_area_mm2, d0=DEFECT_DENSITY_PER_CM2)))
        schedule = cls(seed=seed)
        for chip in range(resolved.num_chips):
            if rng.random() < p_fail:
                schedule.chip_crash(chip, rng.randrange(
                    1, max(2, int(horizon_cycles))))
        return schedule

    # ------------------------------------------------------------------ #

    def for_survivors(self, dead_chips: Sequence[int],
                      num_chips: Optional[int] = None) -> "FaultSchedule":
        """The schedule that applies after losing ``dead_chips``.

        Drops faults on dead chips and faults aimed beyond the surviving
        chip count (the degraded machine renumbers chips 0..n-1).
        """
        dead = set(dead_chips)
        survivors = [
            f for f in self.faults
            if f.chip not in dead
            and (num_chips is None or f.chip < num_chips)
        ]
        return FaultSchedule(survivors, seed=self.seed)

    def signature(self) -> str:
        """Stable identity of the schedule (for sim-cache keys/traces)."""
        parts = [f"{f.kind}:{f.chip}@{f.cycle}x{f.factor:g}"
                 for f in sorted(self.faults,
                                 key=lambda f: (f.cycle, f.chip, f.kind))]
        return ";".join(parts) or "clean"

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)


#: Inert schedule: simulating with it is identical to simulating without.
NO_MACHINE_FAULTS = FaultSchedule()
