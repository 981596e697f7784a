"""The degrade ladder: one chip crash, one rung down.

A :class:`~repro.resilience.faults.ChipFailure` ends the attempt it hit:
simulator state is machine-shaped and dies with the machine.
:func:`descend_ladder` picks the next rung of the ladder
(:func:`repro.sim.config.degraded_machine`, 12 -> 8 -> 4 -> 2 -> 1); the
caller recompiles the same program for the surviving chip count and
replays it from cycle 0, so a ``recovery`` row's ``lost_cycles`` is the
fault cycle.  The caller's input ciphertexts are the only data frontier;
the emulator's memory-image builder re-shards them for whatever machine
the program was recompiled for.

:class:`repro.serve.executor.ShardExecutor` runs the one ladder in the
repo on top of this step, and journals each :class:`RecoveryEvent` as a
``kind == "recovery"`` row once its replay has ended.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Tuple

from .faults import CHIP_CRASH, MachineFaultError

__all__ = ["RecoveryEvent", "RecoveryExhausted", "descend_ladder"]


class RecoveryExhausted(RuntimeError):
    """The degrade ladder ran out before the program completed."""


@dataclass(frozen=True)
class RecoveryEvent:
    """One fault -> degrade -> replay transition (mirrors the trace)."""

    fault: str
    chip: Optional[int]
    cycle: int
    machine_from: str
    machine_to: str
    lost_cycles: int = 0
    detection_s: float = 0.0
    replay_s: Optional[float] = None

    def as_dict(self) -> dict:
        return asdict(self)


def descend_ladder(exc: MachineFaultError, current, *, descents: int,
                   max_recoveries: int, detection_s: float,
                   label: str = "run") -> Tuple[object, RecoveryEvent]:
    """One fault, one rung down — the step every degrade ladder shares.

    ``current`` is the machine the faulted attempt ran on (``None``: the
    one the simulator named on ``exc``), ``descents`` the rungs this run
    already took, ``detection_s`` the wall time from the start of that
    attempt to the fault.  Returns the degraded machine and the
    ``recovery`` row's fields (``lost_cycles`` is the fault cycle: the
    replay starts over at cycle 0); the caller recompiles, replays, and
    reports ``replay_s`` once the replay ends.  Raises
    :class:`RecoveryExhausted` when ``max_recoveries`` is spent or no
    rung fits the survivors.
    """
    from ..sim.config import degraded_machine, resolve_machine

    source = resolve_machine(current if current is not None
                             else exc.machine)
    if descents >= max_recoveries:
        raise RecoveryExhausted(
            f"{label}: fault on {source.name} chip {exc.chip} after "
            f"{descents} recoveries (budget exhausted)") from exc
    try:
        degraded = degraded_machine(source, dead_chips=1)
    except ValueError:
        raise RecoveryExhausted(
            f"{label}: no degraded configuration left below "
            f"{source.name}") from exc
    return degraded, RecoveryEvent(
        fault=CHIP_CRASH, chip=exc.chip, cycle=exc.cycle,
        machine_from=source.name, machine_to=degraded.name,
        lost_cycles=exc.cycle, detection_s=detection_s)
