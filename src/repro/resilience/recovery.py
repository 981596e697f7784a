"""Degraded-mode recovery: run a program to completion despite faults.

:class:`RecoveryOrchestrator` is the control loop that turns the pieces
of this package into the paper-level guarantee — *an encrypted inference
finishes even when a die fails mid-run*:

1. compile the program for the full machine and simulate it with a
   :class:`~repro.resilience.faults.FaultSchedule` armed;
2. when a fatal fault surfaces (:class:`ChipFailure` /
   :class:`LinkFailure`), pick the next rung of the degrade ladder
   (:func:`repro.sim.config.degraded_machine`) and recompile the same
   program for the surviving chip count (re-partitioning every limb);
3. replay from cycle 0 on the survivors, with the fault schedule
   filtered down to chips that still exist.  Everything the faulted
   attempt simulated is lost: simulator state is machine-shaped and dies
   with the machine, so a ``recovery`` row's ``lost_cycles`` is the fault
   cycle.  The caller's input ciphertexts are the only data frontier; the
   emulator's memory-image builder re-shards them for whatever machine
   the program was recompiled for;
4. record a ``kind == "recovery"`` entry (trace schema 3) with the
   detection / recompile / replay wall-time split.

The loop walks the ladder until the run completes or ``max_recoveries``
is exhausted, so a 12-chip machine losing two dies lands on 4 chips and
still produces bit-valid ciphertext outputs.

:func:`descend_ladder` is the one ladder step in the repo, shared with
the serving layer (:class:`repro.serve.executor.ShardExecutor`).
"""

from __future__ import annotations

import time
import uuid
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..obs.tracing import tracer
from .faults import FaultSchedule, MachineFaultError

__all__ = [
    "RecoveryEvent",
    "RecoveryExhausted",
    "ResilientRunResult",
    "RecoveryOrchestrator",
    "descend_ladder",
    "run_with_recovery",
]


class RecoveryExhausted(RuntimeError):
    """The degrade ladder ran out before the program completed."""

    def __init__(self, message: str, *, events=None, last_error=None):
        super().__init__(message)
        self.events = list(events or [])
        self.last_error = last_error


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
    recompile_s: float = 0.0
    replay_s: Optional[float] = None

    def as_dict(self) -> dict:
        return asdict(self)


def descend_ladder(exc: MachineFaultError, current, *, descents: int,
                   max_recoveries: int, detection_s: float, events=(),
                   label: str = "run") -> Tuple[object, RecoveryEvent]:
    """One fault, one rung down — the step every degrade ladder shares.

    ``current`` is the machine the faulted attempt ran on (``None``: the
    one the simulator named on ``exc``), ``descents`` the rungs this run
    already took, ``detection_s`` the wall time from the start of that
    attempt to the fault.  Returns the degraded machine and the
    ``recovery`` row's fields (``lost_cycles`` is the fault cycle: the
    replay starts over at cycle 0); the caller recompiles, replays, and
    reports ``replay_s`` once the replay ends.  Raises
    :class:`RecoveryExhausted` (carrying ``events``) when
    ``max_recoveries`` is spent or no rung fits the survivors.
    """
    from ..sim.config import degraded_machine, resolve_machine

    source = resolve_machine(current if current is not None
                             else exc.machine)
    if descents >= max_recoveries:
        raise RecoveryExhausted(
            f"{label}: fault on {source.name} chip {exc.chip} after "
            f"{descents} recoveries (budget exhausted)", events=events,
            last_error=exc) from exc
    try:
        degraded = degraded_machine(source, dead_chips=1)
    except ValueError:
        raise RecoveryExhausted(
            f"{label}: no degraded configuration left below "
            f"{source.name}", events=events, last_error=exc) from exc
    return degraded, RecoveryEvent(
        fault=exc.fault.kind if exc.fault else "chip_crash",
        chip=exc.chip, cycle=exc.cycle, machine_from=source.name,
        machine_to=degraded.name, lost_cycles=exc.cycle,
        detection_s=detection_s)


@dataclass
class ResilientRunResult:
    """What a fault-tolerant run produced, and what it survived."""

    run_id: str
    result: object                       # SimulationResult of the final run
    compiled: object                     # CompiledProgram that completed
    machine: str                         # machine the run finished on
    recoveries: List[RecoveryEvent] = field(default_factory=list)
    outputs: Optional[Dict[str, object]] = None   # decrypted-able cts

    @property
    def recovered(self) -> bool:
        return bool(self.recoveries)

    @property
    def degraded(self) -> bool:
        return any(e.machine_from != e.machine_to for e in self.recoveries)


class RecoveryOrchestrator:
    """Runs compiled programs to completion across machine faults.

    ``session`` is any :class:`repro.runtime.CinnamonSession` (a private
    one is created when omitted) — degraded recompiles go through its
    compile cache, so walking the same ladder twice is nearly free.
    ``max_recoveries`` bounds ladder descents per run.
    """

    def __init__(self, session=None, *, max_recoveries: int = 2):
        if session is None:
            from ..runtime.session import CinnamonSession

            session = CinnamonSession()
        self.session = session
        self.max_recoveries = max_recoveries

    # ------------------------------------------------------------------ #

    def run(self, program, params, machine=None, *,
            fault_schedule: FaultSchedule = None,
            inputs: Dict[str, object] = None, context=None,
            plaintexts: Dict[str, object] = None,
            run_id: str = None, job: str = None,
            emulate_outputs: bool = False,
            watchdog_s: Optional[float] = None) -> ResilientRunResult:
        """Compile + simulate ``program``, surviving scheduled faults.

        With ``emulate_outputs`` (requires ``inputs`` and ``context``),
        the final — possibly degraded — compiled program is also run
        through the functional emulator on ``inputs``, so callers can
        verify the recovered run decrypts to the same values as a
        fault-free one.
        """
        run_id = run_id or f"run-{uuid.uuid4().hex[:12]}"
        label = job or getattr(program, "name", "resilient-run")
        # The whole ladder shares one span; every compile/simulate it
        # performs (and every recovery row it records) joins that trace.
        with tracer().start_span(f"recover:{label}", kind="recovery",
                                 attrs={"run_id": run_id}) as span:
            result = self._run_ladder(
                program, params, machine, fault_schedule=fault_schedule,
                inputs=inputs, context=context, plaintexts=plaintexts,
                run_id=run_id, label=label,
                emulate_outputs=emulate_outputs, watchdog_s=watchdog_s)
            span.set_attr("machine", result.machine)
            span.set_attr("recoveries", len(result.recoveries))
            return result

    def _run_ladder(self, program, params, machine, *, fault_schedule,
                    inputs, context, plaintexts, run_id, label,
                    emulate_outputs, watchdog_s) -> ResilientRunResult:
        from ..sim.config import resolve_machine

        schedule = fault_schedule or FaultSchedule()
        current = resolve_machine(machine, default_chips=4)

        compiled = self.session.compile(program, params, machine=current,
                                        job=label)
        events: List[RecoveryEvent] = []
        step = None        # ladder-step span of the descent being replayed

        def journal_descent(replay_s=None):
            # Journaled once its replay has ended (or faulted), never
            # updated after: listeners and the fold see a complete row.
            events[-1] = replace(events[-1], replay_s=replay_s)
            with tracer().use_span(step):
                self.session.record("recovery", job=label,
                                    **events[-1].as_dict())

        while True:
            replay_started = time.perf_counter()
            try:
                result = self.session.simulate(
                    compiled, current, job=label,
                    fault_schedule=schedule, watchdog_s=watchdog_s)
            except MachineFaultError as exc:
                detected = time.perf_counter()
                if events:
                    journal_descent()         # its replay faulted too
                degraded, event = descend_ladder(
                    exc, current, descents=len(events),
                    max_recoveries=self.max_recoveries,
                    detection_s=detected - replay_started, events=events,
                    label=label)
                step = tracer().begin(
                    f"ladder:{current.name}->{degraded.name}",
                    kind="recovery-step",
                    attrs={"fault": event.fault,
                           "chip": exc.chip, "cycle": exc.cycle})
                recompile_started = time.perf_counter()
                with tracer().use_span(step):
                    compiled = self.session.compile(
                        program, params, machine=degraded, job=label)
                events.append(replace(
                    event,
                    recompile_s=time.perf_counter() - recompile_started))
                step.finish()
                schedule = schedule.for_survivors(
                    [exc.chip] if exc.chip is not None else [],
                    num_chips=degraded.num_chips)
                current = degraded
                continue
            except Exception:
                if events:
                    journal_descent()         # its replay never completed
                raise
            if events:
                journal_descent(time.perf_counter() - replay_started)
            outputs = None
            if emulate_outputs:
                if inputs is None or context is None:
                    raise ValueError(
                        "emulate_outputs requires inputs and context")
                outputs = compiled.emulate(inputs, context=context,
                                           plaintexts=plaintexts)
            return ResilientRunResult(
                run_id=run_id, result=result, compiled=compiled,
                machine=current.name, recoveries=events, outputs=outputs)


def run_with_recovery(program, params, machine=None, **kwargs
                      ) -> ResilientRunResult:
    """One-shot convenience wrapper around :class:`RecoveryOrchestrator`."""
    orchestrator = RecoveryOrchestrator()
    return orchestrator.run(program, params, machine, **kwargs)
