"""Pluggable fault injection for the serving layer.

The robustness tests (and any chaos experiment) script failures against a
live server instead of monkeypatching internals: a :class:`FaultInjector`
is armed with a budget of faults and consulted by every
:class:`~repro.serve.executor.ShardExecutor` right before it executes a
batch.  Four fault kinds:

* ``crash``   — the shard dies mid-dispatch (:class:`WorkerCrashError`);
  the server restarts it with a fresh session (cold in-memory cache, the
  disk layer survives — exactly a process restart) and retries the batch;
* ``latency`` — a stall of ``latency_s`` seconds before execution (a
  GC pause, a slow NIC) that deadline enforcement must absorb;
* ``poison``  — the batch's cache entry is replaced with a
  :class:`PoisonedArtifact` whose first use raises
  :class:`PoisonedCacheError`; recovery is invalidate-and-recompile.
* ``chip_crash`` — the machine fault: :meth:`FaultInjector.on_dispatch`
  returns the armed :class:`Fault`, whose :meth:`Fault.schedule` kills
  ``chip`` at simulated ``cycle``; the executor hands it to the session's
  simulate, which raises :class:`~repro.resilience.ChipFailure` when the
  run reaches that cycle, and recovers by recompiling for the degrade
  ladder's next rung (see :mod:`repro.resilience`).

Each fault fires ``count`` times, optionally only for requests whose
label contains ``match``; a drained injector is inert, so a recovered
server runs clean afterwards.

This module scripts *when* faults happen to a server;
:mod:`repro.resilience.faults` owns what a chip crash is and the rule
that decides whether it fires.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

from ..resilience.faults import FaultSchedule


class InjectedFault(RuntimeError):
    """Base class of all injected failures."""


class WorkerCrashError(InjectedFault):
    """A shard 'process' died while holding a batch."""


class PoisonedCacheError(InjectedFault):
    """A cached compile artifact was corrupt when dereferenced."""


class PoisonedArtifact:
    """Stand-in for a corrupt cached :class:`CompiledProgram`.

    Attribute *writes* succeed (the session stamps ``cache_key`` on
    every hit) but any read of a compile artifact's real surface raises,
    modelling a truncated/garbage pickle that deserialized anyway.
    """

    def __getattr__(self, name):
        raise PoisonedCacheError(
            f"poisoned cache artifact dereferenced (attribute {name!r})")


@dataclass
class Fault:
    """One scripted failure with a firing budget."""

    kind: str                  # "crash" | "latency" | "poison" | "chip_crash"
    count: int = 1
    match: str = ""            # substring of a request label; "" = any
    latency_s: float = 0.05
    chip: int = 0              # chip_crash: which die dies ...
    cycle: int = 1000          # ... and at which simulated cycle

    def schedule(self) -> FaultSchedule:
        """The machine-fault schedule a ``chip_crash`` arms."""
        return FaultSchedule().chip_crash(chip=self.chip, cycle=self.cycle)


@dataclass
class FaultInjector:
    """Scripted fault plan, consumed as executors dispatch batches."""

    faults: List[Fault] = field(default_factory=list)

    def __post_init__(self):
        self._lock = threading.Lock()
        self.injected = {"crash": 0, "latency": 0, "poison": 0,
                         "chip_crash": 0}

    # ------------------------- fluent builders ------------------------ #

    def crash(self, count: int = 1, match: str = "") -> "FaultInjector":
        self.faults.append(Fault("crash", count=count, match=match))
        return self

    def latency(self, seconds: float, count: int = 1,
                match: str = "") -> "FaultInjector":
        self.faults.append(
            Fault("latency", count=count, match=match, latency_s=seconds))
        return self

    def poison(self, count: int = 1, match: str = "") -> "FaultInjector":
        self.faults.append(Fault("poison", count=count, match=match))
        return self

    def chip_crash(self, chip: int = 0, cycle: int = 1000, count: int = 1,
                   match: str = "") -> "FaultInjector":
        """Kill ``chip`` at simulated ``cycle`` during the next matching
        batch; the server recovers by degrading to fewer chips."""
        self.faults.append(Fault("chip_crash", count=count, match=match,
                                 chip=chip, cycle=cycle))
        return self

    # ------------------------------------------------------------------ #

    def _take(self, requests) -> Optional[Fault]:
        labels = [req.label for req in requests]
        with self._lock:
            for fault in self.faults:
                if fault.count <= 0:
                    continue
                if fault.match and not any(
                        fault.match in label for label in labels):
                    continue
                fault.count -= 1
                self.injected[fault.kind] += 1
                return fault
        return None

    def on_dispatch(self, shard_id, requests, session) -> Optional[Fault]:
        """Called by an executor before each execution attempt of
        ``requests`` (one same-fingerprint batch).

        May sleep (latency), corrupt the session's cache entry for the
        batch (poison) or raise :class:`WorkerCrashError` (crash).
        Returns the armed fault for chip_crash, else ``None``.
        """
        fault = self._take(requests)
        if fault is None:
            return None
        if fault.kind == "latency":
            time.sleep(fault.latency_s)
        elif fault.kind == "poison":
            session._cache.put(requests[0].key, PoisonedArtifact())
        elif fault.kind == "crash":
            raise WorkerCrashError(
                f"injected crash of shard {shard_id} while dispatching "
                f"{len(requests)} request(s)")
        return fault if fault.kind == "chip_crash" else None

    def refund(self, fault: Fault) -> None:
        """Re-arm a chip fault that was taken but never fired (the run
        ended before its crash cycle), so a later dispatch triggers it."""
        with self._lock:
            fault.count += 1
            self.injected[fault.kind] -= 1

    def remaining(self) -> int:
        with self._lock:
            return sum(max(0, f.count) for f in self.faults)


#: Inert default: consulted on every dispatch, never fires.
NO_FAULTS = FaultInjector()
