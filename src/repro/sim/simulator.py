"""Dependency-driven cycle simulation of compiled ISA streams.

Model: each chip issues its instruction stream in order (bounded issue
width); an instruction starts when its operand registers are ready and a
unit of its functional-unit class is free, occupies the unit for the op's
vector occupancy, and its result becomes ready a pipeline latency later.
Loads/stores occupy HBM bandwidth; collectives rendezvous all contributing
chips and occupy each participant's network links for the payload the
topology makes it carry.

This is the same abstraction level as the paper's SST-based simulator
(Section 6): per-instruction FU occupancy + bandwidth accounting, not RTL.

Two engines implement this model and agree exactly: the C engine
(``_engine.c`` via :mod:`repro.sim.native`), which runs a whole module in
one call, and the Python loop of :meth:`SimulatorEngine._run_reference`,
which is its oracle (``tests/sim/test_engine_oracle.py``) and the
fallback when no C compiler is available.

The one machine fault is a :class:`ChipCrash`: a die lost mid-run.  It
perturbs nothing before it fires, so the engine itself never sees it:
:meth:`repro.runtime.CinnamonSession.simulate` decides it from the
finished clean run (:meth:`ChipCrash.fires`) and raises
:class:`ChipFailure`.  A wall-clock deadline turns a hung simulation
into a :class:`WatchdogTimeout` instead of a wedged worker thread.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Collection, Dict, List, Optional

import numpy as np

from ..core.isa.instructions import (
    COL, LD, MOV, RCV, SND, ST, VADD, VAUTO, VBCV, VINTT, VMUL, VMULC, VNEG,
    VNTT, VPRNG, VRSV, VSUB,
)
from . import native
from .config import MachineConfig, resolve_machine

#: Version of the dict layout produced by :meth:`SimulationResult.as_dict`.
#: Bump when keys are renamed/removed so trace consumers can detect drift.
#: (``topology`` and per-link ``links`` occupancy were added
#: additively.)  2: dropped the cycle-cap flag (every run completes).
#: 3: dropped ``events`` (the simulator applies no machine faults).
METRICS_SCHEMA_VERSION = 3


class ChipFailure(RuntimeError):
    """A chip died mid-run (the die the yield model says will fail):
    which chip of which machine, at which cycle."""

    def __init__(self, message: str, *, chip: int, cycle: int,
                 machine: str = ""):
        super().__init__(message)
        self.chip = chip
        self.cycle = cycle
        self.machine = machine


class WatchdogTimeout(TimeoutError):
    """A simulation exceeded its wall-clock deadline and was cancelled."""

    def __init__(self, message: str, *, deadline_s: float,
                 elapsed_s: float, machine: str = ""):
        super().__init__(message)
        self.deadline_s = deadline_s
        self.elapsed_s = elapsed_s
        self.machine = machine


@dataclass(frozen=True)
class ChipCrash:
    """Chip ``chip`` dies at simulated ``cycle``.

    The crash is fatal and perturbs nothing before it fires, so a faulted
    run *is* the clean run up to the crash.
    """

    chip: int
    cycle: int

    def __post_init__(self):
        if self.cycle < 0:
            raise ValueError("crash cycle must be >= 0")

    def fires(self, chips: Collection[int], cycles: int) -> bool:
        """Whether the crash ends a run over ``chips`` whose clean run
        takes ``cycles``: its chip is in the run and the run reaches its
        cycle."""
        return self.chip in chips and self.cycle <= cycles


_FU_CLASS = {
    VADD: "add",
    VSUB: "add",
    VNEG: "add",
    VMUL: "mul",
    VMULC: "mul",
    VNTT: "ntt",
    VINTT: "ntt",
    VAUTO: "auto",
    VRSV: "rsv",
    VBCV: "bconv",
    VPRNG: "prng",
}

_NETWORK_OPCODES = frozenset((SND, MOV, COL, RCV))


def _network_operands(stream) -> Dict[int, tuple]:
    """``pc -> (key, payload limbs)`` of one stream's network instructions.

    The only per-run front-end work: everything else the inner loop needs
    (opcode, dest, srcs) it reads straight from the stream's columns.
    ``key`` is the send/recv key (``snd``/``mov``) or the collective id
    (``col``/``rcv``); the payload is a collective contribution's limb
    count, else None.
    """
    operands = {}
    for pc, op in enumerate(stream.opcodes):
        if op in _NETWORK_OPCODES:
            attrs = stream.attrs_at(pc)
            if op == COL:
                operands[pc] = (attrs["cid"], attrs["bytes"])
            elif op == RCV:
                operands[pc] = (attrs["cid"], None)
            else:
                operands[pc] = (attrs["key"], None)
    return operands


@dataclass
class SimulationResult:
    """Timing and utilization of one program on one machine."""

    machine: str
    cycles: int
    clock_ghz: float
    instructions: int
    fu_busy: Dict[str, float]          # chip-averaged busy cycles per class
    hbm_busy: float
    network_busy: float
    hbm_bytes: int
    network_bytes: int
    per_chip_cycles: Dict[int, int] = field(default_factory=dict)
    #: Per-network-link accounting (one link resource per chip): busy
    #: cycles and bytes carried, keyed by chip id.  ``topology`` names
    #: the interconnect ("ring"/"switch") so consumers can report ring
    #: vs. switch link utilization.
    link_busy: Dict[int, int] = field(default_factory=dict)
    link_bytes: Dict[int, int] = field(default_factory=dict)
    topology: str = ""

    @property
    def seconds(self) -> float:
        return self.cycles / (self.clock_ghz * 1e9)

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1e3

    def utilization(self) -> Dict[str, float]:
        """Fractional busy time for compute, HBM and network.

        Compute is the *unweighted* mean over FU classes of each class's
        chip-averaged busy cycles — not weighted by unit count or area,
        which is why Fig. 15's compute utilisation reads about half the
        paper's (ROADMAP item 9).
        """
        total = max(1, self.cycles)
        compute = sum(self.fu_busy.values()) / max(1, len(self.fu_busy))
        return {
            "compute": min(1.0, compute / total),
            "memory": min(1.0, self.hbm_busy / total),
            "network": min(1.0, self.network_busy / total),
        }

    def fu_utilization(self) -> Dict[str, float]:
        """Fractional busy time of each functional-unit class."""
        total = max(1, self.cycles)
        return {name: min(1.0, busy / total)
                for name, busy in sorted(self.fu_busy.items())}

    def link_occupancy(self) -> Dict[int, float]:
        """Fractional busy time of each chip's network link."""
        total = max(1, self.cycles)
        return {cid: min(1.0, busy / total)
                for cid, busy in sorted(self.link_busy.items())}

    def as_dict(self) -> dict:
        """The stable metrics schema exported into runtime traces.

        Keys are additive across versions; consumers should key off
        ``schema`` (``METRICS_SCHEMA_VERSION``) for layout changes.
        """
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "schema_version": METRICS_SCHEMA_VERSION,
            "machine": self.machine,
            "cycles": self.cycles,
            "seconds": self.seconds,
            "clock_ghz": self.clock_ghz,
            "instructions": self.instructions,
            "fu_busy_cycles": {k: v for k, v in sorted(self.fu_busy.items())},
            "fu_utilization": self.fu_utilization(),
            "hbm": {"busy_cycles": self.hbm_busy, "bytes": self.hbm_bytes},
            "network": {"busy_cycles": self.network_busy,
                        "bytes": self.network_bytes},
            "utilization": self.utilization(),
            "per_chip_cycles": {str(cid): cyc for cid, cyc
                                in sorted(self.per_chip_cycles.items())},
            "topology": self.topology,
            "links": {
                str(cid): {
                    "busy_cycles": busy,
                    "bytes": self.link_bytes.get(cid, 0),
                    "occupancy": min(1.0, busy / max(1, self.cycles)),
                }
                for cid, busy in sorted(self.link_busy.items())
            },
        }


#: A timeline sink: ``sink(chip, lane, opcode, start, duration)``, called
#: once per reservation the run makes (an instruction makes at most one),
#: each chip's in issue order — so what a sink sees sums to the
#: ``busy_cycles`` the result reports.  How chips interleave is the
#: engine's: the C engine replays chip by chip after the run.
Sink = Callable[[int, str, str, int, int], None]


class _FuPool:
    """A pool of identical pipelined units; tracks per-unit free time."""

    def __init__(self, count: int, sink: Optional[Sink] = None,
                 chip: int = 0, name: str = ""):
        self.free_at = [0] * max(1, count)
        self.busy_cycles = 0
        self.sink = sink
        self.chip = chip
        self.name = name

    def reserve(self, earliest: int, occupancy: int, op: str) -> int:
        index = min(range(len(self.free_at)), key=lambda i: self.free_at[i])
        start = max(earliest, self.free_at[index])
        self.free_at[index] = start + occupancy
        self.busy_cycles += occupancy
        if self.sink is not None:
            self.sink(self.chip, f"{self.name}{index}", op, start, occupancy)
        return start


class _Bandwidth:
    """A bandwidth resource serving transfers back-to-back."""

    def __init__(self, bytes_per_cycle: float, sink: Optional[Sink] = None,
                 chip: int = 0, lane: str = ""):
        self.bytes_per_cycle = bytes_per_cycle
        self.free_at = 0
        self.busy_cycles = 0
        self.bytes_moved = 0
        self.sink = sink
        self.chip = chip
        self.lane = lane

    def reserve(self, earliest: int, nbytes: float, op: str) -> int:
        duration = int(math.ceil(nbytes / self.bytes_per_cycle))
        start = max(earliest, self.free_at)
        self.free_at = start + duration
        self.busy_cycles += duration
        self.bytes_moved += int(nbytes)
        if self.sink is not None:
            self.sink(self.chip, self.lane, op, start, duration)
        return start + duration  # completion time


class _ChipState:
    def __init__(self, chip_id: int, stream, config,
                 sink: Optional[Sink] = None):
        self.id = chip_id
        self.opcodes = list(stream.opcodes)
        self.dests = list(stream.dests)
        self.srcs = list(stream.srcs)
        self.network = _network_operands(stream)
        self.length = len(stream)
        self.pc = 0
        self.reg_ready: Dict[int, int] = defaultdict(int)
        self.issue_time = 0
        self.fus = {name: _FuPool(count, sink, chip_id, name)
                    for name, count in config.fu_counts.items()}
        self.hbm = _Bandwidth(config.hbm_bytes_per_cycle, sink, chip_id,
                              "hbm")
        self.link = _Bandwidth(config.link_bytes_per_cycle, sink, chip_id,
                               "network")
        self.finish = 0

    @property
    def done(self):
        return self.pc >= self.length


class SimulatorEngine:
    """Simulates one compiled program on one machine configuration.

    This is the implementation class used by the runtime
    (:mod:`repro.runtime`) and :meth:`CompiledProgram.simulate`.  Accepts
    any machine spec :func:`repro.sim.config.resolve_machine` understands.
    """

    def __init__(self, machine):
        self.machine = resolve_machine(machine)

    # ------------------------------------------------------------------ #

    def run(self, isa_module, *,
            deadline_s: Optional[float] = None,
            sink: Optional[Sink] = None) -> SimulationResult:
        """Simulate ``isa_module`` from cycle 0 to completion.

        * ``deadline_s`` — wall-clock budget; exceeded -> raise
          :class:`WatchdogTimeout`.
        * ``sink`` — observer of every FU / HBM / link reservation the
          run makes (:data:`Sink`); :mod:`repro.sim.trace` builds its
          timeline from it.

        The whole module runs as one call into the C engine
        (:mod:`repro.sim.native`), which returns the same result as the
        Python loop of :meth:`_run_reference` — that loop is its oracle
        and the fallback when no C compiler is available.  In C the
        deadline is checked when the call returns, and a sink sees each
        chip's reservations in issue order once the run is over.
        """
        started_wall = time.monotonic()
        lib = native.load_library()
        if lib is None:
            return self._run_reference(isa_module, deadline_s, sink,
                                       started_wall)
        return self._run_native(lib, isa_module, deadline_s, sink,
                                started_wall)

    def _run_native(self, lib, isa_module, deadline_s, sink,
                    started_wall) -> SimulationResult:
        machine = self.machine
        chip_cfg = machine.chip
        ids = list(isa_module.streams)
        streams = list(isa_module.streams.values())
        run = native.simulate(lib, streams, machine, _FU_CLASS,
                              trace=sink is not None)
        rows = run.chips.tolist()
        pcs = [row[native.PC] for row in rows]
        if sink is not None:
            lanes = [f"{name}{index}"
                     for name, count in chip_cfg.fu_counts.items()
                     for index in range(max(1, count))] + ["hbm", "network"]
            for k, (chip, stream) in enumerate(zip(ids, streams)):
                base = int(run.chip_start[k])
                reserved = np.flatnonzero(run.lane[base:base + pcs[k]] >= 0)
                opcodes = list(stream.opcodes)
                for pc, lane, start, duration in zip(
                        reserved.tolist(),
                        run.lane[base + reserved].tolist(),
                        run.start[base + reserved].tolist(),
                        run.duration[base + reserved].tolist()):
                    sink(chip, lanes[lane], opcodes[pc], start, duration)
        if run.status == native.UNKNOWN_OPCODE:
            k, pc = run.failed_at
            raise ValueError(f"unknown opcode {streams[k].opcodes[pc]!r}")
        self._check_deadline(deadline_s, started_wall)
        if run.status == native.DEADLOCK:
            stuck = [(chip, pc) for chip, pc, stream
                     in zip(ids, pcs, streams) if pc < len(stream)]
            raise RuntimeError(f"simulation deadlock at {stuck}")

        finish = [row[native.FINISH] for row in rows]
        n = len(ids)
        fu_busy = defaultdict(float)
        for busy in run.fu_busy.tolist():
            for name, cycles in zip(chip_cfg.fu_counts, busy):
                fu_busy[name] += cycles / n
        return SimulationResult(
            machine=machine.name,
            cycles=max(finish),
            clock_ghz=chip_cfg.clock_ghz,
            instructions=run.instructions,
            fu_busy=dict(fu_busy),
            hbm_busy=sum(row[native.HBM_BUSY] for row in rows) / n,
            network_busy=sum(row[native.LINK_BUSY] for row in rows) / n,
            hbm_bytes=sum(row[native.HBM_BYTES] for row in rows),
            network_bytes=sum(row[native.LINK_BYTES] for row in rows),
            per_chip_cycles=dict(zip(ids, finish)),
            link_busy={chip: row[native.LINK_BUSY]
                       for chip, row in zip(ids, rows)},
            link_bytes={chip: row[native.LINK_BYTES]
                        for chip, row in zip(ids, rows)},
            topology=machine.topology,
        )

    def _check_deadline(self, deadline_s, started_wall) -> None:
        if deadline_s is None:
            return
        elapsed = time.monotonic() - started_wall
        if elapsed > deadline_s:
            raise WatchdogTimeout(
                f"simulation on {self.machine.name} exceeded its "
                f"{deadline_s:.3f}s deadline after {elapsed:.3f}s",
                deadline_s=deadline_s, elapsed_s=elapsed,
                machine=self.machine.name)

    def _run_reference(self, isa_module, deadline_s, sink,
                       started_wall) -> SimulationResult:
        """The Python engine: the C engine's oracle and its fallback.

        Cooperative cancellation: the deadline is checked between
        simulation rounds, so a worker thread exits cleanly.
        """
        machine = self.machine
        chip_cfg = machine.chip
        chips = {
            cid: _ChipState(cid, stream, chip_cfg, sink)
            for cid, stream in isa_module.streams.items()
        }
        # Contributions each collective waits for: one per ``col``.
        col_expected: Dict[int, int] = defaultdict(int)
        for chip in chips.values():
            for pc, (cid, _) in chip.network.items():
                if chip.opcodes[pc] == COL:
                    col_expected[cid] += 1
        # Collective bookkeeping: (cid, ...) -> contribution ready times.
        col_posted: Dict[int, List[int]] = defaultdict(list)
        col_complete: Dict[tuple, Optional[int]] = {}
        col_bytes: Dict[int, int] = defaultdict(int)
        snd_ready: Dict[int, int] = {}

        instructions = 0
        limb_bytes = chip_cfg.limb_bytes
        occupancies = {
            cls: chip_cfg.occupancy(cls) for cls in set(_FU_CLASS.values())
        }
        latency = chip_cfg.pipeline_latency

        # Round-robin over chips, blocking on unresolved collectives,
        # mirroring the emulator's execution discipline.
        while True:
            progress = False
            all_done = True
            for chip in chips.values():
                steps = 0
                while not chip.done and steps < 10000:
                    if not self._step(chip, chips, col_posted, col_expected,
                                      col_complete, col_bytes, snd_ready,
                                      occupancies, latency, limb_bytes):
                        break
                    instructions += 1
                    steps += 1
                    progress = True
                all_done = all_done and chip.done
            self._check_deadline(deadline_s, started_wall)
            if all_done:
                break
            if not progress:
                stuck = [(c.id, c.pc) for c in chips.values() if not c.done]
                raise RuntimeError(f"simulation deadlock at {stuck}")

        n = len(chips)
        fu_busy = defaultdict(float)
        for chip in chips.values():
            for name, pool in chip.fus.items():
                fu_busy[name] += pool.busy_cycles / n
        hbm_busy = sum(c.hbm.busy_cycles for c in chips.values()) / n
        net_busy = sum(c.link.busy_cycles for c in chips.values()) / n
        return SimulationResult(
            machine=machine.name,
            cycles=max(c.finish for c in chips.values()),
            clock_ghz=chip_cfg.clock_ghz,
            instructions=instructions,
            fu_busy=dict(fu_busy),
            hbm_busy=hbm_busy,
            network_busy=net_busy,
            hbm_bytes=sum(c.hbm.bytes_moved for c in chips.values()),
            network_bytes=sum(c.link.bytes_moved for c in chips.values()),
            per_chip_cycles={c.id: c.finish for c in chips.values()},
            link_busy={c.id: c.link.busy_cycles for c in chips.values()},
            link_bytes={c.id: c.link.bytes_moved for c in chips.values()},
            topology=machine.topology,
        )

    # ------------------------------------------------------------------ #

    def _step(self, chip: _ChipState, chips, col_posted, col_expected,
              col_complete, col_bytes, snd_ready, occupancies, latency,
              limb_bytes) -> bool:
        pc = chip.pc
        op = chip.opcodes[pc]
        srcs = chip.srcs[pc]
        reg_ready = chip.reg_ready
        earliest = chip.issue_time
        for reg in srcs:
            ready = reg_ready[reg]
            if ready > earliest:
                earliest = ready

        cls = _FU_CLASS.get(op)
        if cls is not None:
            pool = chip.fus[cls]
            # For the BCU the stage-1 buffer fill pipelines with the MAC of
            # the previous output limb, so each vbcv is charged only its
            # stage-2 pass (at the BCU's halved lane count).
            occupancy = occupancies[cls]
            start = pool.reserve(earliest, occupancy, op)
            done = start + occupancy + latency
            dest = chip.dests[pc]
            if dest is not None:
                reg_ready[dest] = done
        elif op == LD:
            done = chip.hbm.reserve(earliest, limb_bytes, op)
            reg_ready[chip.dests[pc]] = done
        elif op == ST:
            done = chip.hbm.reserve(earliest, limb_bytes, op)
        elif op == SND:
            done = chip.link.reserve(earliest, limb_bytes, op)
            snd_ready[chip.network[pc][0]] = done
        elif op == MOV:
            key = chip.network[pc][0]
            if key not in snd_ready:
                return False
            done = max(earliest, snd_ready.pop(key)) + \
                self.machine.hop_latency
            reg_ready[chip.dests[pc]] = done
        elif op == COL:
            cid, limbs_moved = chip.network[pc]
            # Contribution: the chip pushes its share onto its links.
            nbytes = len(srcs) * limb_bytes
            done = chip.link.reserve(earliest, nbytes, op) \
                if nbytes else earliest
            col_posted[cid].append(done)
            # Total payload the collective moves across chip boundaries
            # (limbs_moved from the limb IR), for the receivers' ingress.
            col_bytes[cid] = limbs_moved * limb_bytes
        elif op == RCV:
            cid = chip.network[pc][0]
            # A receive with no matching collective can never complete;
            # blocking here surfaces it as a deadlock instead of a crash.
            expected = col_expected.get(cid, 0)
            posted = col_posted[cid]
            if expected == 0 or len(posted) < expected:
                return False
            key = (cid, chip.id)
            if key not in col_complete:
                # All contributions posted: this chip pulls its share of
                # the payload off the interconnect through its own links.
                arrive = max(posted)
                n = max(1, len(posted))
                # Ring/switch collectives pipeline: each chip's links carry
                # roughly 1/n of the total payload crossing boundaries.
                per_chip = col_bytes[cid] / n
                done = chip.link.reserve(max(earliest, arrive), per_chip,
                                         op)
                col_complete[key] = done + self.machine.collective_latency
            done = max(earliest, col_complete[key])
            reg_ready[chip.dests[pc]] = done
        else:
            raise ValueError(f"unknown opcode {op!r}")

        if done > chip.finish:
            chip.finish = done
        chip.issue_time += 1
        chip.pc = pc + 1
        return True
