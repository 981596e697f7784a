"""The cycle simulator's C engine: columns -> int arrays -> one C call.

:meth:`repro.sim.simulator.SimulatorEngine.run` hands a whole multi-chip
module to ``_engine.c`` in one call.  This module owns that boundary: it
builds the library on demand (:class:`repro.cbuild.NativeLibrary`),
concatenates the streams' typed columns, and returns what the C loop
leaves behind.  The concatenated arrays live only for the call; nothing
is cached on the artifact.

The encoding, over all chips' instructions concatenated in stream order:

* ``opcode`` (int8) — the streams' own codes
  (:data:`repro.core.isa.instructions.OPCODES`); a code past the table
  names an opcode outside the ISA, raised as ``ValueError`` if the run
  reaches it;
* ``dest`` (int32) — the destination register, -1 for None;
* ``src_start`` (int64, one longer) / ``src`` (int32) — source registers
  in CSR form;
* ``net`` (int32) — for ``snd``/``mov`` the send key, for ``col``/``rcv``
  the collective id, each interned to a small int (-1 elsewhere);
* ``payload`` (int64) — a ``col``'s payload in limbs (its ``bytes``
  attr), 0 elsewhere.

If there is no compiler or the build fails, :func:`load_library` returns
None and the simulator runs its Python loop; :func:`build_error` says why.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from ..cbuild import NativeLibrary
from ..core.isa.instructions import CODES, COL, COMPUTE, RCV, SND

_SOURCE = Path(__file__).with_name("_engine.c")

_SND, _COL, _RCV = CODES[SND], CODES[COL], CODES[RCV]

#: Return codes of ``repro_simulate``.
OK, DEADLOCK, UNKNOWN_OPCODE, NO_MEMORY = range(4)

#: Columns of the per-chip output rows.
PC, FINISH, HBM_BUSY, HBM_BYTES, LINK_BUSY, LINK_BYTES = range(6)
_FIELDS = 6


def _configure(lib: ctypes.CDLL) -> None:
    lib.repro_simulate.restype = ctypes.c_int
    lib.repro_simulate.argtypes = [ctypes.c_void_p] * 18


_LIBRARY = NativeLibrary(_SOURCE, _configure)
#: The engine library (compiled once), or None on failure.
load_library = _LIBRARY.load
#: Why the C engine is unavailable (None when it is available).
build_error = _LIBRARY.build_error


@dataclass
class NativeRun:
    """What one C call left behind, per chip in stream order."""

    status: int
    instructions: int
    #: ``(chips, 6)``: pc, finish, HBM busy / bytes, link busy / bytes.
    chips: np.ndarray
    #: ``(chips, classes)`` FU busy cycles, classes in ``fu_counts`` order.
    fu_busy: np.ndarray
    #: Chip index and pc of an unknown opcode (``UNKNOWN_OPCODE`` only).
    failed_at: tuple
    #: Global row of each chip's first instruction (``chips + 1`` long).
    chip_start: np.ndarray
    #: Per-instruction reservation columns, when asked for: ``lane`` is
    #: -1 for an instruction that reserved nothing, else an index into
    #: the run's lane names (every FU unit, then ``hbm``, ``network``).
    lane: Optional[np.ndarray] = None
    start: Optional[np.ndarray] = None
    duration: Optional[np.ndarray] = None


def _concatenate(columns: List[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(columns) if columns else np.zeros(0, dtype=dtype)


def _address(array: np.ndarray) -> int:
    return array.ctypes.data


def simulate(lib: ctypes.CDLL, streams: List, machine,
             fu_class: Dict[str, str], trace: bool) -> NativeRun:
    """Run ``streams`` (one per chip, in round-robin order) on ``machine``
    in one C call.  ``fu_class`` maps each compute opcode to an FU class
    of ``machine.chip.fu_counts``; ``trace`` asks for the per-instruction
    reservation columns."""
    chip_cfg = machine.chip
    classes = list(chip_cfg.fu_counts)
    lengths = [len(stream) for stream in streams]
    chip_start = np.zeros(len(streams) + 1, dtype=np.int64)
    np.cumsum(lengths, out=chip_start[1:])
    total = int(chip_start[-1])

    opcode = _concatenate([s.opcode for s in streams], np.int8)
    dest = _concatenate([s.dest for s in streams], np.int32)
    src = _concatenate([s.src for s in streams], np.int32)
    src_start = np.zeros(total + 1, dtype=np.int64)
    offset = 0
    for s, lo, hi in zip(streams, chip_start.tolist(),
                         chip_start[1:].tolist()):
        src_start[lo + 1:hi + 1] = s.src_start[1:] + offset
        offset += len(s.src)
    if dest.min(initial=-1) < -1 or src.min(initial=0) < 0:
        raise ValueError("register indices must be non-negative")

    # Send keys and collective ids, interned; a col's payload in limbs.
    net = np.full(total, -1, dtype=np.int32)
    payload = np.zeros(total, dtype=np.int64)
    keys, cids = {}, {}
    network = np.flatnonzero((opcode >= _SND) & (opcode <= _RCV))
    interned, payloads = [], []
    for k, stream in enumerate(streams):
        base = int(chip_start[k])
        rows = network[(network >= base) & (network < chip_start[k + 1])]
        for row, code in zip(rows.tolist(), opcode[rows].tolist()):
            attrs = stream.attrs_at(row - base)
            if code == _COL or code == _RCV:
                interned.append(cids.setdefault(attrs["cid"], len(cids)))
                payloads.append(attrs["bytes"] if code == _COL else 0)
            else:
                interned.append(keys.setdefault(attrs["key"], len(keys)))
                payloads.append(0)
    net[network] = interned
    payload[network] = payloads
    registers = 1 + max(int(dest.max(initial=-1)), int(src.max(initial=-1)))

    class_of_code = np.array([classes.index(fu_class[op]) for op in COMPUTE],
                             dtype=np.int32)
    occupancy = np.array([chip_cfg.occupancy(name) for name in classes],
                         dtype=np.int64)
    units = np.array([max(1, chip_cfg.fu_counts[name]) for name in classes],
                     dtype=np.int64)
    cfg = np.array([
        len(streams), len(classes), chip_cfg.pipeline_latency,
        chip_cfg.limb_bytes, machine.hop_latency,
        machine.collective_latency, len(keys), len(cids), registers],
        dtype=np.int64)
    bandwidth = np.array([chip_cfg.hbm_bytes_per_cycle,
                          chip_cfg.link_bytes_per_cycle], dtype=np.float64)

    chips = np.zeros((len(streams), _FIELDS), dtype=np.int64)
    fu_busy = np.zeros((len(streams), len(classes)), dtype=np.int64)
    result = np.zeros(3, dtype=np.int64)
    lane = start = duration = None
    if trace:
        lane = np.full(total, -1, dtype=np.int32)
        start = np.zeros(total, dtype=np.int64)
        duration = np.zeros(total, dtype=np.int64)
    status = lib.repro_simulate(
        *map(_address, (cfg, bandwidth, class_of_code, occupancy, units,
                        chip_start, opcode, dest, src_start, src, net,
                        payload, chips, fu_busy)),
        *(None if a is None else _address(a)
          for a in (start, duration, lane)),
        _address(result))
    if status == NO_MEMORY:
        raise MemoryError("the C simulator could not allocate its state")
    instructions, chip, pc = result.tolist()
    return NativeRun(status, instructions, chips, fu_busy, (chip, pc),
                     chip_start, lane, start, duration)
