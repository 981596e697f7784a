"""Belady's-MIN register allocation (Section 4.4).

The Cinnamon compiler allocates the vector register file with Belady's
optimal replacement policy: when a register is needed, evict the resident
value whose next use is furthest in the future.  Values that came from
memory loads (inputs, evaluation keys, plaintexts) are *rematerialized* by
re-loading their original symbol; computed values are spilled to HBM and
reloaded.  The resulting load/store traffic is what makes the register-file
size sweeps (Figure 6, Figure 16) meaningful.

Both sides of the allocator are columnar.  Its input is an
:class:`AbstractStream` — one chip's pre-allocation instructions as
parallel ``opcodes`` / ``defines`` / ``uses`` / ``limb_ops`` lists over SSA
value ids — and its output an
:class:`~repro.core.isa.instructions.InstructionStream`; the only object
an instruction keeps is its ``srcs`` register tuple.  Next-use
distances come from one backward pass (``following[k]`` is where the
value in operand slot ``k`` is used next), so the eviction scan is a dict
lookup per resident value.

:func:`allocate_registers` runs the allocation in C (``_regalloc.c``, one
call per stream, built on first use by :mod:`repro.cbuild`) and rebuilds
the stream's columns from the arrays it returns.  The C loop is a port of
:func:`_allocate_python`, which runs instead when the library cannot be
built or loaded and is the oracle the C loop is tested against: the two
produce the same instructions, registers included.  The C side takes
value ids as non-negative int32s, checked here before it is called.
"""

from __future__ import annotations

import ctypes
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, repeat, tee
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...cbuild import NativeLibrary
from .instructions import LD, ST, InstructionStream

_NEVER = 1 << 60


class AbstractStream:
    """One chip's pre-allocation instructions: value ids, not registers.

    Entry ``i`` is ``opcodes[i]`` defining value ``defines[i]`` (or None)
    from the values ``uses[i]``.  Its attrs follow the
    :class:`InstructionStream` convention: ``side[i]`` when present is the
    complete dict, otherwise they are ``limb_attrs[limb_ops[i]]`` —
    ``limb_attrs`` being the limb program's attrs column.
    """

    __slots__ = ("opcodes", "defines", "uses", "limb_ops", "limb_attrs",
                 "side")

    def __init__(self, limb_attrs: List[dict] = None):
        self.opcodes: List[str] = []
        self.defines: List[Optional[int]] = []
        self.uses: List[Tuple[int, ...]] = []
        self.limb_ops: List[Optional[int]] = []
        self.limb_attrs = limb_attrs
        self.side: Dict[int, dict] = {}

    def append(self, opcode: str, defines: Optional[int],
               uses: Tuple[int, ...], attrs: dict) -> None:
        """Add an entry that carries its own complete ``attrs``."""
        self.side[len(self.opcodes)] = attrs
        self.opcodes.append(opcode)
        self.defines.append(defines)
        self.uses.append(uses)
        self.limb_ops.append(None)


@dataclass
class AllocationStats:
    spill_stores: int = 0
    reloads: int = 0
    peak_registers: int = 0


def allocate_registers(
    entries: AbstractStream,
    num_registers: int,
    load_symbols: Dict[int, Tuple[str, str]],
) -> Tuple[InstructionStream, AllocationStats]:
    """Rewrite one chip's abstract stream with physical registers.

    ``load_symbols`` maps value ids that originated from a load (``ld``)
    or on-chip regeneration (``vprng``) to ``(opcode, symbol)``, enabling
    rematerialization instead of spilling.
    """
    lib = load_library()
    if lib is None:
        return _allocate_python(entries, num_registers, load_symbols)
    return _allocate_native(lib, entries, num_registers, load_symbols)


def _allocate_python(
    entries: AbstractStream,
    num_registers: int,
    load_symbols: Dict[int, Tuple[str, str]],
) -> Tuple[InstructionStream, AllocationStats]:
    """:func:`allocate_registers` as a Python loop: the C allocator's
    reference, and the path taken when it is unavailable."""
    if num_registers < 16:
        raise ValueError("register file too small for keyswitch working sets")
    uses = entries.uses

    # Backward pass.  Afterwards next_use[v] is v's first use, and
    # following[k] the next use of the value in the k-th operand slot of
    # the stream (operands of one instruction share their later uses).
    next_use: Dict[int, int] = {}
    following: List[int] = []
    idx = len(uses)
    for operands in reversed(uses):
        idx -= 1
        if operands:
            for v in reversed(operands):
                following.append(next_use.get(v, _NEVER))
            for v in operands:
                next_use[v] = idx
    following.reverse()

    out = InstructionStream(entries.limb_attrs)
    emit_opcode = out.opcodes.append
    emit_dest = out.dests.append
    emit_srcs = out.srcs.append
    emit_limb_op = out.limb_ops.append
    side = out.side
    reg_of: Dict[int, int] = {}    # insertion order breaks eviction ties
    free = list(range(num_registers - 1, -1, -1))
    spilled: set = set()
    inserted: List[int] = []       # entry index each extra instruction precedes
    stats = AllocationStats()

    def emit_extra(idx: int, opcode: str, dest, srcs, symbol: str) -> None:
        side[len(out.opcodes)] = {"symbol": symbol}
        emit_opcode(opcode)
        emit_dest(dest)
        emit_srcs(srcs)
        emit_limb_op(None)
        inserted.append(idx)

    def evict(idx: int, pinned) -> int:
        pinned = set(pinned)
        victim = None
        victim_use = -1
        for value, reg in reg_of.items():
            if reg in pinned:
                continue
            distance = next_use.get(value, _NEVER)
            if distance > victim_use:
                victim_use = distance
                victim = value
        if victim is None:
            raise RuntimeError("register pressure exceeds pinned operands")
        reg = reg_of.pop(victim)
        if victim_use < _NEVER and victim not in load_symbols \
                and victim not in spilled:
            emit_extra(idx, ST, None, (reg,), f"spill:{victim}")
            spilled.add(victim)
            stats.spill_stores += 1
        return reg

    def load_operands(operands, idx: int) -> Tuple[int, ...]:
        """Registers of ``operands``, reloading the non-resident ones."""
        regs = []
        for value in operands:
            reg = reg_of.get(value)
            if reg is None:
                reg = free.pop() if free else evict(idx, regs)
                if value in load_symbols:
                    opcode, symbol = load_symbols[value]
                elif value in spilled:
                    opcode, symbol = LD, f"spill:{value}"
                else:
                    raise RuntimeError(
                        f"value %{value} used before definition on this chip"
                    )
                emit_extra(idx, opcode, reg, (), symbol)
                stats.reloads += 1
                reg_of[value] = reg
            regs.append(reg)
        return tuple(regs)

    peak = 0
    slot = 0
    for idx, (opcode, define, operands, limb_op) in enumerate(
            zip(entries.opcodes, entries.defines, uses, entries.limb_ops)):
        srcs = load_operands(operands, idx)
        for v in operands:      # consume this use
            next_use[v] = following[slot]
            slot += 1
        if define is None:
            dest = None
        else:
            dest = free.pop() if free else evict(idx, srcs)
            reg_of[define] = dest
        emit_opcode(opcode)
        emit_dest(dest)
        emit_srcs(srcs)
        emit_limb_op(limb_op)
        if len(reg_of) > peak:
            peak = len(reg_of)
        # Release values with no remaining uses: only this instruction's
        # operands and a use-less definition can have died.  The order
        # registers return to the free list decides every later register
        # number: it is the iteration order of this very set.
        candidates = set(operands)
        if define is not None:
            candidates.add(define)
        for v in candidates:
            if v in reg_of and next_use.get(v, _NEVER) == _NEVER:
                free.append(reg_of.pop(v))
    stats.peak_registers = peak

    for idx, attrs in entries.side.items():
        side[idx + bisect_right(inserted, idx)] = attrs
    return out, stats


# ---------------------------------------------------------------------- #
# The C allocator

_SOURCE = Path(__file__).with_name("_regalloc.c")

#: Return codes of ``repro_allocate``.
_OK, _PRESSURE, _UNDEFINED, _NO_MEMORY, _OVERFLOW = range(5)
#: Kinds of the rows it inserts.
_SPILL, _RELOAD, _REMAT = range(3)
#: Value ids and register numbers cross into C as int32.
_ID_LIMIT = 1 << 31


def _configure(lib: ctypes.CDLL) -> None:
    lib.repro_allocate.restype = ctypes.c_int
    lib.repro_allocate.argtypes = [ctypes.c_void_p] * 13


_LIBRARY = NativeLibrary(_SOURCE, _configure)
#: The allocator library (compiled once), or None on failure.
load_library = _LIBRARY.load
#: Why the C allocator is unavailable (None when it is available).
build_error = _LIBRARY.build_error


def _bad_ids(what: str) -> ValueError:
    return ValueError(f"{what} must be non-negative ints below 2**31")


def _check_ids(column: np.ndarray, what: str) -> None:
    if column.size and (column.min() < 0 or column.max() >= _ID_LIMIT):
        raise _bad_ids(what)


def _id_column(values, count: int, what: str) -> np.ndarray:
    """``values`` as an int64 column, checked by :func:`_check_ids`."""
    try:
        column = np.fromiter(values, dtype=np.int64, count=count)
    except OverflowError:
        raise _bad_ids(what) from None
    _check_ids(column, what)
    return column


def _renumber(ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(real, local)``: the distinct ``ids`` in increasing order, and each
    id's index among them.  A lookup table when the ids are dense enough
    for one, else a sort."""
    limit = int(ids.max(initial=-1)) + 1
    if limit > 8 * len(ids) + (1 << 18):
        real, local = np.unique(ids, return_inverse=True)
        return real.astype(np.int32), local.astype(np.int32)
    seen = np.zeros(limit, dtype=bool)
    seen[ids] = True
    real = np.flatnonzero(seen).astype(np.int32)
    table = np.empty(limit, dtype=np.int32)
    table[real] = np.arange(len(real), dtype=np.int32)
    return real, table[ids]


def _native_columns(entries: AbstractStream,
                    load_symbols: Dict[int, Tuple[str, str]]):
    """The C call's inputs: ``define`` / ``use_count`` / ``use`` over
    chip-local values, and per local value its id and whether it
    rematerialises.  ValueError for ids C cannot take."""
    n = len(entries.opcodes)
    uses = entries.uses
    use_count = np.fromiter(map(len, uses), dtype=np.int32, count=n)
    m = int(use_count.sum(dtype=np.int64))
    use = _id_column(chain.from_iterable(uses), m, "operand value ids")
    try:
        define = np.array(entries.defines, dtype=np.float64)  # None: NaN
    except (OverflowError, TypeError):
        raise _bad_ids("defined value ids") from None
    defined = ~np.isnan(define)
    _check_ids(define[defined], "defined value ids")
    real, local = _renumber(np.concatenate(
        (define[defined].astype(np.int64), use)))
    local_define = np.full(n, -1, dtype=np.int32)
    local_define[defined] = local[:len(local) - m]
    keys = _id_column(load_symbols, len(load_symbols), "load_symbols keys")
    at = np.searchsorted(real, keys)
    hit = at < len(real)
    hit[hit] = real[at[hit]] == keys[hit]
    is_load = np.zeros(len(real), dtype=np.uint8)
    is_load[at[hit]] = 1
    return local_define, use_count, local[len(local) - m:], real, is_load


def _register_tuples(counts: np.ndarray, regs: np.ndarray) -> List[tuple]:
    """Row ``i``'s tuple of its ``counts[i]`` registers, the rows' registers
    lying back to back in ``regs``.

    The rows of one width become tuples in one ``zip``.  Equal tuples are
    kept once: a stream repeats few distinct register tuples.  The widths'
    tuples are then merged back into row order.
    """
    singles = [(reg,) for reg in range(1 + int(regs.max(initial=-1)))]
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    widths = np.flatnonzero(np.bincount(counts)).tolist()
    interned: Dict[tuple, tuple] = {}
    by_width: List = [None] * (widths[-1] + 1)
    for width in widths:
        rows = np.flatnonzero(counts == width)
        if width == 0:
            by_width[0] = repeat(())
        elif width == 1:
            by_width[1] = map(singles.__getitem__,
                              regs[starts[rows]].tolist())
        else:
            columns = regs[starts[rows][:, None] + np.arange(width)]
            keys, values = tee(zip(*columns.T.tolist()))
            by_width[width] = map(interned.setdefault, keys, values)
    return list(map(next, map(by_width.__getitem__, counts.tolist())))


def _splice(items: list, inserted: list, before: List[int]) -> list:
    """``items`` with each ``inserted[j]`` placed before ``items[before[j]]``
    (``before`` ascending)."""
    out = []
    start = 0
    for item, idx in zip(inserted, before):
        out += items[start:idx]
        out.append(item)
        start = idx
    out += items[start:]
    return out


def _allocate_native(
    lib: ctypes.CDLL,
    entries: AbstractStream,
    num_registers: int,
    load_symbols: Dict[int, Tuple[str, str]],
) -> Tuple[InstructionStream, AllocationStats]:
    """:func:`allocate_registers` in one C call."""
    if num_registers < 16:
        raise ValueError("register file too small for keyswitch working sets")
    if num_registers >= _ID_LIMIT:
        raise ValueError("num_registers must be below 2**31")
    n = len(entries.opcodes)
    out = InstructionStream(entries.limb_attrs)
    if not n:
        return out, AllocationStats()
    define, use_count, use, real, is_load = _native_columns(
        entries, load_symbols)

    # Every operand slot reloads at most once, and each reload or
    # definition evicts (and so spills) at most once.
    m = len(use)
    extras = 2 * m + n
    cfg = np.array([n, num_registers, len(real), extras], dtype=np.int64)
    out_dest = np.empty(n + extras, dtype=np.int32)
    out_count = np.empty(n + extras, dtype=np.int32)
    out_src = np.empty(m + extras, dtype=np.int32)
    extra_kind = np.empty(extras, dtype=np.int8)
    extra_value = np.empty(extras, dtype=np.int32)
    extra_before = np.empty(extras, dtype=np.int32)
    result = np.zeros(7, dtype=np.int64)
    status = lib.repro_allocate(*(array.ctypes.data for array in (
        cfg, define, use_count, use, real, is_load, out_dest, out_count,
        out_src, extra_kind, extra_value, extra_before, result)))
    if status == _PRESSURE:
        raise RuntimeError("register pressure exceeds pinned operands")
    if status == _UNDEFINED:
        raise RuntimeError(
            f"value %{int(result[6])} used before definition on this chip")
    if status == _NO_MEMORY:
        raise MemoryError("the C allocator could not allocate its state")
    if status != _OK:
        raise RuntimeError(f"the C allocator failed with status {status}")
    rows, srcs, extras, spills, reloads, peak = result[:6].tolist()

    dest = out_dest[:rows]
    out.dests = dest.tolist()
    for row in np.flatnonzero(dest < 0).tolist():     # no destination
        out.dests[row] = None
    out.srcs = _register_tuples(out_count[:rows], out_src[:srcs])
    # Inserted rows: opcode and symbol; every column spliced like the
    # Python loop's, row = entry + inserted rows before it.
    before = extra_before[:extras].tolist()
    opcodes = []
    for j, (kind, value) in enumerate(zip(extra_kind[:extras].tolist(),
                                          extra_value[:extras].tolist())):
        if kind == _REMAT:
            opcode, symbol = load_symbols[value]
        else:
            opcode, symbol = (ST if kind == _SPILL else LD), f"spill:{value}"
        opcodes.append(opcode)
        out.side[before[j] + j] = {"symbol": symbol}
    out.opcodes = _splice(entries.opcodes, opcodes, before)
    out.limb_ops = _splice(entries.limb_ops, [None] * extras, before)
    for idx, attrs in entries.side.items():
        out.side[idx + bisect_right(before, idx)] = attrs
    return out, AllocationStats(spills, reloads, peak)
