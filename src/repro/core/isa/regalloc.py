"""Belady's-MIN register allocation (Section 4.4).

The Cinnamon compiler allocates the vector register file with Belady's
optimal replacement policy: when a register is needed, evict the resident
value whose next use is furthest in the future.  Values that came from
memory loads (inputs, evaluation keys, plaintexts) are *rematerialized* by
re-loading their original symbol; computed values are spilled to HBM and
reloaded.  The resulting load/store traffic is what makes the register-file
size sweeps (Figure 6, Figure 16) meaningful.

Both sides of the allocator are typed columns.  Its input is an
:class:`AbstractStream` — one chip's pre-allocation instructions as int
arrays over SSA value ids (``opcode``, ``define``, the operands ``use`` in
CSR form, ``limb_op``) — and its output an
:class:`~repro.core.isa.instructions.InstructionStream` of the same kind
over registers.  Next-use distances come from one backward pass
(``following[k]`` is where the value in operand slot ``k`` is used next),
so the eviction scan is a dict lookup per resident value.

:func:`allocate_registers` runs the allocation in C (``_regalloc.c``, one
call per stream, built on first use by :mod:`repro.cbuild`), handing it
the stream's arrays and splicing the rows it inserts into the columns
with numpy.  The C loop is a port of :func:`_allocate_python`, which runs
instead when the library cannot be built or loaded and is the oracle the
C loop is tested against: the two produce the same columns, registers
included.  Value ids are non-negative int32s, checked when an abstract
stream is built and, for ``load_symbols``, before either loop runs.
"""

from __future__ import annotations

import ctypes
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

import numpy as np

from ...cbuild import NativeLibrary
from ..columns import (CodeNames, OptionalIds, Rows, row_starts,
                       splice_positions)
from .instructions import (CODES, ID_LIMIT, LD, OPCODES, ST,
                           InstructionStream, csr_column, id_column,
                           opcode_column, optional_id_column)

_NEVER = 1 << 60


class AbstractStream:
    """One chip's pre-allocation instructions: value ids, not registers.

    Entry ``i`` is ``opcode[i]`` (int8, numbered as
    :data:`~repro.core.isa.instructions.OPCODES`) defining value
    ``define[i]`` (int32, -1 for none) from the values
    ``use[use_start[i]:use_start[i + 1]]`` (int32 in CSR form).  Its attrs
    follow the :class:`InstructionStream` convention: ``side[i]`` when
    present is the complete dict, otherwise they are
    ``limb_attrs[limb_op[i]]`` — ``limb_attrs`` being the limb program's
    attrs column.  ``opcodes`` / ``defines`` / ``uses`` / ``limb_ops``
    read the columns as Python values.
    """

    __slots__ = ("opcode", "define", "use_start", "use", "limb_op",
                 "limb_attrs", "side", "foreign")

    def __init__(self, limb_attrs: List[dict], opcode: np.ndarray,
                 define: np.ndarray, use_start: np.ndarray, use: np.ndarray,
                 limb_op: np.ndarray, side: Dict[int, dict] = None,
                 foreign: tuple = ()):
        self.opcode = opcode
        self.define = define
        self.use_start = use_start
        self.use = use
        self.limb_op = limb_op
        self.limb_attrs = limb_attrs
        self.side: Dict[int, dict] = {} if side is None else side
        self.foreign = foreign

    @classmethod
    def from_entries(cls, entries: Iterable[tuple]) -> "AbstractStream":
        """A hand-built stream of ``(opcode, defines, uses, attrs)``
        entries, each carrying its own complete attrs.  Raises
        ``ValueError`` for a value id that is negative or not below
        2**31."""
        entries = list(entries)
        opcode, foreign = opcode_column([entry[0] for entry in entries])
        use_start, use = csr_column([tuple(entry[2]) for entry in entries],
                                    _bad_ids("operand value ids"))
        return cls(None, opcode, optional_id_column(
            [entry[1] for entry in entries], _bad_ids("defined value ids")),
            use_start, use, np.full(len(entries), -1, dtype=np.int32),
            {i: entry[3] for i, entry in enumerate(entries)}, foreign)

    @property
    def opcodes(self) -> CodeNames:
        return CodeNames(self.opcode, OPCODES + self.foreign)

    @property
    def defines(self) -> OptionalIds:
        return OptionalIds(self.define)

    @property
    def uses(self) -> Rows:
        return Rows(self.use_start, self.use)

    @property
    def limb_ops(self) -> OptionalIds:
        return OptionalIds(self.limb_op)

    def __len__(self) -> int:
        return len(self.opcode)


class LoadSymbols(Mapping):
    """``load_symbols`` read off a stream's columns instead of built per
    load: value ``ids[i]`` (ascending) came from an instruction with
    opcode code ``codes[i]`` whose symbol is its limb op's, so it maps to
    ``(OPCODES[codes[i]], limb_attrs[ids[i]]["symbol"])``.  The allocator
    looks up only the values it rematerialises."""

    __slots__ = ("ids", "codes", "limb_attrs")

    def __init__(self, ids: np.ndarray, codes: np.ndarray,
                 limb_attrs: List[dict]):
        self.ids = ids
        self.codes = codes
        self.limb_attrs = limb_attrs

    def __getitem__(self, value) -> Tuple[str, str]:
        at = int(np.searchsorted(self.ids, value))
        if at == len(self.ids) or self.ids[at] != value:
            raise KeyError(value)
        return (OPCODES[self.codes[at]],
                self.limb_attrs[int(self.ids[at])]["symbol"])

    def __iter__(self):
        return iter(self.ids.tolist())

    def __len__(self) -> int:
        return len(self.ids)


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
    rematerialization instead of spilling: a dict, or the
    :class:`LoadSymbols` codegen reads off the columns.
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
    _load_keys(load_symbols)
    uses = list(entries.uses)

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

    # The output columns, as lists.
    out_opcode: List[int] = []
    out_dest: List[int] = []
    out_srcs: List[Tuple[int, ...]] = []
    out_limb_op: List[int] = []
    side: Dict[int, dict] = {}
    reg_of: Dict[int, int] = {}    # insertion order breaks eviction ties
    free = list(range(num_registers - 1, -1, -1))
    spilled: set = set()
    inserted: List[int] = []       # entry index each extra instruction precedes
    stats = AllocationStats()

    def emit_extra(idx: int, opcode: str, dest: int, srcs: tuple,
                   symbol: str) -> None:
        side[len(out_opcode)] = {"symbol": symbol}
        out_opcode.append(CODES[opcode])
        out_dest.append(dest)
        out_srcs.append(srcs)
        out_limb_op.append(-1)
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
            emit_extra(idx, ST, -1, (reg,), f"spill:{victim}")
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
            zip(entries.opcode.tolist(), entries.define.tolist(), uses,
                entries.limb_op.tolist())):
        srcs = load_operands(operands, idx)
        for v in operands:      # consume this use
            next_use[v] = following[slot]
            slot += 1
        if define < 0:
            dest = -1
        else:
            dest = free.pop() if free else evict(idx, srcs)
            reg_of[define] = dest
        out_opcode.append(opcode)
        out_dest.append(dest)
        out_srcs.append(srcs)
        out_limb_op.append(limb_op)
        if len(reg_of) > peak:
            peak = len(reg_of)
        # Release values with no remaining uses: only this instruction's
        # operands and a use-less definition can have died.  The order
        # registers return to the free list decides every later register
        # number: it is the iteration order of this very set.
        candidates = set(operands)
        if define >= 0:
            candidates.add(define)
        for v in candidates:
            if v in reg_of and next_use.get(v, _NEVER) == _NEVER:
                free.append(reg_of.pop(v))
    stats.peak_registers = peak

    old_at, _ = splice_positions(len(uses), inserted)
    for idx, attrs in entries.side.items():
        side[int(old_at[idx])] = attrs
    src_start, src = csr_column(out_srcs, _bad_ids("registers"))
    return InstructionStream(
        entries.limb_attrs, opcode=np.array(out_opcode, dtype=np.int8),
        dest=np.array(out_dest, dtype=np.int32), src_start=src_start,
        src=src, limb_op=np.array(out_limb_op, dtype=np.int32), side=side,
        foreign=entries.foreign), stats


# ---------------------------------------------------------------------- #
# The C allocator

_SOURCE = Path(__file__).with_name("_regalloc.c")

#: Return codes of ``repro_allocate``.
_OK, _PRESSURE, _UNDEFINED, _NO_MEMORY, _OVERFLOW = range(5)
#: Kinds of the rows it inserts.
_SPILL, _RELOAD, _REMAT = range(3)


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


def _load_keys(load_symbols: Dict[int, Tuple[str, str]]) -> np.ndarray:
    """The value ids of ``load_symbols``, checked like a stream's."""
    if isinstance(load_symbols, LoadSymbols):
        return load_symbols.ids
    return id_column(load_symbols, len(load_symbols),
                     _bad_ids("load_symbols keys"))


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
    rematerialises."""
    n = len(entries.opcode)
    defined = entries.define >= 0
    use = entries.use
    real, local = _renumber(np.concatenate((entries.define[defined], use)))
    local_define = np.full(n, -1, dtype=np.int32)
    local_define[defined] = local[:len(local) - len(use)]
    keys = _load_keys(load_symbols)
    at = np.searchsorted(real, keys)
    hit = at < len(real)
    hit[hit] = real[at[hit]] == keys[hit]
    is_load = np.zeros(len(real), dtype=np.uint8)
    is_load[at[hit]] = 1
    use_count = np.diff(entries.use_start).astype(np.int32)
    return (local_define, use_count, local[len(local) - len(use):], real,
            is_load)


def _allocate_native(
    lib: ctypes.CDLL,
    entries: AbstractStream,
    num_registers: int,
    load_symbols: Dict[int, Tuple[str, str]],
) -> Tuple[InstructionStream, AllocationStats]:
    """:func:`allocate_registers` in one C call."""
    if num_registers < 16:
        raise ValueError("register file too small for keyswitch working sets")
    if num_registers >= ID_LIMIT:
        raise ValueError("num_registers must be below 2**31")
    n = len(entries.opcode)
    if not n:
        _load_keys(load_symbols)
        return (InstructionStream(entries.limb_attrs,
                                  foreign=entries.foreign),
                AllocationStats())
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

    # Inserted rows: opcode and symbol; every column spliced like the
    # Python loop's, row = entry + inserted rows before it.
    old_at, extra_at = splice_positions(n, extra_before[:extras])
    opcode = np.empty(rows, dtype=np.int8)
    opcode[old_at] = entries.opcode
    limb_op = np.full(rows, -1, dtype=np.int32)
    limb_op[old_at] = entries.limb_op
    kinds = extra_kind[:extras]
    values = extra_value[:extras].tolist()
    codes = np.where(kinds == _SPILL, CODES[ST], CODES[LD]).astype(np.int8)
    symbols = [f"spill:{value}" for value in values]
    for j in np.flatnonzero(kinds == _REMAT).tolist():
        name, symbols[j] = load_symbols[values[j]]
        codes[j] = CODES[name]
    opcode[extra_at] = codes
    side = dict(zip(extra_at.tolist(),
                    [{"symbol": symbol} for symbol in symbols]))
    for idx, attrs in entries.side.items():
        side[int(old_at[idx])] = attrs
    return InstructionStream(
        entries.limb_attrs, opcode=opcode, dest=out_dest[:rows].copy(),
        src_start=row_starts(out_count[:rows]), src=out_src[:srcs].copy(),
        limb_op=limb_op, side=side, foreign=entries.foreign), \
        AllocationStats(spills, reloads, peak)
