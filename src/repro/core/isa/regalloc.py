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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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
