"""Reference Belady allocator: the object-per-instruction implementation.

This is ``repro.core.isa.regalloc.allocate_registers`` as it stood before
the ISA streams became columnar (PR 16), moved here verbatim.  It is *not*
a second production path: ``test_regalloc_oracle.py`` compares the
columnar allocator against it on random abstract streams, because the
two must agree instruction for instruction — including the order dead
registers return to the free list, which is the iteration order of the
``candidates`` set below.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.isa.instructions import LD, ST, Instruction


@dataclass(slots=True)
class AbstractInstruction:
    """Pre-allocation instruction: SSA value ids instead of registers."""

    opcode: str
    defines: Optional[int] = None
    uses: Tuple[int, ...] = ()
    attrs: dict = field(default_factory=dict)


@dataclass
class AllocationStats:
    spill_stores: int = 0
    reloads: int = 0
    peak_registers: int = 0


def allocate_registers(
    entries: List[AbstractInstruction],
    num_registers: int,
    load_symbols: Dict[int, str],
) -> Tuple[List[Instruction], AllocationStats]:
    """Rewrite one chip's abstract stream with physical registers.

    ``load_symbols`` maps value ids that originated from a load (``ld``)
    or on-chip regeneration (``vprng``) to ``(opcode, symbol)``, enabling
    rematerialization instead of spilling.
    """
    if num_registers < 16:
        raise ValueError("register file too small for keyswitch working sets")

    # Next-use positions per value, in original indices.
    use_positions: Dict[int, List[int]] = defaultdict(list)
    for idx, entry in enumerate(entries):
        for v in entry.uses:
            use_positions[v].append(idx)
    for positions in use_positions.values():
        positions.reverse()  # pop() yields the earliest remaining use

    reg_of: Dict[int, int] = {}
    value_in: Dict[int, int] = {}  # reg -> value
    free = list(range(num_registers - 1, -1, -1))
    spilled: set = set()
    out: List[Instruction] = []
    stats = AllocationStats()

    def next_use(value: int, after: int) -> int:
        positions = use_positions.get(value)
        if not positions:
            return 1 << 60
        for p in reversed(positions):  # positions stored reversed
            if p >= after:
                return p
        return 1 << 60

    def evict(idx: int, pinned: set) -> int:
        victim = None
        victim_use = -1
        for value, reg in reg_of.items():
            if reg in pinned:
                continue
            nu = next_use(value, idx)
            if nu > victim_use:
                victim_use = nu
                victim = value
        if victim is None:
            raise RuntimeError("register pressure exceeds pinned operands")
        reg = reg_of.pop(victim)
        del value_in[reg]
        if victim_use < (1 << 60) and victim not in load_symbols \
                and victim not in spilled:
            out.append(Instruction(ST, None, (reg,),
                                   {"symbol": f"spill:{victim}"}))
            spilled.add(victim)
            stats.spill_stores += 1
        return reg

    def take_register(idx: int, pinned: set) -> int:
        if free:
            return free.pop()
        return evict(idx, pinned)

    def ensure_loaded(value: int, idx: int, pinned: set) -> int:
        if value in reg_of:
            return reg_of[value]
        reg = take_register(idx, pinned)
        if value in load_symbols:
            opcode, symbol = load_symbols[value]
        elif value in spilled:
            opcode, symbol = LD, f"spill:{value}"
        else:
            raise RuntimeError(
                f"value %{value} used before definition on this chip"
            )
        out.append(Instruction(opcode, reg, (), {"symbol": symbol}))
        stats.reloads += 1
        reg_of[value] = reg
        value_in[reg] = value
        return reg

    for idx, entry in enumerate(entries):
        pinned = set()
        src_regs = []
        for v in entry.uses:
            reg = ensure_loaded(v, idx, pinned)
            pinned.add(reg)
            src_regs.append(reg)
        # Consume this use.
        for v in entry.uses:
            positions = use_positions.get(v)
            while positions and positions[-1] <= idx:
                positions.pop()
        dest_reg = None
        if entry.defines is not None:
            dest_reg = take_register(idx, pinned)
            reg_of[entry.defines] = dest_reg
            value_in[dest_reg] = entry.defines
        out.append(Instruction(entry.opcode, dest_reg, tuple(src_regs),
                               dict(entry.attrs)))
        stats.peak_registers = max(stats.peak_registers, len(reg_of))
        # Release values with no remaining uses.  Only this instruction's
        # operands (whose use was just consumed) and a use-less definition
        # can have died, so the check is O(operands), not O(live values).
        candidates = set(entry.uses)
        if entry.defines is not None:
            candidates.add(entry.defines)
        for v in candidates:
            if v in reg_of and not use_positions.get(v):
                reg = reg_of.pop(v)
                del value_in[reg]
                free.append(reg)
    return out, stats
