"""Limb IR -> per-chip Cinnamon ISA streams.

The limb IR is already in dependency order (the lowering emits ops
topologically), so code generation is a partitioning problem: route each
limb op to its chip's stream, split point-to-point moves into a send and a
receive, and expand collectives into one ``col`` contribution instruction
per participating chip plus the per-limb ``rcv`` ops the lowering emitted.
Belady's MIN then maps SSA values onto the physical register file,
inserting loads/stores as early as possible (Section 4.4).

Everything is columnar: one walk over the limb program's columns
(:func:`abstract_streams`) fills a per-chip
:class:`~repro.core.isa.regalloc.AbstractStream`, and the allocator
(:func:`allocate_streams`) turns each into an
:class:`~repro.core.isa.instructions.InstructionStream`.  The compiler
driver times the two as its ``codegen`` and ``regalloc`` passes.  A plain
instruction carries no attrs of its own — it names its limb op, whose
dict the stream shares by reference; only the instructions built here
(``col``/``snd``/``mov``/``rcv``) get a dict, in the stream's sparse side
table.  See docs/compiler.md, section 7.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

from ..ir import limb_ir as lir
from .instructions import (COL, LD, MOV, RCV, SND, ST, VPRNG, Instruction,
                           InstructionStream)
from .regalloc import AbstractStream, AllocationStats, allocate_registers

_OPCODE_MAP = {
    lir.L_ADD: "vadd",
    lir.L_SUB: "vsub",
    lir.L_NEG: "vneg",
    lir.L_MUL: "vmul",
    lir.L_MULC: "vmulc",
    lir.L_NTT: "vntt",
    lir.L_INTT: "vintt",
    lir.L_AUTO: "vauto",
    lir.L_RSV: "vrsv",
    lir.L_BCONV: "vbcv",
    lir.L_LOAD: "ld",
    lir.L_PRNG: "vprng",
    lir.L_STORE: "st",
}


class IsaModule:
    """Register-allocated per-chip instruction streams.

    ``streams[chip]`` is an :class:`InstructionStream`; plain lists of
    :class:`Instruction` (hand-built modules, the assembler) are converted
    to columns on construction.
    """

    def __init__(self, streams: Dict[int, Iterable[Instruction]],
                 alloc_stats: Dict[int, AllocationStats]):
        self.streams: Dict[int, InstructionStream] = {
            chip: stream if isinstance(stream, InstructionStream)
            else InstructionStream.from_instructions(stream)
            for chip, stream in streams.items()
        }
        self.alloc_stats = alloc_stats

    def __getitem__(self, chip: int) -> InstructionStream:
        return self.streams[chip]

    def __iter__(self):
        return iter(self.streams)

    @property
    def instruction_count(self) -> int:
        return sum(len(s.opcodes) for s in self.streams.values())

    def count(self, opcode: str) -> int:
        return sum(s.opcodes.count(opcode) for s in self.streams.values())


def generate_isa(limb: lir.LimbProgram, num_chips: int,
                 registers_per_chip: int) -> IsaModule:
    """Generate register-allocated instruction streams, one per chip."""
    return allocate_streams(*abstract_streams(limb, num_chips),
                            registers_per_chip)


def abstract_streams(limb: lir.LimbProgram, num_chips: int
                     ) -> Tuple[List[AbstractStream],
                                List[Dict[int, Tuple[str, str]]]]:
    """The limb-column walk: each chip's abstract stream, and per chip the
    values a load can rematerialise (``load_symbols``)."""
    opcodes, chips, inputs, limb_attrs = (
        limb.opcodes, limb.chips, limb.inputs, limb.attrs)
    abstract = [AbstractStream(limb_attrs) for _ in range(num_chips)]
    load_symbols: List[Dict[int, Tuple[str, str]]] = [
        {} for _ in range(num_chips)]

    # Expected contribution counts per (cid, tag) for aggregations.
    expected: Dict[Tuple[int, str], int] = defaultdict(int)
    for opcode, attrs in zip(opcodes, limb_attrs):
        if opcode == lir.L_COMM:
            for tag in attrs["tags"]:
                expected[(attrs["cid"], tag)] += 1

    # A value's id is its limb op's id and it lives on that op's chip, so
    # ``chips`` doubles as the value -> producer-chip map.
    for op_id, (opcode, chip, operands) in enumerate(
            zip(opcodes, chips, inputs)):
        isa_opcode = _OPCODE_MAP.get(opcode)
        if isa_opcode is not None:
            # The common case: attrs stay the limb op's, by reference.
            # Columns are appended inline — this runs once per limb op.
            stream = abstract[chip]
            stream.opcodes.append(isa_opcode)
            stream.defines.append(None if isa_opcode == ST else op_id)
            stream.uses.append(operands)
            stream.limb_ops.append(op_id)
            if isa_opcode == LD or isa_opcode == VPRNG:
                load_symbols[chip][op_id] = (
                    isa_opcode, limb_attrs[op_id]["symbol"])
            continue
        op_attrs = limb_attrs[op_id]
        if opcode == lir.L_COMM:
            group = op_attrs["group"]
            # One contribution instruction per participating chip.
            per_chip_sends: Dict[int, List[Tuple[int, str]]] = {
                c: [] for c in group
            }
            for value, tag in zip(operands, op_attrs["tags"]):
                per_chip_sends[chips[value]].append((value, tag))
            for c in group:
                sends = per_chip_sends[c]
                abstract[c].append(
                    COL, None, tuple(v for v, _ in sends),
                    {
                        "cid": op_attrs["cid"],
                        "kind": op_attrs["kind"],
                        "tags": tuple(t for _, t in sends),
                        "group": group,
                        "limb_op": op_id,
                        "bytes": op_attrs["limbs_moved"],
                    })
        elif opcode == lir.L_RECV:
            attrs = dict(op_attrs)
            attrs["limb_op"] = op_id
            attrs["expected"] = expected[(op_attrs["cid"], op_attrs["tag"])]
            abstract[chip].append(RCV, op_id, (), attrs)
        elif opcode == lir.L_MOV:
            src_chip = op_attrs["from_chip"]
            abstract[src_chip].append(
                SND, None, (operands[0],),
                {"key": op_id, "to_chip": chip, "limb_op": op_id})
            abstract[chip].append(
                MOV, op_id, (),
                {"key": op_id, "from_chip": src_chip, "limb_op": op_id,
                 "prime": op_attrs.get("prime")})
        else:
            raise ValueError(f"unknown limb opcode {opcode!r}")
    return abstract, load_symbols


def allocate_streams(abstract: List[AbstractStream],
                     load_symbols: List[Dict[int, Tuple[str, str]]],
                     registers_per_chip: int) -> IsaModule:
    """Register-allocate every chip's abstract stream."""
    streams: Dict[int, InstructionStream] = {}
    stats: Dict[int, AllocationStats] = {}
    for chip, entries in enumerate(abstract):
        if not entries.opcodes:
            streams[chip] = InstructionStream(entries.limb_attrs)
            stats[chip] = AllocationStats()
            continue
        streams[chip], stats[chip] = allocate_registers(
            entries, registers_per_chip, load_symbols[chip])
    return IsaModule(streams, stats)
