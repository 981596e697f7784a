"""Limb IR -> per-chip Cinnamon ISA streams.

The limb IR is already in dependency order (the lowering emits ops
topologically), so code generation is a partitioning problem: route each
limb op to its chip's stream, split point-to-point moves into a send and a
receive, and expand collectives into one ``col`` contribution instruction
per participating chip plus the per-limb ``rcv`` ops the lowering emitted.
Belady's MIN then maps SSA values onto the physical register file,
inserting loads/stores as early as possible (Section 4.4).

Everything is typed columns: :func:`abstract_streams` reads the limb
program's columns into int arrays once, partitions the plain ops per chip
with numpy and splices in the few network rows it builds in Python, giving
each chip an :class:`~repro.core.isa.regalloc.AbstractStream`; the
allocator (:func:`allocate_streams`) turns each into an
:class:`~repro.core.isa.instructions.InstructionStream`.  The compiler
driver times the two as its ``codegen`` and ``regalloc`` passes.  A plain
instruction carries no attrs of its own — it names its limb op, whose
dict the stream shares by reference; only the instructions built here
(``col``/``snd``/``mov``/``rcv``) get a dict, in the stream's sparse side
table.  See docs/compiler.md, section 7.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..columns import ranges, row_starts, splice_positions
from ..ir import limb_ir as lir
from .instructions import (CODES, COL, LD, MOV, RCV, SND, ST, VPRNG,
                           Instruction, InstructionStream)
from .regalloc import (AbstractStream, AllocationStats, LoadSymbols,
                       allocate_registers)

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

#: Limb opcode -> the code of the instruction a plain op becomes, or a
#: negative code for the network ops, which codegen expands itself.
_LIMB_CODE = {limb: CODES[isa] for limb, isa in _OPCODE_MAP.items()}
_LIMB_CODE.update({lir.L_COMM: -1, lir.L_MOV: -2, lir.L_RECV: -3})
_L_COMM, _L_MOV = _LIMB_CODE[lir.L_COMM], _LIMB_CODE[lir.L_MOV]
_ST, _LD, _VPRNG = CODES[ST], CODES[LD], CODES[VPRNG]


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
        return sum(len(s) for s in self.streams.values())

    def count(self, opcode: str) -> int:
        return sum(s.opcodes.count(opcode) for s in self.streams.values())


def generate_isa(limb: lir.LimbProgram, num_chips: int,
                 registers_per_chip: int) -> IsaModule:
    """Generate register-allocated instruction streams, one per chip."""
    return allocate_streams(*abstract_streams(limb, num_chips),
                            registers_per_chip)


def abstract_streams(limb: lir.LimbProgram, num_chips: int
                     ) -> Tuple[List[AbstractStream], List[LoadSymbols]]:
    """Each chip's abstract stream, and per chip the values a load can
    rematerialise (``load_symbols``).

    A value's id is its limb op's id and it lives on that op's chip.  A
    plain op becomes one row on its chip, in op order; a network op
    becomes rows at its own op position — an ``lcomm`` one ``col`` per
    group member, an ``lmov`` a ``snd`` on the sending chip and a ``mov``
    on the receiving one, an ``lrecv`` an ``rcv``.
    """
    opcodes, chips, inputs, limb_attrs = (
        limb.opcodes, limb.chips, limb.inputs, limb.attrs)
    n = len(opcodes)
    try:
        code = np.fromiter(map(_LIMB_CODE.__getitem__, opcodes),
                           dtype=np.int8, count=n)
    except KeyError as exc:
        raise ValueError(f"unknown limb opcode {exc.args[0]!r}") from None
    chip = np.fromiter(chips, dtype=np.int64, count=n)
    use_start = row_starts(np.fromiter(map(len, inputs), dtype=np.int64,
                                       count=n))
    use = np.fromiter(chain.from_iterable(inputs), dtype=np.int32,
                      count=int(use_start[-1]))

    if n and (chip.min() < 0 or chip.max() >= num_chips):
        raise ValueError(
            f"a limb op is placed outside chips 0..{num_chips - 1}")
    network = _network_rows(np.flatnonzero(code < 0).tolist(), code, chips,
                            inputs, limb_attrs, num_chips)

    abstract, load_symbols = [], []
    plain = code >= 0
    for c in range(num_chips):
        ops = np.flatnonzero(plain & (chip == c))
        op_code = code[ops]
        define = ops.astype(np.int32)
        define[op_code == _ST] = -1
        counts = use_start[ops + 1] - use_start[ops]
        # The network rows go in at their ops' positions.
        rows = network[c]
        old_at, net_at = splice_positions(
            len(ops), np.searchsorted(ops, [row[0] for row in rows]))
        net_counts = np.array([len(row[3]) for row in rows], dtype=np.int64)
        width = _spliced(np.int64, old_at, counts, net_at, net_counts)
        stream_start = row_starts(width)
        stream_use = np.empty(int(stream_start[-1]), dtype=np.int32)
        stream_use[ranges(stream_start[old_at], counts)] = use[
            ranges(use_start[ops], counts)]
        stream_use[ranges(stream_start[net_at], net_counts)] = list(
            chain.from_iterable(row[3] for row in rows))
        abstract.append(AbstractStream(
            limb_attrs,
            _spliced(np.int8, old_at, op_code, net_at,
                     [row[1] for row in rows]),
            _spliced(np.int32, old_at, define, net_at,
                     [row[2] for row in rows]),
            stream_start, stream_use,
            _spliced(np.int32, old_at, ops, net_at, -1),
            {at: row[4] for at, row in zip(net_at.tolist(), rows)}))

        loads = (op_code == _LD) | (op_code == _VPRNG)
        load_symbols.append(LoadSymbols(define[loads], op_code[loads],
                                        limb_attrs))
    return abstract, load_symbols


def _spliced(dtype, old_at: np.ndarray, old, new_at: np.ndarray, new
             ) -> np.ndarray:
    """A column of ``old`` values at ``old_at`` and ``new`` at ``new_at``
    (:func:`~repro.core.columns.splice_positions`)."""
    out = np.empty(len(old_at) + len(new_at), dtype=dtype)
    out[old_at] = old
    out[new_at] = new
    return out


def _network_rows(ops: List[int], code: np.ndarray, chips: List[int],
                  inputs: List[tuple], limb_attrs: List[dict],
                  num_chips: int) -> List[List[tuple]]:
    """Per chip, in op order, the rows the network ops ``ops`` become:
    ``(op, opcode code, define or -1, uses, attrs)``."""
    codes = code[ops].tolist()
    # Expected contribution counts per (cid, tag) for aggregations.
    expected: Dict[Tuple[int, str], int] = defaultdict(int)
    for op_id, kind in zip(ops, codes):
        if kind == _L_COMM:
            attrs = limb_attrs[op_id]
            for tag in attrs["tags"]:
                expected[(attrs["cid"], tag)] += 1

    rows: List[List[tuple]] = [[] for _ in range(num_chips)]
    for op_id, kind in zip(ops, codes):
        op_attrs = limb_attrs[op_id]
        operands = inputs[op_id]
        chip = chips[op_id]
        if kind == _L_COMM:
            group = op_attrs["group"]
            # One contribution instruction per participating chip.
            per_chip_sends: Dict[int, List[Tuple[int, str]]] = {
                c: [] for c in group
            }
            for value, tag in zip(operands, op_attrs["tags"]):
                per_chip_sends[chips[value]].append((value, tag))
            for c in group:
                sends = per_chip_sends[c]
                rows[c].append((op_id, CODES[COL], -1,
                                tuple(v for v, _ in sends), {
                                    "cid": op_attrs["cid"],
                                    "kind": op_attrs["kind"],
                                    "tags": tuple(t for _, t in sends),
                                    "group": group,
                                    "limb_op": op_id,
                                    "bytes": op_attrs["limbs_moved"],
                                }))
        elif kind == _L_MOV:
            src_chip = op_attrs["from_chip"]
            rows[src_chip].append((
                op_id, CODES[SND], -1, (operands[0],),
                {"key": op_id, "to_chip": chip, "limb_op": op_id}))
            rows[chip].append((
                op_id, CODES[MOV], op_id, (),
                {"key": op_id, "from_chip": src_chip, "limb_op": op_id,
                 "prime": op_attrs.get("prime")}))
        else:
            attrs = dict(op_attrs)
            attrs["limb_op"] = op_id
            attrs["expected"] = expected[(op_attrs["cid"], op_attrs["tag"])]
            rows[chip].append((op_id, CODES[RCV], op_id, (), attrs))
    return rows


def allocate_streams(abstract: List[AbstractStream],
                     load_symbols: List[LoadSymbols],
                     registers_per_chip: int) -> IsaModule:
    """Register-allocate every chip's abstract stream."""
    streams: Dict[int, InstructionStream] = {}
    stats: Dict[int, AllocationStats] = {}
    for chip, entries in enumerate(abstract):
        if not len(entries):
            streams[chip] = InstructionStream(entries.limb_attrs)
            stats[chip] = AllocationStats()
            continue
        streams[chip], stats[chip] = allocate_registers(
            entries, registers_per_chip, load_symbols[chip])
    return IsaModule(streams, stats)
