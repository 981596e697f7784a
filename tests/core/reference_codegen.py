"""Reference codegen walk: the list-column implementation.

This is ``repro.core.isa.codegen.abstract_streams`` as it stood before
the abstract streams became typed numpy columns: one Python iteration per
limb op, appending to per-chip list columns.  It is *not* a second
production path: ``test_codegen_oracle.py`` compares the typed walk
against it, because the two must produce the same abstract streams — the
same rows in the same order, the same side dicts, the same rematerialisable
loads.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.ir import limb_ir as lir
from repro.core.isa.instructions import COL, LD, MOV, RCV, SND, ST, VPRNG

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


@dataclass
class ListStream:
    """One chip's abstract stream as plain list columns."""

    opcodes: List[str] = field(default_factory=list)
    defines: List[Optional[int]] = field(default_factory=list)
    uses: List[Tuple[int, ...]] = field(default_factory=list)
    limb_ops: List[Optional[int]] = field(default_factory=list)
    side: Dict[int, dict] = field(default_factory=dict)

    def append(self, opcode, defines, uses, attrs) -> None:
        self.side[len(self.opcodes)] = attrs
        self.opcodes.append(opcode)
        self.defines.append(defines)
        self.uses.append(uses)
        self.limb_ops.append(None)


def abstract_streams(limb: lir.LimbProgram, num_chips: int
                     ) -> Tuple[List[ListStream],
                                List[Dict[int, Tuple[str, str]]]]:
    """The limb-column walk: each chip's abstract stream, and per chip the
    values a load can rematerialise (``load_symbols``)."""
    opcodes, chips, inputs, limb_attrs = (
        limb.opcodes, limb.chips, limb.inputs, limb.attrs)
    abstract = [ListStream() for _ in range(num_chips)]
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
