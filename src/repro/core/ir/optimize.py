"""Classic ciphertext-level optimizations: DCE, CSE and identity folds.

FHE programs traced from high-level model code routinely contain repeated
subexpressions (the same rotation or plaintext product computed in several
layers) and dead values (activations traced but never consumed).  Both are
brutally expensive under FHE — one redundant rotation costs a whole
keyswitch — so the compiler runs:

* **dead-code elimination**: drop every op that cannot reach an output;
* **common-subexpression elimination**: value-number pure ops and reuse
  the first occurrence (commutative ops are canonicalized first); a
  rotation by a multiple of the slot count is the identity and numbers
  as its own input — unless it feeds an add, where the keyswitch pass
  may fuse it into a rotate-sum as a zero-rotation member.

Both run before the keyswitch pass so that deduplicated rotations can
still be batched.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..dsl import program as ct
from ..dsl.program import CinnamonProgram, CtOp

_COMMUTATIVE = {ct.ADD, ct.MUL}
# Ops safe to value-number: pure functions of their inputs and attrs.
_PURE = {
    ct.ADD, ct.SUB, ct.NEGATE, ct.MUL, ct.MUL_PLAIN, ct.ADD_PLAIN,
    ct.ROTATE, ct.CONJUGATE, ct.RESCALE, "mod_switch",
}


def eliminate_dead_code(prog: CinnamonProgram) -> CinnamonProgram:
    """Remove ops that no output transitively depends on."""
    live: Set[int] = set()
    worklist: List[int] = []
    for op in prog.ops:
        if op.opcode == ct.OUTPUT:
            live.add(op.id)
            worklist.extend(op.inputs)
    while worklist:
        op_id = worklist.pop()
        if op_id in live:
            continue
        live.add(op_id)
        worklist.extend(prog.ops[op_id].inputs)
    if len(live) == len(prog.ops):
        return prog
    return _rebuild(prog, keep=lambda op: op.id in live)


def _identity_rotations(prog: CinnamonProgram,
                        slot_count: Optional[int]) -> Set[int]:
    """Same-stream rotations by a whole number of slot-vector turns that
    feed no add (add trees of rotations are the keyswitch pass's)."""
    summed = {i for op in prog.ops if op.opcode == ct.ADD
              for i in op.inputs}
    return {op.id for op in prog.ops
            if op.opcode == ct.ROTATE and op.id not in summed
            and prog.ops[op.inputs[0]].stream == op.stream
            and (op.attrs["rotation"] == 0 or bool(slot_count)
                 and op.attrs["rotation"] % slot_count == 0)}


def eliminate_common_subexpressions(
        prog: CinnamonProgram,
        slot_count: Optional[int] = None) -> CinnamonProgram:
    """Reuse identical pure ops (value numbering); fold identity
    rotations (``slot_count`` is the ring's, ``N / 2``) into their input."""
    out = CinnamonProgram(prog.name, prog.input_level,
                          prog.bootstrap_output_level)
    out.num_streams = prog.num_streams
    mapping: Dict[int, int] = {}
    table: Dict[Tuple, int] = {}
    identities = _identity_rotations(prog, slot_count)
    for op in prog.ops:
        inputs = tuple(mapping[i] for i in op.inputs)
        if op.id in identities:
            mapping[op.id] = inputs[0]
            continue
        if op.opcode in _PURE:
            canon = tuple(sorted(inputs)) if op.opcode in _COMMUTATIVE \
                else inputs
            # The stream is part of the key: merging identical ops across
            # streams would silently serialize program-level parallelism.
            key = (op.opcode, op.stream, canon,
                   tuple(sorted((k, v) for k, v in op.attrs.items()
                                if not k.startswith("ks_"))))
            if key in table:
                mapping[op.id] = table[key]
                continue
        clone = CtOp(
            id=len(out.ops),
            opcode=op.opcode,
            inputs=inputs,
            level=op.level,
            stream=op.stream,
            attrs=dict(op.attrs),
        )
        out.ops.append(clone)
        mapping[op.id] = clone.id
        if op.opcode in _PURE:
            table[key] = clone.id
        if op.opcode == ct.INPUT:
            out.inputs[op.attrs["name"]] = clone.id
        elif op.opcode == ct.OUTPUT:
            out.outputs[op.attrs["name"]] = clone.inputs[0]
    out.plaintexts = dict(prog.plaintexts)
    return out


def _rebuild(prog: CinnamonProgram, keep) -> CinnamonProgram:
    out = CinnamonProgram(prog.name, prog.input_level,
                          prog.bootstrap_output_level)
    out.num_streams = prog.num_streams
    mapping: Dict[int, int] = {}
    for op in prog.ops:
        if not keep(op):
            continue
        clone = CtOp(
            id=len(out.ops),
            opcode=op.opcode,
            inputs=tuple(mapping[i] for i in op.inputs),
            level=op.level,
            stream=op.stream,
            attrs=dict(op.attrs),
        )
        out.ops.append(clone)
        mapping[op.id] = clone.id
        if op.opcode == ct.INPUT:
            out.inputs[op.attrs["name"]] = clone.id
        elif op.opcode == ct.OUTPUT:
            out.outputs[op.attrs["name"]] = clone.inputs[0]
    out.plaintexts = dict(prog.plaintexts)
    return out


def optimize(prog: CinnamonProgram,
             slot_count: Optional[int] = None) -> CinnamonProgram:
    """The standard pipeline: CSE (with identity folds), then DCE."""
    return eliminate_dead_code(
        eliminate_common_subexpressions(prog, slot_count))
