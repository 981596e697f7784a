"""Limb-IR verifier: structural invariants the lowering must uphold.

Run after lowering (and in tests) to catch compiler bugs early:

* **SSA**: every operand id refers to an earlier op; no forward refs.
* **Chip locality**: compute ops only read values produced on their own
  chip — any cross-chip value must arrive via a move or collective.
* **Domain discipline**: NTT consumes coefficient-domain limbs, INTT
  evaluation-domain ones; base conversion and RNS-resolve operate in the
  coefficient domain; automorphisms in the evaluation domain.
* **Collective integrity**: every ``lrecv`` names a collective that
  exists, participates in its group, and requests a tag the collective
  carries.
* **BCU bound**: no base conversion exceeds the configured input-limb
  limit (13 for the Cinnamon BCU).
"""

from __future__ import annotations

from typing import Dict

from . import limb_ir as lir


class VerificationError(AssertionError):
    """A structural invariant of the limb IR was violated."""


def verify_limb_program(program: lir.LimbProgram,
                        bconv_max_inputs: int = 13) -> int:
    """Check all invariants; returns the number of ops verified."""
    domains = program.domains
    producer_chip: Dict[int, int] = {}
    comm_ops: Dict[int, lir.LimbOp] = {}

    for op in program.ops:
        for value in op.inputs:
            if value >= op.id:
                raise VerificationError(
                    f"%{op.id} ({op.opcode}) uses not-yet-defined %{value}")

        if op.opcode == lir.L_COMM:
            comm_ops[op.attrs["cid"]] = op
            continue

        if op.opcode == lir.L_RECV:
            cid = op.attrs["cid"]
            if cid not in comm_ops:
                raise VerificationError(
                    f"%{op.id} receives from unknown collective {cid}")
            comm = comm_ops[cid]
            if op.chip not in comm.attrs["group"]:
                raise VerificationError(
                    f"%{op.id} on chip {op.chip} outside collective group "
                    f"{comm.attrs['group']}")
            if op.attrs["tag"] not in comm.attrs["tags"]:
                raise VerificationError(
                    f"%{op.id} requests tag {op.attrs['tag']!r} the "
                    f"collective does not carry")
            producer_chip[op.id] = op.chip
            continue

        if op.opcode == lir.L_MOV:
            src = op.inputs[0]
            if producer_chip.get(src) != op.attrs["from_chip"]:
                raise VerificationError(
                    f"%{op.id} moves %{src} from chip "
                    f"{op.attrs['from_chip']} but it lives on "
                    f"{producer_chip.get(src)}")
            producer_chip[op.id] = op.chip
            continue

        # Compute / load / store ops: all operands must be chip-local.
        for value in op.inputs:
            home = producer_chip.get(value)
            if home is not None and home != op.chip:
                raise VerificationError(
                    f"%{op.id} ({op.opcode}) on chip {op.chip} reads "
                    f"%{value} homed on chip {home} without a move")

        # Domain discipline.
        if op.opcode == lir.L_NTT:
            _expect_domain(domains, op, COEFF_IN=True)
        elif op.opcode == lir.L_INTT:
            _expect_domain(domains, op, COEFF_IN=False)
        elif op.opcode in (lir.L_BCONV, lir.L_RSV):
            _expect_domain(domains, op, COEFF_IN=True)
        elif op.opcode == lir.L_AUTO:
            _expect_domain(domains, op, COEFF_IN=False)

        if op.opcode == lir.L_BCONV and len(op.inputs) > bconv_max_inputs:
            raise VerificationError(
                f"%{op.id} converts {len(op.inputs)} input limbs; the BCU "
                f"supports at most {bconv_max_inputs}")

        if op.opcode != lir.L_STORE:
            producer_chip[op.id] = op.chip
    return len(program.opcodes)


def _expect_domain(domains, op, COEFF_IN: bool):
    want = lir.COEFF if COEFF_IN else lir.EVAL
    for value in op.inputs:
        got = domains.get(value)
        if got is not None and got != want:
            raise VerificationError(
                f"%{op.id} ({op.opcode}) expects {want}-domain operands; "
                f"%{value} is {got}")
