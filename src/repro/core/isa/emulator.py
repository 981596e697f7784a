"""Functional CPU emulator for the Cinnamon ISA.

The paper built "a CPU emulator for the Cinnamon ISA and used it to run all
the benchmarks" to test compiler correctness (Section 6.2); this module is
that emulator.  It executes the per-chip instruction streams with real
numpy limb data — registers hold limbs, collectives synchronize chips, and
the memory image is built from an actual :class:`repro.fhe.CKKSContext` —
so a compiled program's outputs can be decrypted and compared against the
functional evaluator.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

import numpy as np

from ...fhe.ciphertext import Ciphertext
from ...fhe.evaluator import CKKSContext
from ...fhe.modmath import UINT, centered, from_signed
from ...fhe.ntt import eval_automorphism, intt, ntt
from ...fhe.polynomial import EVAL, RnsPolynomial
from ..compiler import CompiledProgram
from .instructions import (
    COL, LD, MOV, RCV, SND, ST, VADD, VAUTO, VBCV, VINTT, VMUL, VMULC, VNEG,
    VNTT, VPRNG, VRSV, VSUB,
)


class MemoryImage:
    """Name -> limb array storage shared by all chips (models HBM)."""

    def __init__(self):
        self.data: Dict[str, np.ndarray] = {}

    def __setitem__(self, symbol: str, limb: np.ndarray):
        self.data[symbol] = np.asarray(limb, dtype=UINT)

    def __getitem__(self, symbol: str) -> np.ndarray:
        if symbol not in self.data:
            raise KeyError(f"memory symbol {symbol!r} not populated")
        return self.data[symbol]

    def __contains__(self, symbol):
        return symbol in self.data


def build_memory_image(
    compiled: CompiledProgram,
    context: CKKSContext,
    inputs: Dict[str, Ciphertext],
    plaintexts: Dict[str, np.ndarray] = None,
) -> MemoryImage:
    """Populate HBM for an emulation run.

    * program inputs from the given ciphertexts;
    * evaluation keys from the context's keychain (with the digit
      partitions the compiler chose);
    * plaintext operands encoded at the compiler-inferred scales.
    """
    plaintexts = plaintexts or {}
    params = context.params
    memory = MemoryImage()

    for name, op_id in compiled.ct_program.inputs.items():
        if name not in inputs:
            raise KeyError(f"no ciphertext bound for program input {name!r}")
        ct = inputs[name]
        level = compiled.ct_program.ops[op_id].level
        ct = ct.at_level(level)
        for comp, poly in enumerate(ct.polys):
            poly = poly.to_eval()
            for i in range(poly.level):
                memory[f"input:{name}:{comp}:{i}"] = poly.data[i]

    for key, level, partition_sig in compiled.limb_program.evalkeys:
        if key == "relin":
            purpose = "relin"
        elif key.startswith("galois"):
            purpose = ("galois", int(key[len("galois"):]))
        else:
            raise ValueError(f"unknown evalkey tag {key!r}")
        if partition_sig.startswith("m"):
            n = int(partition_sig[1:])
            partition = tuple(
                tuple(i for i in range(level) if i % n == c) for c in range(n)
            )
        else:
            partition = params.digit_partition(level, int(partition_sig[1:]))
        evk = context.keychain.switching_key(purpose, level, partition)
        for digit_index, (b, a) in enumerate(evk.digits):
            for comp, poly in enumerate((b, a)):
                for pos in range(poly.level):
                    memory[
                        f"evk:{key}:{level}:{partition_sig}:"
                        f"{digit_index}:{comp}:{pos}"
                    ] = poly.data[pos]

    encoder = context.encoder
    for key, definition in compiled.limb_program.plaintext_defs.items():
        level = definition["level"]
        scale = definition["pt_scale"]
        if scale is None:
            scale = params.scale_at_level(level)
        if definition.get("constant") is not None:
            pt = encoder.encode_constant(
                complex(definition["constant"]), scale=scale, level=level)
        else:
            name = definition["plaintext"]
            if name not in plaintexts:
                raise KeyError(f"no values bound for plaintext {name!r}")
            pt = encoder.encode(plaintexts[name], scale=scale, level=level)
        poly = pt.poly.to_eval()
        for i in range(level):
            memory[f"{key}:{i}"] = poly.data[i]
    return memory


class _Chip:
    def __init__(self, chip_id: int, stream):
        self.id = chip_id
        self.stream = stream
        # Only operation parameters are read here, never ``limb_op``, so
        # the attrs are taken by reference: no per-instruction objects.
        self.attrs = stream.operation_attrs()
        self.pc = 0
        self.regs: Dict[int, np.ndarray] = {}

    @property
    def done(self) -> bool:
        return self.pc >= len(self.attrs)


class IsaEmulator:
    """Round-robin multi-chip executor with collective synchronization."""

    def __init__(self, compiled: CompiledProgram, memory: MemoryImage):
        if compiled.isa is None:
            raise ValueError("program was compiled without ISA emission")
        self.compiled = compiled
        self.memory = memory
        self.chips = [
            _Chip(c, compiled.isa.streams[c]) for c in sorted(compiled.isa.streams)
        ]
        self.mailbox: Dict[tuple, list] = defaultdict(list)
        self.p2p: Dict[int, np.ndarray] = {}
        self.executed = 0

    # ------------------------------------------------------------------ #

    def run(self) -> None:
        """Execute all chips to completion (raises on deadlock)."""
        while True:
            progress = False
            alldone = True
            for chip in self.chips:
                while not chip.done:
                    if not self._step(chip):
                        break
                    progress = True
                alldone = alldone and chip.done
            if alldone:
                return
            if not progress:
                stuck = [(c.id, c.pc, repr(c.stream[c.pc]))
                         for c in self.chips if not c.done]
                raise RuntimeError(f"emulator deadlock at {stuck}")

    # ------------------------------------------------------------------ #

    def _step(self, chip: _Chip) -> bool:
        """Execute one instruction; returns False if it must block."""
        pc = chip.pc
        stream = chip.stream
        op = stream.opcodes[pc]
        dest = stream.dests[pc]
        srcs = stream.srcs[pc]
        regs = chip.regs
        attrs = chip.attrs[pc]

        if op == RCV:
            key = (attrs["cid"], attrs["tag"])
            arrived = self.mailbox.get(key, [])
            if len(arrived) < attrs["expected"]:
                return False
            if attrs["expected"] == 1:
                value = arrived[0]
            else:
                p = UINT(attrs["prime"])
                acc = np.zeros_like(arrived[0])
                for contribution in arrived:
                    acc = (acc + contribution) % p
                value = acc
            regs[dest] = value.copy()
        elif op == MOV:
            if attrs["key"] not in self.p2p:
                return False
            regs[dest] = self.p2p.pop(attrs["key"])
        elif op == SND:
            self.p2p[attrs["key"]] = regs[srcs[0]].copy()
        elif op == COL:
            for reg, tag in zip(srcs, attrs["tags"]):
                self.mailbox[(attrs["cid"], tag)].append(regs[reg].copy())
        elif op in (LD, VPRNG):
            # vprng regenerates a pseudorandom limb; functionally that is
            # the same data the keychain sampled, so read it from memory.
            regs[dest] = self.memory[attrs["symbol"]].copy()
        elif op == ST:
            self.memory[attrs["symbol"]] = regs[srcs[0]].copy()
        elif op == VADD:
            p = UINT(attrs["prime"])
            regs[dest] = (regs[srcs[0]] + regs[srcs[1]]) % p
        elif op == VSUB:
            p = UINT(attrs["prime"])
            regs[dest] = (regs[srcs[0]] + p - regs[srcs[1]]) % p
        elif op == VNEG:
            p = UINT(attrs["prime"])
            regs[dest] = (p - regs[srcs[0]]) % p
        elif op == VMUL:
            p = UINT(attrs["prime"])
            regs[dest] = (regs[srcs[0]] * regs[srcs[1]]) % p
        elif op == VMULC:
            p = UINT(attrs["prime"])
            regs[dest] = (regs[srcs[0]] * UINT(attrs["scalar"])) % p
        elif op == VNTT:
            regs[dest] = ntt(regs[srcs[0]], attrs["prime"])
        elif op == VINTT:
            regs[dest] = intt(regs[srcs[0]], attrs["prime"])
        elif op == VAUTO:
            regs[dest] = eval_automorphism(
                regs[srcs[0]], attrs["galois"])
        elif op == VRSV:
            signed = centered(regs[srcs[0]], attrs["from_prime"])
            regs[dest] = from_signed(signed, attrs["to_prime"])
        elif op == VBCV:
            target = attrs["target_prime"]
            sources = attrs["source_primes"]
            p = UINT(target)
            acc = np.zeros_like(regs[srcs[0]])
            q_total = 1
            for q in sources:
                q_total *= q
            for reg, q in zip(srcs, sources):
                factor = UINT((q_total // q) % target)
                acc = (acc + regs[reg] * factor) % p
            regs[dest] = acc
        else:
            raise ValueError(f"unknown opcode {op!r}")
        chip.pc += 1
        self.executed += 1
        return True

    # ------------------------------------------------------------------ #

    def output_ciphertext(self, name: str, params) -> Ciphertext:
        """Reassemble a program output from stored limbs."""
        prog = self.compiled.ct_program
        if name not in prog.outputs:
            raise KeyError(f"no program output named {name!r}")
        producer = prog.ops[prog.outputs[name]]
        level = producer.level
        scale = producer.attrs.get("scale", params.scale_at_level(level))
        basis = params.basis_at_level(level)
        polys = []
        for comp in (0, 1):
            data = np.stack([
                self.memory[f"output:{name}:{comp}:{i}"] for i in range(level)
            ])
            polys.append(RnsPolynomial(basis, data, EVAL))
        return Ciphertext(polys, scale)


def emulate(compiled: CompiledProgram, context: CKKSContext,
            inputs: Dict[str, Ciphertext],
            plaintexts: Dict[str, np.ndarray] = None) -> Dict[str, Ciphertext]:
    """Convenience wrapper: build memory, run, collect all outputs."""
    memory = build_memory_image(compiled, context, inputs, plaintexts)
    emulator = IsaEmulator(compiled, memory)
    emulator.run()
    return {
        name: emulator.output_ciphertext(name, context.params)
        for name in compiled.ct_program.outputs
    }
