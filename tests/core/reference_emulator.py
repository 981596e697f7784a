"""Reference ISA emulator: one Python dispatch per limb instruction.

This is ``repro.core.isa.emulator.IsaEmulator`` as it stood before the
emulator became batch-scheduled (PR 21), moved here verbatim.  It is *not*
a second production path: ``test_emulator_oracle.py`` compares the
scheduled emulator against it — every memory symbol, bit for bit —
because the two must agree on what a register-allocated stream computes:
chips run round-robin in program order, every register read sees the
physical register file, ``st``/``ld`` go through the memory image.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

import numpy as np

from repro.core.compiler import CompiledProgram
from repro.core.isa.emulator import MemoryImage
from repro.core.isa.instructions import (
    COL, LD, MOV, RCV, SND, ST, VADD, VAUTO, VBCV, VINTT, VMUL, VMULC, VNEG,
    VNTT, VPRNG, VRSV, VSUB,
)
from repro.fhe.ciphertext import Ciphertext
from repro.fhe.modmath import UINT, centered, from_signed
from repro.fhe.ntt import eval_automorphism, intt, ntt
from repro.fhe.polynomial import EVAL, RnsPolynomial


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
