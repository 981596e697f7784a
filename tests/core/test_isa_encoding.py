"""Tests for ISA assembly text round-tripping."""

import numpy as np
import pytest

from repro.core import CompilerDriver, CinnamonProgram, CompilerOptions
from repro.core.isa.emulator import IsaEmulator, build_memory_image
from repro.core.isa.encoding import assemble, disassemble
from repro.fhe import CKKSContext, make_params


@pytest.fixture(scope="module")
def compiled_env():
    params = make_params(ring_degree=64, levels=5, prime_bits=28, num_digits=2)
    ctx = CKKSContext(params, seed=21)
    prog = CinnamonProgram("asm", level=5)
    a, b = prog.input("a"), prog.input("b")
    prog.output("y", (a * b).rotate(1))
    compiled = CompilerDriver(params, CompilerOptions(num_chips=2)).compile(prog)
    return params, ctx, compiled


class TestRoundTrip:
    def test_disassemble_structure(self, compiled_env):
        _, _, compiled = compiled_env
        text = disassemble(compiled.isa)
        assert ".chip 0" in text and ".chip 1" in text
        assert "vntt" in text and "vbcv" in text and "col" in text

    def test_reassembled_counts_match(self, compiled_env):
        _, _, compiled = compiled_env
        module = assemble(disassemble(compiled.isa))
        assert module.instruction_count == compiled.isa.instruction_count
        for chip in compiled.isa.streams:
            originals = compiled.isa.streams[chip]
            parsed = module.streams[chip]
            for orig, back in zip(originals, parsed):
                assert orig.opcode == back.opcode
                assert orig.dest == back.dest
                assert tuple(orig.srcs) == tuple(back.srcs)

    def test_reassembled_module_emulates_identically(self, compiled_env):
        params, ctx, compiled = compiled_env
        rng = np.random.default_rng(5)
        za = rng.uniform(-1, 1, params.slot_count)
        zb = rng.uniform(-1, 1, params.slot_count)
        inputs = {"a": ctx.encrypt_values(za), "b": ctx.encrypt_values(zb)}

        memory = build_memory_image(compiled, ctx, inputs)
        IsaEmulator(compiled, memory).run()
        direct = memory[f"output:y:0:0"].copy()

        compiled.isa = assemble(disassemble(compiled.isa))
        memory2 = build_memory_image(compiled, ctx, inputs)
        IsaEmulator(compiled, memory2).run()
        assert np.array_equal(direct, memory2["output:y:0:0"])

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            assemble("vadd r1 r2 r3\n")  # no .chip directive
