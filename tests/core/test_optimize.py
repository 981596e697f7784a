"""Tests for ciphertext-level DCE and CSE."""

import numpy as np
import pytest

from repro.core import CompilerDriver, CinnamonProgram, CompilerOptions
from repro.core.dsl import program as ct
from repro.core.ir.optimize import (
    eliminate_common_subexpressions,
    eliminate_dead_code,
    optimize,
)
from repro.core.isa.emulator import emulate
from repro.fhe import CKKSContext, make_params


class TestDce:
    def test_dead_ops_removed(self):
        prog = CinnamonProgram("d", level=6)
        a, b = prog.input("a"), prog.input("b")
        _dead = a * b           # never used
        _deader = _dead.rotate(3)
        prog.output("y", a + b)
        out = eliminate_dead_code(prog)
        assert out.count(ct.MUL) == 0
        assert out.count(ct.ROTATE) == 0
        assert out.count(ct.ADD) == 1

    def test_live_chain_kept(self):
        prog = CinnamonProgram("l", level=6)
        a = prog.input("a")
        prog.output("y", (a * a).rotate(1))
        out = eliminate_dead_code(prog)
        assert len(out.ops) == len(prog.ops)

    def test_dead_inputs_kept_in_mapping(self):
        # An unused input disappears from the op list but harmlessly.
        prog = CinnamonProgram("i", level=6)
        a = prog.input("a")
        prog.input("unused")
        prog.output("y", a)
        out = eliminate_dead_code(prog)
        assert "unused" not in out.inputs


class TestCse:
    def test_duplicate_rotations_merged(self):
        prog = CinnamonProgram("c", level=6)
        a, b = prog.input("a"), prog.input("b")
        prog.output("y", a.rotate(2) * b + a.rotate(2) * b)
        out = eliminate_common_subexpressions(prog)
        assert out.count(ct.ROTATE) == 1
        assert out.count(ct.MUL) == 1  # the whole product deduplicated

    def test_commutative_canonicalization(self):
        prog = CinnamonProgram("c2", level=6)
        a, b = prog.input("a"), prog.input("b")
        prog.output("y", (a * b) + (b * a))
        out = eliminate_common_subexpressions(prog)
        assert out.count(ct.MUL) == 1

    def test_different_rotations_not_merged(self):
        prog = CinnamonProgram("c3", level=6)
        a = prog.input("a")
        prog.output("y", a.rotate(1) + a.rotate(2))
        out = eliminate_common_subexpressions(prog)
        assert out.count(ct.ROTATE) == 2

    def test_subtraction_not_canonicalized(self):
        prog = CinnamonProgram("c4", level=6)
        a, b = prog.input("a"), prog.input("b")
        prog.output("y", (a - b) + (b - a))
        out = eliminate_common_subexpressions(prog)
        assert out.count(ct.SUB) == 2


class TestEndToEnd:
    def test_optimized_program_emulates_correctly(self):
        params = make_params(ring_degree=64, levels=6, prime_bits=28,
                             num_digits=2)
        ctx = CKKSContext(params, seed=31)
        rng = np.random.default_rng(2)
        za = rng.uniform(-1, 1, params.slot_count)
        zb = rng.uniform(-1, 1, params.slot_count)

        prog = CinnamonProgram("e2e", level=6)
        a, b = prog.input("a"), prog.input("b")
        _dead = a.rotate(5)
        y = a.rotate(2) * b + a.rotate(2) * b  # CSE target
        prog.output("y", y)

        compiled = CompilerDriver(
            params, CompilerOptions(num_chips=2)).compile(prog)
        # Dedup happened before lowering: a single rotation keyswitch
        # (plus one relinearization for the multiply).
        assert compiled.poly_program.keyswitch_count == 2
        outs = emulate(compiled, ctx,
                       {"a": ctx.encrypt_values(za),
                        "b": ctx.encrypt_values(zb)})
        expect = 2 * (np.roll(za, -2) * zb)
        got = ctx.decrypt_values(outs["y"]).real
        assert np.max(np.abs(got - expect)) < 1e-3

    def test_identity_rotations_fold_away(self):
        """A rotation by a multiple of the slot count (0 included) is the
        identity: no keyswitch, and the output decrypts to the input.
        (Rotations feeding an add stay for the keyswitch pass to fuse.)"""
        params = make_params(ring_degree=256, levels=6, prime_bits=28,
                             num_digits=2)
        ctx = CKKSContext(params, seed=5)
        rng = np.random.default_rng(4)
        za = rng.uniform(-1, 1, params.slot_count)
        zb = rng.uniform(-1, 1, params.slot_count)
        slots = params.slot_count

        prog = CinnamonProgram("identity", level=6)
        a, b = prog.input("a"), prog.input("b")
        prog.output("y", a.rotate(0))
        prog.output("z", b.rotate(slots).rotate(-2 * slots))
        compiled = CompilerDriver(
            params, CompilerOptions(num_chips=4)).compile(prog)
        assert compiled.poly_program.keyswitch_count == 0
        outs = emulate(compiled, ctx,
                       {"a": ctx.encrypt_values(za),
                        "b": ctx.encrypt_values(zb)})
        for name, expect in (("y", za), ("z", zb)):
            got = ctx.decrypt_values(outs[name]).real
            assert np.max(np.abs(got - expect)) < 1e-3, name

    def test_optimizations_can_be_disabled(self):
        params = make_params(ring_degree=64, levels=6, prime_bits=28,
                             num_digits=2)
        prog = CinnamonProgram("off", level=6)
        a, b = prog.input("a"), prog.input("b")
        prog.output("y", a.rotate(2) * b + a.rotate(2) * b)
        on = CompilerDriver(params, CompilerOptions(
            num_chips=1)).compile(prog, emit_isa=False)

        prog2 = CinnamonProgram("off2", level=6)
        a, b = prog2.input("a"), prog2.input("b")
        prog2.output("y", a.rotate(2) * b + a.rotate(2) * b)
        off = CompilerDriver(params, CompilerOptions(
            num_chips=1, enable_optimizations=False)).compile(
                prog2, emit_isa=False)
        assert off.poly_program.keyswitch_count > \
            on.poly_program.keyswitch_count

    def test_optimize_composes(self):
        prog = CinnamonProgram("comp", level=6)
        a = prog.input("a")
        _dead = a.rotate(1) + a.rotate(1)  # dead AND duplicated
        prog.output("y", a * a)
        out = optimize(prog)
        assert out.count(ct.ROTATE) == 0
        assert out.count(ct.ADD) == 0


class TestStreamPreservation:
    def test_cse_never_merges_across_streams(self):
        from repro.core.dsl import StreamPool

        prog = CinnamonProgram("st", level=6)
        shared = prog.input("shared")

        def fn(sid):
            prog.output(f"y{sid}", shared.rotate(3))

        StreamPool(prog, 2, fn)
        out = eliminate_common_subexpressions(prog)
        rotates = [op for op in out.ops if op.opcode == ct.ROTATE]
        assert len(rotates) == 2
        assert {op.stream for op in rotates} == {0, 1}
