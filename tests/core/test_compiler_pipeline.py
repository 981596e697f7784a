"""Integration tests: DSL -> poly IR -> limb IR -> ISA."""

import pytest

from repro.core import CompilerDriver, CinnamonProgram, CompilerOptions
from repro.core.dsl import StreamPool
from repro.core.ir import poly_ir
from repro.core.ir.limb_ir import (
    L_AUTO, L_BCONV, L_COMM, L_LOAD, L_NTT, L_PRNG, L_STORE,
)
from repro.fhe import ArchParams


@pytest.fixture(scope="module")
def compiled_simple(small_params):
    prog = CinnamonProgram("pipe", level=6)
    a, b = prog.input("a"), prog.input("b")
    c = a * b
    prog.output("y", c + c.rotate(1))
    return CompilerDriver(
        small_params, CompilerOptions(num_chips=2)).compile(prog)


class TestPolyLowering:
    def test_ciphertext_expands_to_two_polys(self, compiled_simple):
        poly = compiled_simple.poly_program
        assert poly.count(poly_ir.P_INPUT) == 4  # 2 inputs x 2 components

    def test_mul_produces_tensor_and_keyswitch(self, compiled_simple):
        poly = compiled_simple.poly_program
        assert poly.count(poly_ir.P_KS) >= 2  # relin + rotation, 2 comps each
        assert poly.count(poly_ir.P_MUL) >= 4

    def test_keyswitch_groups_share_id(self, compiled_simple):
        poly = compiled_simple.poly_program
        ks_ops = [op for op in poly.ops if op.opcode == poly_ir.P_KS]
        by_id = {}
        for op in ks_ops:
            by_id.setdefault(op.attrs["ks_id"], []).append(op)
        for members in by_id.values():
            assert sorted(m.attrs["component"] for m in members) == [0, 1]

    def test_keyswitch_count(self, compiled_simple):
        assert compiled_simple.poly_program.keyswitch_count == 2

    def test_bootstrap_requires_expansion(self, deep_params):
        prog = CinnamonProgram("b", level=3, bootstrap_output_level=2)
        x = prog.input("x")
        prog.output("y", x.bootstrap())
        # Compilation must route through the expansion, not crash lowering.
        compiled = CompilerDriver(
            deep_params, CompilerOptions(num_chips=1)).compile(
                prog, emit_isa=False)
        assert compiled.ct_program.count("bootstrap") == 0
        assert compiled.ct_program.count("mod_raise") == 1


class TestLimbLowering:
    def test_limbs_partitioned_modularly(self, small_params):
        prog = CinnamonProgram("part", level=6)
        a, b = prog.input("a"), prog.input("b")
        prog.output("y", a + b)
        compiled = CompilerDriver(
            small_params, CompilerOptions(num_chips=3)).compile(prog)
        loads = [op for op in compiled.limb_program.ops
                 if op.opcode == L_LOAD and op.attrs["symbol"].startswith("input")]
        for op in loads:
            limb_index = int(op.attrs["symbol"].rsplit(":", 1)[1])
            assert op.chip == limb_index % 3

    def test_single_chip_has_no_comm(self, small_params):
        prog = CinnamonProgram("solo", level=6)
        a = prog.input("a")
        prog.output("y", (a * a).rotate(3))
        compiled = CompilerDriver(
            small_params, CompilerOptions(num_chips=1)).compile(prog)
        assert compiled.limb_program.comm_events() == 0

    def test_keyswitch_emits_bconv_and_ntt(self, compiled_simple):
        lp = compiled_simple.limb_program
        assert lp.count(L_BCONV) > 0
        assert lp.count(L_NTT) > 0

    def test_evalkey_component1_uses_prng(self, compiled_simple):
        lp = compiled_simple.limb_program
        prngs = [op for op in lp.ops if op.opcode == L_PRNG]
        assert prngs
        assert all(":1:" in op.attrs["symbol"] for op in prngs)

    def test_outputs_stored(self, compiled_simple):
        lp = compiled_simple.limb_program
        stores = [op for op in lp.ops if op.opcode == L_STORE]
        assert len(stores) == 2 * 5  # 2 components x level-5 result

    def test_stream_placement(self, small_params):
        prog = CinnamonProgram("streams", level=6)

        def fn(sid):
            x = prog.input(f"x{sid}")
            prog.output(f"y{sid}", x * x)

        StreamPool(prog, 2, fn)
        compiled = CompilerDriver(
            small_params, CompilerOptions(num_chips=4)).compile(prog)
        lp = compiled.limb_program
        chips_by_input = {}
        for op in lp.ops:
            if op.opcode == L_LOAD and op.attrs["symbol"].startswith("input:x"):
                name = op.attrs["symbol"].split(":")[1]
                chips_by_input.setdefault(name, set()).add(op.chip)
        assert chips_by_input["x0"] <= {0, 1}
        assert chips_by_input["x1"] <= {2, 3}

    def test_symbolic_arch_params(self):
        """Compilation at N=64K scale works without concrete primes."""
        prog = CinnamonProgram("sym", level=10)
        a = prog.input("a")
        prog.output("y", (a * a).rotate(1))
        compiled = CompilerDriver(
            ArchParams(max_level=10), CompilerOptions(num_chips=4)).compile(prog)
        assert compiled.instruction_count > 0
        autos = [op for op in compiled.limb_program.ops if op.opcode == L_AUTO]
        assert autos and all(op.attrs["galois"] == pow(5, 1, 2 * 65536)
                             for op in autos)


class TestCommunicationByPolicy:
    def _compile(self, policy, small_params, chips=4, batching=True):
        prog = CinnamonProgram("comm", level=6)
        a, b = prog.input("a"), prog.input("b")
        c = a * b
        prog.output("y", c.rotate(1) + c.rotate(2) + c.rotate(3))
        return CompilerDriver(small_params, CompilerOptions(
            num_chips=chips, keyswitch_policy=policy,
            enable_batching=batching)).compile(prog)

    def test_cifher_moves_more_data(self, small_params):
        cif = self._compile("cifher", small_params)
        cin = self._compile("cinnamon", small_params)
        assert cif.limb_program.comm_limbs() > cin.limb_program.comm_limbs()

    def test_cinnamon_uses_aggregations(self, small_params):
        cin = self._compile("cinnamon", small_params)
        assert cin.limb_program.comm_events("aggregate") == 2

    def test_cifher_never_aggregates(self, small_params):
        cif = self._compile("cifher", small_params)
        assert cif.limb_program.comm_events("aggregate") == 0


class TestIsa:
    def test_register_budget_respected(self, small_params):
        prog = CinnamonProgram("regs", level=6)
        a, b = prog.input("a"), prog.input("b")
        acc = a
        for i in range(4):
            acc = acc * b if acc.level > 2 else acc
        prog.output("y", acc)
        compiled = CompilerDriver(small_params, CompilerOptions(
            num_chips=1, registers_per_chip=24)).compile(prog)
        for stream in compiled.isa.streams.values():
            for ins in stream:
                regs = list(ins.srcs) + ([ins.dest] if ins.dest is not None else [])
                assert all(r < 24 for r in regs)

    def test_small_register_file_spills_more(self, small_params):
        prog = CinnamonProgram("spill", level=8)
        a, b = prog.input("a"), prog.input("b")
        c = a * b
        prog.output("y", c.rotate(1) + c.rotate(2))
        tight = CompilerDriver(small_params, CompilerOptions(
            num_chips=1, registers_per_chip=24)).compile(prog)
        roomy = CompilerDriver(small_params, CompilerOptions(
            num_chips=1, registers_per_chip=224)).compile(prog)

        def traffic(c):
            return sum(s.spill_stores + s.reloads
                       for s in c.isa.alloc_stats.values())

        assert traffic(tight) > traffic(roomy)

    def test_instruction_count_positive(self, compiled_simple):
        assert compiled_simple.instruction_count > 100


class TestLayoutValidation:
    def test_oversized_stream_group_rejected(self, small_params):
        prog = CinnamonProgram("bad", level=4)
        prog.output("y", prog.input("a") * 1.0)
        with pytest.raises(ValueError, match="chips_per_stream"):
            CompilerDriver(small_params, CompilerOptions(
                num_chips=2, chips_per_stream=4)).compile(prog)

    def test_more_streams_than_groups_wraps(self, small_params):
        # 3 streams on a 2-group machine: stream 2 wraps onto group 0.
        prog = CinnamonProgram("wrap", level=4)

        def fn(sid):
            x = prog.input(f"x{sid}")
            prog.output(f"y{sid}", x * 1.0)

        StreamPool(prog, 3, fn)
        compiled = CompilerDriver(small_params, CompilerOptions(
            num_chips=4, chips_per_stream=2)).compile(prog)
        chips = {op.chip for op in compiled.limb_program.ops}
        assert chips <= {0, 1, 2, 3}
