"""Tests for the IsaModule container and instruction representation."""

from repro.core import CompilerDriver, CinnamonProgram, CompilerOptions
from repro.core.isa.instructions import COMPUTE, MEMORY, NETWORK, Instruction


class TestInstruction:
    def test_repr_with_symbol(self):
        ins = Instruction("ld", 3, (), {"symbol": "input:x:0:0"})
        text = repr(ins)
        assert "r3" in text and "input:x:0:0" in text

    def test_repr_compute(self):
        ins = Instruction("vadd", 2, (0, 1), {"prime": 17})
        assert repr(ins).startswith("vadd r2 <- r0,r1")

    def test_opcode_classes_disjoint(self):
        assert not set(COMPUTE) & set(MEMORY)
        assert not set(COMPUTE) & set(NETWORK)
        assert not set(MEMORY) & set(NETWORK)


class TestIsaModule:
    def test_counts(self, small_params):
        prog = CinnamonProgram("m", level=4)
        a = prog.input("a")
        prog.output("y", a + a)
        compiled = CompilerDriver(
            small_params, CompilerOptions(num_chips=2)).compile(prog)
        module = compiled.isa
        assert module.count("ld") > 0
        assert module.count("vadd") == 8  # one add per limb, x2 polys
        assert module.instruction_count == sum(
            len(module[c]) for c in module)

    def test_alloc_stats_per_chip(self, small_params):
        prog = CinnamonProgram("m2", level=4)
        a = prog.input("a")
        prog.output("y", a * a)
        compiled = CompilerDriver(
            small_params, CompilerOptions(num_chips=2)).compile(prog)
        assert set(compiled.isa.alloc_stats) == {0, 1}
        for stats in compiled.isa.alloc_stats.values():
            assert stats.peak_registers >= 0
