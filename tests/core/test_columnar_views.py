"""Contract of the columnar IRs' sequence views.

``LimbProgram.ops`` and ``IsaModule.streams[chip]`` store columns but must
still read like the lists of ``LimbOp`` / ``Instruction`` they replaced:
``len``, iteration, indexing, equality; and an artifact must survive
pickling and ``summarize_comm(release=True)`` (that simulating leaves it
untouched is pinned in ``tests/sim/test_simulator.py``).
"""

import pickle

import pytest

from repro.core import CompilerDriver, CinnamonProgram, CompilerOptions
from repro.core.ir import limb_ir as lir
from repro.core.isa.encoding import assemble, disassemble
from repro.core.isa.instructions import Instruction, InstructionStream
from repro.trust import artifact_digest


def _program():
    prog = CinnamonProgram("views", level=5)
    a, b = prog.input("a"), prog.input("b")
    prog.output("y", (a * b).rotate(1) + a)
    return prog


@pytest.fixture(scope="module")
def compiled(small_params):
    return CompilerDriver(
        small_params, CompilerOptions(num_chips=2)).compile(_program())


class TestLimbOpsView:
    def test_len_iter_index_agree(self, compiled):
        program = compiled.limb_program
        ops = program.ops
        listed = list(ops)
        assert len(ops) == len(listed) == len(program.opcodes) > 0
        assert [op.id for op in listed] == list(range(len(ops)))
        assert ops[0] == listed[0] and ops[-1] == listed[-1]
        assert ops[3:6] == listed[3:6]
        assert ops == listed and ops != listed[:-1]
        with pytest.raises(IndexError):
            ops[len(ops)]

    def test_yields_limb_ops_sharing_the_stored_attrs(self, compiled):
        program = compiled.limb_program
        op = program.ops[7]
        assert isinstance(op, lir.LimbOp)
        assert (op.opcode, op.chip, op.inputs) == (
            program.opcodes[7], program.chips[7], program.inputs[7])
        assert op.attrs is program.attrs[7]  # by reference: read-only

    def test_emit_is_the_only_way_in(self):
        program = lir.LimbProgram("p", 1)
        first = program.emit(lir.L_LOAD, 0, (), lir.EVAL,
                             {"symbol": "x", "prime": 17})
        second = program.emit(lir.L_NEG, 0, [first], lir.EVAL,
                              {"prime": 17})
        assert (first, second) == (0, 1)
        assert program.ops[1] == lir.LimbOp(1, lir.L_NEG, 0, (0,),
                                            {"prime": 17})
        assert program.domains == {0: lir.EVAL, 1: lir.EVAL}
        assert not hasattr(program.ops, "append")

    def test_ops_on_chip_and_counters(self, compiled):
        program = compiled.limb_program
        listed = list(program.ops)
        for chip in range(2):
            assert program.ops_on_chip(chip) == [
                op for op in listed
                if op.chip == chip or op.opcode == lir.L_COMM]
        assert program.count(lir.L_NTT) == sum(
            op.opcode == lir.L_NTT for op in listed)
        assert program.comm_events() == program.count(lir.L_COMM) > 0
        assert program.comm_limbs() == sum(
            op.attrs["limbs_moved"] if op.opcode == lir.L_COMM else 1
            for op in listed if op.opcode in (lir.L_COMM, lir.L_MOV))
        assert program.dump(limit=2) == "\n".join(map(repr, listed[:2]))


class TestInstructionStreamView:
    def test_len_iter_index_agree(self, compiled):
        for stream in compiled.isa.streams.values():
            assert isinstance(stream, InstructionStream)
            listed = list(stream)
            assert len(stream) == len(listed) == len(stream.opcodes) > 0
            assert all(isinstance(ins, Instruction) for ins in listed)
            assert stream[0] == listed[0] and stream[-1] == listed[-1]
            assert stream[2:5] == listed[2:5]
            assert stream == listed
            assert stream.index(listed[4]) <= 4
            with pytest.raises(IndexError):
                stream[len(stream)]
        assert compiled.isa.instruction_count == sum(
            len(s) for s in compiled.isa.streams.values())
        assert compiled.isa.count("vntt") == sum(
            ins.opcode == "vntt" for s in compiled.isa.streams.values()
            for ins in s)

    def test_attrs_are_the_limb_ops_plus_limb_op(self, compiled):
        limb_attrs = compiled.limb_program.attrs
        seen_plain = seen_side = 0
        for stream in compiled.isa.streams.values():
            assert stream.limb_attrs is limb_attrs  # shared, not copied
            by_reference = stream.operation_attrs()
            for pc, ins in enumerate(stream):
                if pc in stream.side:
                    assert ins.attrs is stream.side[pc] is by_reference[pc]
                    seen_side += 1
                else:
                    limb_op = stream.limb_ops[pc]
                    assert ins.attrs == {**limb_attrs[limb_op],
                                         "limb_op": limb_op}
                    assert by_reference[pc] is limb_attrs[limb_op]
                    seen_plain += 1
        assert seen_plain > seen_side > 0

    def test_hand_built_streams_become_columns(self):
        from repro.core.isa.codegen import IsaModule

        instructions = [Instruction("ld", 0, (), {"symbol": "x"}),
                        Instruction("vneg", 1, [0], {"prime": 17}),
                        Instruction("st", None, (1,), {})]
        module = IsaModule({0: instructions}, {})
        stream = module.streams[0]
        assert stream.opcodes == ["ld", "vneg", "st"]
        assert stream.srcs == [(), (0,), (1,)]
        assert stream == [Instruction("ld", 0, (), {"symbol": "x"}),
                          Instruction("vneg", 1, (0,), {"prime": 17}),
                          Instruction("st", None, (1,), {})]

    def test_assembly_round_trip_is_a_fixed_point(self, compiled):
        text = disassemble(compiled.isa)
        module = assemble(text)
        assert disassemble(module) == text
        for chip, stream in compiled.isa.streams.items():
            parsed = module.streams[chip]
            assert parsed.opcodes == stream.opcodes
            assert parsed.dests == stream.dests
            assert parsed.srcs == stream.srcs


class TestArtifactStability:
    def test_pickle_round_trip_preserves_streams_and_digest(self, compiled):
        clone = pickle.loads(pickle.dumps(compiled, pickle.HIGHEST_PROTOCOL))
        assert disassemble(clone.isa) == disassemble(compiled.isa)
        assert artifact_digest(clone) == artifact_digest(compiled)
        assert clone.limb_program.ops == compiled.limb_program.ops
        # The attrs column is still one list shared by IR and streams.
        assert all(s.limb_attrs is clone.limb_program.attrs
                   for s in clone.isa.streams.values())
        assert clone.simulate().cycles == compiled.simulate().cycles

    def test_release_drops_the_limb_ir_but_not_the_streams(self,
                                                           small_params):
        artifact = CompilerDriver(
            small_params, CompilerOptions(num_chips=2)).compile(_program())
        text = disassemble(artifact.isa)
        limb_ops = len(artifact.limb_program.ops)
        summary = artifact.summarize_comm(release=True)
        assert summary.limb_ops == limb_ops > 0
        assert len(artifact.limb_program.ops) == 0
        assert artifact.limb_program.ops == []
        assert artifact.limb_program.domains == {}
        assert disassemble(artifact.isa) == text
        assert artifact.summarize_comm().limb_ops == limb_ops
