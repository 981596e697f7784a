"""Tests for the limb-IR verifier (and that real lowerings pass it)."""

import pytest

from repro.core import CompilerDriver, CinnamonProgram, CompilerOptions
from repro.core.ir import limb_ir as lir
from repro.core.ir.verifier import VerificationError, verify_limb_program
from repro.fhe import ArchParams


def _compile(policy="cinnamon", chips=4, params=None):
    params = params or ArchParams(max_level=10)
    prog = CinnamonProgram("v", level=min(10, params.max_level))
    a, b = prog.input("a"), prog.input("b")
    c = a * b
    prog.output("y", c.rotate(1) + c.rotate(2) + c.rotate(3))
    return CompilerDriver(params, CompilerOptions(
        num_chips=chips, keyswitch_policy=policy)).compile(
            prog, emit_isa=False)


class TestRealLoweringsVerify:
    @pytest.mark.parametrize("policy", ["cinnamon", "input_broadcast",
                                        "cifher"])
    def test_policies_verify(self, policy):
        compiled = _compile(policy)
        count = verify_limb_program(compiled.limb_program)
        assert count == len(compiled.limb_program.ops)

    @pytest.mark.parametrize("chips", [1, 3, 4])
    def test_chip_counts_verify(self, chips):
        compiled = _compile(chips=chips)
        verify_limb_program(compiled.limb_program)

    def test_functional_params_verify(self, small_params):
        compiled = _compile(params=small_params)
        verify_limb_program(compiled.limb_program)

    def test_bootstrap_lowering_verifies(self):
        from repro.core.ir.bootstrap_graph import BootstrapPlan
        from repro.workloads.kernels import bootstrap_kernel

        plan = BootstrapPlan("verify-mini", top_level=14, output_level=2,
                             cts_stages=1, cts_radix=4,
                             eval_mod_degree=7, eval_mod_doublings=0)
        compiled = CompilerDriver(
            ArchParams(max_level=14),
            CompilerOptions(num_chips=4, bootstrap_plan=plan),
        ).compile(bootstrap_kernel(plan), emit_isa=False)
        verify_limb_program(compiled.limb_program)


class TestViolationsDetected:
    def test_forward_reference(self):
        program = lir.LimbProgram("bad", 1)
        program.emit(lir.L_ADD, 0, (5,), None, {"prime": 17})
        with pytest.raises(VerificationError, match="not-yet-defined"):
            verify_limb_program(program)

    def test_cross_chip_read(self):
        program = lir.LimbProgram("bad", 2)
        program.emit(lir.L_LOAD, 0, (), lir.EVAL,
                     {"symbol": "x", "prime": 17})
        program.emit(lir.L_NEG, 1, (0,), lir.EVAL, {"prime": 17})
        with pytest.raises(VerificationError, match="without a move"):
            verify_limb_program(program)

    def test_wrong_domain_for_ntt(self):
        program = lir.LimbProgram("bad", 1)
        program.emit(lir.L_LOAD, 0, (), lir.EVAL,
                     {"symbol": "x", "prime": 17})
        program.emit(lir.L_NTT, 0, (0,), lir.EVAL, {"prime": 17})
        with pytest.raises(VerificationError, match="coeff-domain"):
            verify_limb_program(program)

    def test_unknown_collective(self):
        program = lir.LimbProgram("bad", 2)
        program.emit(lir.L_RECV, 0, (), lir.EVAL,
                     {"cid": 9, "tag": "t", "prime": 17})
        with pytest.raises(VerificationError, match="unknown collective"):
            verify_limb_program(program)

    def test_recv_outside_group(self):
        program = lir.LimbProgram("bad", 4)
        v = program.emit(lir.L_LOAD, 0, (), lir.COEFF,
                         {"symbol": "x", "prime": 17})
        comm = program.emit(lir.L_COMM, 0, (v,), None,
                            {"kind": "broadcast", "cid": 1, "group": (0, 1),
                             "tags": ("t",), "limbs_moved": 1})
        program.emit(lir.L_RECV, 3, (comm,), lir.COEFF,
                     {"cid": 1, "tag": "t", "prime": 17})
        with pytest.raises(VerificationError, match="outside"):
            verify_limb_program(program)

    def test_bcu_input_bound(self):
        program = lir.LimbProgram("bad", 1)
        sources = [program.emit(lir.L_LOAD, 0, (), lir.COEFF,
                                {"symbol": f"s{i}", "prime": 17})
                   for i in range(14)]
        program.emit(lir.L_BCONV, 0, tuple(sources), lir.COEFF,
                     {"source_primes": (17,) * 14, "target_prime": 19,
                      "prime": 19})
        with pytest.raises(VerificationError, match="at most 13"):
            verify_limb_program(program)
