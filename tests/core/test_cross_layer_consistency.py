"""Cross-layer consistency: DSL stats vs poly IR vs limb IR vs ISA.

These tests pin the bookkeeping that the experiments rely on: keyswitch
counts surviving lowering, communication volumes consistent between the
pass's event accounting and the limb IR's ledger, and instruction streams
covering every limb op.
"""

import pytest

from repro.core import CompilerDriver, CinnamonProgram, CompilerOptions
from repro.core.ir import limb_ir as lir
from repro.core.ir.bootstrap_graph import BootstrapPlan
from repro.fhe import ArchParams

PLAN = BootstrapPlan("xlayer-mini", top_level=16, output_level=2,
                     cts_stages=1, cts_radix=4,
                     eval_mod_degree=7, eval_mod_doublings=0)


@pytest.fixture(scope="module")
def compiled():
    prog = CinnamonProgram("xl", level=2, bootstrap_output_level=2)
    x = prog.input("x")
    prog.output("y", x.bootstrap())
    return CompilerDriver(
        ArchParams(max_level=PLAN.top_level),
        CompilerOptions(num_chips=4, bootstrap_plan=PLAN),
    ).compile(prog)


class TestKeyswitchAccounting:
    def test_ct_and_poly_keyswitch_counts_agree(self, compiled):
        ct_count = compiled.ct_program.keyswitch_count
        rotate_sum_members = sum(
            len([r for r in op.attrs["rotations"] if r != 0])
            for op in compiled.ct_program.ops if op.opcode == "rotate_sum"
        )
        assert compiled.poly_program.keyswitch_count == \
            ct_count + rotate_sum_members

    def test_pass_counts_every_keyswitch(self, compiled):
        assert compiled.pass_stats.keyswitches == \
            compiled.poly_program.keyswitch_count

    def test_batching_reduced_events(self, compiled):
        assert compiled.pass_stats.events_batched < \
            compiled.pass_stats.events_unbatched


class TestCommunicationLedger:
    def test_every_broadcast_has_receivers(self, compiled):
        lp = compiled.limb_program
        comm_cids = {op.attrs["cid"] for op in lp.ops
                     if op.opcode == lir.L_COMM}
        recv_cids = {op.attrs["cid"] for op in lp.ops
                     if op.opcode == lir.L_RECV}
        assert comm_cids == recv_cids

    def test_comm_limbs_positive_on_multichip(self, compiled):
        assert compiled.limb_program.comm_limbs() > 0

    def test_aggregations_come_in_pairs(self, compiled):
        """Output aggregation always aggregates both (f0, f1) components."""
        assert compiled.limb_program.comm_events("aggregate") % 2 == 0


class TestIsaCoverage:
    def test_instruction_count_at_least_limb_ops(self, compiled):
        # Registers add loads/spills on top of the limb ops (collectives
        # fan out per chip), so the ISA is never smaller.
        assert compiled.instruction_count >= \
            len(compiled.limb_program.ops) * 0.9

    def test_every_chip_has_work(self, compiled):
        for chip, stream in compiled.isa.streams.items():
            assert stream, f"chip {chip} has no instructions"

    def test_outputs_stored_once_per_limb(self, compiled):
        stores = [ins for s in compiled.isa.streams.values() for ins in s
                  if ins.opcode == "st"
                  and ins.attrs["symbol"].startswith("output:")]
        assert len(stores) == 2 * PLAN.output_level
