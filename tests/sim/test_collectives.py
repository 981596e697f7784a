"""Unit tests of the simulator's network semantics on hand-built streams."""

import pytest

from repro.core.isa.codegen import IsaModule
from repro.core.isa.instructions import Instruction
from repro.core.isa.regalloc import AllocationStats
from repro.sim import CINNAMON_4, SimulatorEngine


def _module(streams):
    return IsaModule(streams, {c: AllocationStats() for c in streams})


def _ld(reg, sym="x"):
    return Instruction("ld", reg, (), {"symbol": sym})


class TestBroadcast:
    def test_rendezvous_blocks_receiver(self):
        """A receiver cannot complete before the contributor posts."""
        streams = {
            0: [
                _ld(0),
                Instruction("col", None, (0,),
                            {"cid": 1, "kind": "broadcast", "tags": ("t",),
                             "group": (0, 1), "bytes": 1}),
            ],
            1: [
                Instruction("col", None, (),
                            {"cid": 1, "kind": "broadcast", "tags": (),
                             "group": (0, 1), "bytes": 1}),
                Instruction("rcv", 0, (),
                            {"cid": 1, "tag": "t", "expected": 1,
                             "prime": 17}),
            ],
        }
        result = SimulatorEngine(CINNAMON_4).run(_module(streams))
        # Receiver finishes after the sender's load + transfer + latency.
        load_cycles = CINNAMON_4.chip.limb_bytes / \
            CINNAMON_4.chip.hbm_bytes_per_cycle
        assert result.per_chip_cycles[1] > load_cycles

    def test_missing_contribution_deadlocks(self):
        streams = {
            0: [Instruction("rcv", 0, (),
                            {"cid": 9, "tag": "t", "expected": 1,
                             "prime": 17})],
        }
        with pytest.raises(RuntimeError, match="deadlock"):
            SimulatorEngine(CINNAMON_4).run(_module(streams))


class TestPointToPoint:
    def test_send_receive(self):
        streams = {
            0: [_ld(0), Instruction("snd", None, (0,),
                                    {"key": 7, "to_chip": 1})],
            1: [Instruction("mov", 0, (), {"key": 7, "from_chip": 0})],
        }
        result = SimulatorEngine(CINNAMON_4).run(_module(streams))
        assert result.network_bytes == CINNAMON_4.chip.limb_bytes

    def test_unmatched_mov_deadlocks(self):
        streams = {0: [Instruction("mov", 0, (), {"key": 3, "from_chip": 1})]}
        with pytest.raises(RuntimeError, match="deadlock"):
            SimulatorEngine(CINNAMON_4).run(_module(streams))


class TestComputeTiming:
    def test_dependent_chain_serializes(self):
        chain = [_ld(0)]
        for i in range(1, 9):
            chain.append(Instruction("vntt", i, (i - 1,), {"prime": 17}))
        independent = [_ld(0)] + [
            Instruction("vntt", i, (0,), {"prime": 17}) for i in range(1, 9)
        ]
        t_chain = SimulatorEngine(CINNAMON_4).run(_module({0: chain}))
        t_indep = SimulatorEngine(CINNAMON_4).run(_module({0: independent}))
        # Same work, but the chain pays the pipeline latency per hop.
        assert t_chain.cycles > t_indep.cycles

    def test_fu_pool_parallelism(self):
        """Two add units: four independent adds beat four chained ones."""
        loads = [_ld(i, f"s{i}") for i in range(2)]
        parallel = loads + [
            Instruction("vadd", 10 + i, (0, 1), {"prime": 17})
            for i in range(4)
        ]
        chained = list(loads)
        prev = 0
        for i in range(4):
            chained.append(Instruction("vadd", 10 + i, (prev, 1), {"prime": 17}))
            prev = 10 + i
        t_par = SimulatorEngine(CINNAMON_4).run(_module({0: parallel}))
        t_chain = SimulatorEngine(CINNAMON_4).run(_module({0: chained}))
        assert t_par.cycles < t_chain.cycles

    def test_bcu_slower_than_full_width_ops(self):
        """The halved-lane BCU takes twice a full-width op's occupancy."""
        bcv = [_ld(0), Instruction("vbcv", 1, (0,),
                                   {"prime": 17, "source_primes": (17,),
                                    "target_prime": 17})]
        add = [_ld(0), Instruction("vadd", 1, (0, 0), {"prime": 17})]
        t_bcv = SimulatorEngine(CINNAMON_4).run(_module({0: bcv}))
        t_add = SimulatorEngine(CINNAMON_4).run(_module({0: add}))
        assert t_bcv.fu_busy["bconv"] == 2 * t_add.fu_busy["add"]
