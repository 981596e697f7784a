"""Tests for machine configurations and the cycle simulator."""

import pytest

from repro.core import CompilerDriver, CinnamonProgram, CompilerOptions
from repro.fhe import ArchParams
from repro.sim import (
    CINNAMON_1,
    CINNAMON_4,
    CINNAMON_8,
    CINNAMON_12,
    CINNAMON_M,
    ChipConfig,
    SimulatorEngine,
    MachineConfig,
)
from repro.sim.config import config_for


class TestChipConfig:
    def test_register_count_matches_paper(self):
        # 56 MB / 256 KB limb = 224 registers.
        assert CINNAMON_4.chip.registers == 224

    def test_occupancy_from_lanes(self):
        chip = CINNAMON_4.chip
        assert chip.occupancy("ntt") == 65536 // 1024
        assert chip.occupancy("bconv") == 65536 // 512  # halved BCU lanes

    def test_limb_bytes(self):
        assert CINNAMON_4.chip.limb_bytes == 65536 * 4

    def test_scaled_returns_new_config(self):
        doubled = CINNAMON_4.scaled(hbm_gbps=4096.0)
        assert doubled.chip.hbm_gbps == 4096.0
        assert CINNAMON_4.chip.hbm_gbps == 2048.0

    def test_monolithic_has_more_resources(self):
        assert CINNAMON_M.chip.registers > CINNAMON_4.chip.registers
        assert CINNAMON_M.chip.clusters == 8


class TestMachineConfig:
    def test_ring_limit(self):
        with pytest.raises(ValueError):
            MachineConfig("bad", 12, ChipConfig(), topology="ring")

    def test_unknown_topology(self):
        with pytest.raises(ValueError):
            MachineConfig("bad", 4, ChipConfig(), topology="mesh")

    def test_presets(self):
        assert CINNAMON_8.topology == "ring"
        assert CINNAMON_12.topology == "switch"
        assert config_for(4) is CINNAMON_4
        assert config_for(6).num_chips == 6

    def test_collective_latency(self):
        assert CINNAMON_1.collective_latency == 0
        assert CINNAMON_8.collective_latency > CINNAMON_12.collective_latency


@pytest.fixture(scope="module")
def arch_compiled():
    """A small symbolic program compiled for 1 and 4 chips."""
    params = ArchParams(max_level=12)

    def build():
        prog = CinnamonProgram("simprog", level=12)
        a, b = prog.input("a"), prog.input("b")
        c = a * b
        prog.output("y", c.rotate(1) + c.rotate(2) + c.rotate(3))
        return prog

    one = CompilerDriver(params, CompilerOptions(num_chips=1)).compile(build())
    four = CompilerDriver(params, CompilerOptions(num_chips=4)).compile(build())
    return one, four


class TestSimulation:
    def test_produces_positive_cycles(self, arch_compiled):
        one, _ = arch_compiled
        result = SimulatorEngine(CINNAMON_1).run(one.isa)
        assert result.cycles > 0
        assert result.seconds > 0
        assert result.instructions == one.instruction_count

    def test_four_chips_faster_than_one(self, arch_compiled):
        one, four = arch_compiled
        t1 = SimulatorEngine(CINNAMON_1).run(one.isa)
        t4 = SimulatorEngine(CINNAMON_4).run(four.isa)
        assert t4.cycles < t1.cycles

    def test_utilization_bounded(self, arch_compiled):
        _, four = arch_compiled
        result = SimulatorEngine(CINNAMON_4).run(four.isa)
        for value in result.utilization().values():
            assert 0.0 <= value <= 1.0

    def test_network_only_on_multichip(self, arch_compiled):
        one, four = arch_compiled
        r1 = SimulatorEngine(CINNAMON_1).run(one.isa)
        r4 = SimulatorEngine(CINNAMON_4).run(four.isa)
        assert r1.network_bytes == 0
        assert r4.network_bytes > 0

    def test_memory_bytes_accounted(self, arch_compiled):
        one, _ = arch_compiled
        result = SimulatorEngine(CINNAMON_1).run(one.isa)
        loads = sum(1 for ins in one.isa.streams[0]
                    if ins.opcode in ("ld", "st"))
        assert result.hbm_bytes == loads * CINNAMON_1.chip.limb_bytes

    def test_more_bandwidth_never_slower(self, arch_compiled):
        _, four = arch_compiled
        base = SimulatorEngine(CINNAMON_4).run(four.isa)
        fat = SimulatorEngine(CINNAMON_4.scaled(hbm_gbps=8192.0)).run(four.isa)
        assert fat.cycles <= base.cycles

    def test_link_bandwidth_matters(self, arch_compiled):
        _, four = arch_compiled
        slow = SimulatorEngine(CINNAMON_4.scaled(link_gbps=32.0)).run(four.isa)
        fast = SimulatorEngine(CINNAMON_4.scaled(link_gbps=1024.0)).run(four.isa)
        assert slow.cycles > fast.cycles

    def test_fu_busy_recorded(self, arch_compiled):
        one, _ = arch_compiled
        result = SimulatorEngine(CINNAMON_1).run(one.isa)
        assert result.fu_busy["ntt"] > 0
        assert result.fu_busy["mul"] > 0

    def test_deterministic(self, arch_compiled):
        _, four = arch_compiled
        a = SimulatorEngine(CINNAMON_4).run(four.isa)
        b = SimulatorEngine(CINNAMON_4).run(four.isa)
        assert a.cycles == b.cycles

    def test_simulate_does_not_mutate_the_artifact(self):
        """Regression: the simulator used to cache its decoded streams *on*
        the module, so an artifact pickled ~9% larger after its first
        simulate and every cached artifact carried its streams twice."""
        import pickle

        from repro.runtime import CinnamonSession

        prog = CinnamonProgram("pickle-stable", level=6)
        a, b = prog.input("a"), prog.input("b")
        prog.output("y", (a * b).rotate(1) + a)
        session = CinnamonSession()
        artifact = session.compile(prog, ArchParams(max_level=6),
                                   machine="cinnamon_4")
        before = pickle.dumps(artifact, pickle.HIGHEST_PROTOCOL)
        session.simulate(artifact, "cinnamon_4")
        assert pickle.dumps(artifact, pickle.HIGHEST_PROTOCOL) == before


class TestLinkOccupancy:
    """Per-network-link accounting (schema-additive ``links`` key)."""

    @pytest.fixture(scope="class")
    def two_chip(self):
        """A known two-chip broadcast: one rotate forces each chip to
        exchange its shard with the other, so both links carry bytes."""
        params = ArchParams(max_level=12)
        prog = CinnamonProgram("bcast2", level=12)
        a, b = prog.input("a"), prog.input("b")
        prog.output("y", (a * b).rotate(1))
        compiled = CompilerDriver(
            params, CompilerOptions(num_chips=2)).compile(prog)
        machine = config_for(2)
        return SimulatorEngine(machine).run(compiled.isa), machine

    def test_every_link_accounted(self, two_chip):
        result, _ = two_chip
        assert set(result.link_busy) == {0, 1}
        assert set(result.link_bytes) == {0, 1}
        assert all(busy > 0 for busy in result.link_busy.values())
        assert all(moved > 0 for moved in result.link_bytes.values())

    def test_link_bytes_sum_to_network_bytes(self, two_chip):
        result, _ = two_chip
        assert sum(result.link_bytes.values()) == result.network_bytes

    def test_network_busy_is_link_average(self, two_chip):
        result, _ = two_chip
        assert result.network_busy == pytest.approx(
            sum(result.link_busy.values()) / len(result.link_busy))

    def test_link_occupancy_fractions(self, two_chip):
        result, _ = two_chip
        occupancy = result.link_occupancy()
        for cid, frac in occupancy.items():
            assert 0.0 < frac <= 1.0
            assert frac == pytest.approx(
                min(1.0, result.link_busy[cid] / result.cycles))

    def test_as_dict_links_payload(self, two_chip):
        result, machine = two_chip
        doc = result.as_dict()
        assert doc["topology"] == machine.topology
        assert set(doc["links"]) == {"0", "1"}
        for link in doc["links"].values():
            assert link["busy_cycles"] > 0
            assert 0.0 < link["occupancy"] <= 1.0
        assert sum(link["bytes"] for link in doc["links"].values()) \
            == doc["network"]["bytes"]

    def test_single_chip_link_stays_idle(self, arch_compiled):
        one, _ = arch_compiled
        result = SimulatorEngine(CINNAMON_1).run(one.isa)
        assert result.link_busy == {0: 0}
        assert result.link_occupancy() == {0: 0.0}
        assert result.as_dict()["links"]["0"]["bytes"] == 0
