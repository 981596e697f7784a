"""Chip crashes: the crash value, the rule that decides one from the
clean run, and its injection through ``CinnamonSession.simulate``."""

from unittest import mock

import pytest

from repro import obs
from repro.sim import (
    CINNAMON_4,
    DEGRADE_LADDER,
    ChipCrash,
    ChipFailure,
    SimulatorEngine,
    degraded_machine,
)
from repro.sim.config import config_for

from .conftest import PARAMS, build_program


def simulate_rows(session, cursor):
    rows, _ = session.rows_since(cursor)
    return [row for row in rows if row["kind"] == "simulate"]


class TestSchedule:
    def test_negative_cycle_rejected(self):
        with pytest.raises(ValueError):
            ChipCrash(0, -1)

    def test_fires_iff_its_chip_runs_and_the_run_reaches_its_cycle(self):
        crash = ChipCrash(chip=1, cycle=500)
        assert crash.fires(range(4), 1000)
        assert crash.fires(range(4), 500)
        assert not crash.fires(range(4), 499)
        assert not ChipCrash(chip=7, cycle=10).fires(range(4), 10 ** 9)


class TestInjection:
    def test_chip_crash_raises_at_scheduled_cycle(self, session, compiled_4):
        clean = session.simulate(compiled_4)
        cursor = session.rows_since(0)[1]
        with pytest.raises(ChipFailure) as info:
            session.simulate(compiled_4,
                             crash=ChipCrash(2, clean.cycles // 2))
        assert info.value.chip == 2
        assert info.value.cycle == clean.cycles // 2
        assert info.value.machine == "Cinnamon-4"
        (row,) = simulate_rows(session, cursor)
        assert row["simulate"] is None
        assert row["error"] == (f"ChipFailure: chip_crash on chip 2 of "
                                f"Cinnamon-4 at cycle {clean.cycles // 2}")

    def test_replay_is_deterministic(self, session, compiled_4):
        crash = ChipCrash(1, 5000)
        seen = []
        for _ in range(2):
            with pytest.raises(ChipFailure) as info:
                session.simulate(compiled_4, crash=crash)
            seen.append((info.value.cycle, info.value.chip,
                         info.value.machine))
        assert seen[0] == seen[1] == (5000, 1, "Cinnamon-4")

    def test_empty_schedule_identical_to_clean(self, session, compiled_4):
        clean = SimulatorEngine(CINNAMON_4).run(compiled_4.isa)
        noop = session.simulate(compiled_4, crash=None)
        assert noop.cycles == clean.cycles
        assert noop.instructions == clean.instructions

    @pytest.mark.parametrize("chips", [1, 4, 12])
    @pytest.mark.parametrize("offset, fires", [(-1, True), (0, True),
                                               (1, False)],
                             ids=["T-1", "T", "T+1"])
    def test_crash_fires_iff_the_clean_run_reaches_it(self, session, chips,
                                                      offset, fires):
        compiled = session.compile(build_program(), PARAMS, machine=chips)
        clean = session.simulate(compiled)
        cycle = clean.cycles + offset
        crash = ChipCrash(chips - 1, cycle)
        if fires:
            with pytest.raises(ChipFailure) as info:
                session.simulate(compiled, crash=crash)
            assert (info.value.chip, info.value.cycle) == (chips - 1, cycle)
        else:
            assert session.simulate(compiled, crash=crash) is clean
        # A chip outside the module never fires, however early.
        for outside in (ChipCrash(chips, 0), ChipCrash(chips, cycle)):
            assert session.simulate(compiled, crash=outside) is clean

    def test_faulted_simulate_of_simulated_artifact_is_memo_hit(
            self, session, compiled_4):
        clean = session.simulate(compiled_4, tag="memo")
        cursor = session.rows_since(0)[1]
        crash = ChipCrash(1, clean.cycles // 3)
        with mock.patch.object(SimulatorEngine, "run",
                               side_effect=AssertionError("engine ran")):
            with pytest.raises(ChipFailure):
                session.simulate(compiled_4, tag="memo", crash=crash)
        (row,) = simulate_rows(session, cursor)
        assert row["cache"] == "memory"
        assert row["error"].startswith("ChipFailure: chip_crash on chip 1")

    def test_traced_faulted_run_keeps_the_timeline_up_to_the_crash(
            self, session, compiled_4):
        clean = session.simulate(compiled_4)
        crash_at = clean.cycles // 2
        obs.enable(reset=True)
        try:
            session.simulate(compiled_4, tag="traced-clean")
            with pytest.raises(ChipFailure):
                session.simulate(compiled_4, tag="traced-crash",
                                 crash=ChipCrash(0, crash_at))
            full, cut = [s for s in obs.tracer().spans()
                         if s.kind == "simulate"]
        finally:
            obs.disable()
            obs.tracer().reset()
        assert (full.sim_cycles, cut.sim_cycles) == (clean.cycles, crash_at)
        assert cut.sim_events == [event for event in full.sim_events
                                  if event.start < crash_at]
        assert 0 < len(cut.sim_events) < len(full.sim_events)


class TestDegradeLadder:
    def test_ladder_descends_paper_configs(self):
        assert degraded_machine("cinnamon_12").num_chips == 8
        assert degraded_machine("cinnamon_8").num_chips == 4
        assert degraded_machine(4).num_chips == 2
        assert degraded_machine(2).num_chips == 1

    def test_single_chip_has_no_spares(self):
        with pytest.raises(ValueError):
            degraded_machine(1)

    def test_multi_chip_loss_skips_rungs(self):
        assert degraded_machine("cinnamon_12", dead_chips=5).num_chips == 4

    def test_ladder_matches_paper_configs(self):
        assert DEGRADE_LADDER == (12, 8, 4, 2, 1)
        for rung in DEGRADE_LADDER:
            assert config_for(rung).num_chips == rung
