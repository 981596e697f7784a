"""Recovery orchestration: degrade, recompile, replay, trace entries."""

import numpy as np
import pytest

from repro.fhe import ArchParams, CKKSContext, make_params
from repro.resilience import (
    FaultSchedule,
    RecoveryExhausted,
    RecoveryOrchestrator,
    run_with_recovery,
)
from repro.runtime import CinnamonSession
from repro.runtime.trace import TRACE_SCHEMA_VERSION

from .conftest import PARAMS, build_program

TOL = 1e-3


class TestDegradedRecovery:
    def test_12_to_8_recovery(self, session):
        orch = RecoveryOrchestrator(session)
        sched = FaultSchedule().chip_crash(9, 20_000)
        result = orch.run(build_program(), PARAMS, machine="cinnamon_12",
                          fault_schedule=sched, run_id="deg-12-8")
        assert result.recovered and result.degraded
        assert result.machine == "Cinnamon-8"
        event = result.recoveries[0]
        assert event.fault == "chip_crash"
        assert event.chip == 9
        assert event.cycle == 20_000
        assert event.machine_from == "Cinnamon-12"
        assert event.machine_to == "Cinnamon-8"
        # The replay starts over at cycle 0, so everything the faulted
        # attempt simulated is lost, and the final result is exactly a
        # clean run on the survivors.
        assert event.lost_cycles == 20_000
        assert event.replay_s is not None and event.replay_s > 0
        clean = session.simulate(
            session.compile(build_program(), PARAMS, machine="cinnamon_8"),
            "cinnamon_8")
        assert (result.result.cycles, result.result.instructions) == \
            (clean.cycles, clean.instructions)

    def test_recovery_is_deterministic(self):
        cycles = []
        for _ in range(2):
            result = run_with_recovery(
                build_program(), PARAMS, machine="cinnamon_12",
                fault_schedule=FaultSchedule().chip_crash(9, 20_000))
            cycles.append((result.recoveries[0].lost_cycles,
                           result.result.cycles))
        assert cycles[0] == cycles[1]

    def test_double_fault_walks_the_ladder(self, session):
        orch = RecoveryOrchestrator(session)
        sched = FaultSchedule().chip_crash(5, 15_000).chip_crash(3, 30_000)
        result = orch.run(build_program(), PARAMS, machine="cinnamon_12",
                          fault_schedule=sched)
        assert [e.machine_to for e in result.recoveries] == \
            ["Cinnamon-8", "Cinnamon-4"]
        assert result.machine == "Cinnamon-4"

    def test_clean_run_records_nothing(self, session):
        orch = RecoveryOrchestrator(session)
        result = orch.run(build_program(), PARAMS, machine="cinnamon_4")
        assert not result.recovered and not result.degraded
        assert result.machine == "Cinnamon-4"

    def test_budget_exhaustion_raises(self, session):
        orch = RecoveryOrchestrator(session, max_recoveries=0)
        with pytest.raises(RecoveryExhausted) as info:
            orch.run(build_program(), PARAMS, machine="cinnamon_12",
                     fault_schedule=FaultSchedule().chip_crash(9, 20_000))
        assert info.value.last_error.chip == 9

    def test_trace_records_recovery_and_schema(self, tmp_path):
        session = CinnamonSession()
        heard = []      # a listener (the flight ring) copies what it sees
        session._recorder.add_listener(
            lambda row: heard.append(dict(row)))
        orch = RecoveryOrchestrator(session)
        orch.run(build_program(), PARAMS, machine="cinnamon_12",
                 fault_schedule=FaultSchedule().chip_crash(9, 20_000),
                 job="traced-recovery")
        trace = session.trace()
        assert trace["schema"] == TRACE_SCHEMA_VERSION
        recoveries = [e for e in trace["jobs"]
                      if e.get("kind") == "recovery"]
        assert len(recoveries) == 1
        entry = recoveries[0]
        assert entry["job"] == "traced-recovery"
        assert entry["machine_from"] == "Cinnamon-12"
        assert entry["machine_to"] == "Cinnamon-8"
        assert entry["replay_s"] is not None
        # The row was complete when it was recorded, not patched after.
        assert [row for row in heard if row["kind"] == "recovery"] \
            == [entry]
        failed = [e for e in trace["jobs"]
                  if e.get("kind") == "simulate" and e.get("error")]
        assert any("ChipFailure" in e["error"] for e in failed)


class TestFunctionalEquality:
    """The paper-level claim: a degraded run decrypts to the same values."""

    @pytest.fixture(scope="class")
    def env(self):
        params = make_params(ring_degree=128, levels=6, prime_bits=28,
                             num_digits=2)
        return params, CKKSContext(params, seed=77)

    def build(self):
        from repro.core import CinnamonProgram

        prog = CinnamonProgram("recover-fn", level=6)
        a, b = prog.input("a"), prog.input("b")
        c = a * b
        prog.output("y", c.rotate(1) + c)
        return prog

    def test_4_to_2_outputs_match_fault_free(self, env):
        params, ctx = env
        rng = np.random.default_rng(11)
        za = rng.uniform(-1, 1, params.slot_count)
        zb = rng.uniform(-1, 1, params.slot_count)
        inputs = {"a": ctx.encrypt_values(za), "b": ctx.encrypt_values(zb)}

        session = CinnamonSession()
        clean = session.compile(self.build(), params, machine="cinnamon_2")
        want = {name: ctx.decrypt_values(ct) for name, ct in
                clean.emulate(dict(inputs), context=ctx).items()}

        orch = RecoveryOrchestrator(session)
        result = orch.run(
            self.build(), params, machine="cinnamon_4",
            fault_schedule=FaultSchedule().chip_crash(3, 4_000),
            inputs=inputs, context=ctx, emulate_outputs=True)
        assert result.degraded
        assert result.machine == "Cinnamon-2"
        assert result.outputs is not None
        got = {name: ctx.decrypt_values(ct)
               for name, ct in result.outputs.items()}
        assert set(got) == set(want) == {"y"}
        expect = np.roll(za * zb, -1) + za * zb
        assert np.max(np.abs(got["y"].real - expect)) < TOL
        assert np.max(np.abs(got["y"] - want["y"])) < TOL

    def test_emulate_outputs_requires_context(self, env):
        params, _ = env
        orch = RecoveryOrchestrator()
        with pytest.raises(ValueError, match="inputs and context"):
            orch.run(self.build(), params, machine="cinnamon_2",
                     emulate_outputs=True)
