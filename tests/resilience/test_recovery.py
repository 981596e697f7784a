"""The degrade ladder: a chip crash, one rung down, a clean replay on the
survivors that decrypts to the fault-free values."""

import numpy as np
import pytest

from repro.fhe import CKKSContext, make_params
from repro.obs.analyze import registry_from_journal
from repro.obs.metrics import MetricsRegistry
from repro.runtime import CinnamonSession
from repro.runtime.trace import TRACE_SCHEMA_VERSION, TraceRecorder
from repro.serve import FaultInjector, InferenceRequest, RequestStatus
from repro.serve.executor import (
    RecoveryEvent,
    RecoveryExhausted,
    ShardExecutor,
    descend_ladder,
)
from repro.sim import ChipCrash, ChipFailure
from repro.serve.lifecycle import RequestLifecycle

from .conftest import PARAMS, build_program

TOL = 1e-3


def serve_one(machine, faults=None):
    """One request through a ShardExecutor (the one degrade ladder):
    its result, the recorder and the executor."""
    metrics = MetricsRegistry()
    recorder = TraceRecorder(registry=metrics)
    executor = ShardExecutor(CinnamonSession(), metrics, recorder=recorder,
                             faults=faults)
    request = InferenceRequest(program=build_program(), params=PARAMS,
                               machine=machine, name="traced-recovery")
    RequestLifecycle(metrics, recorder).admit(request)
    (result,) = executor.execute([request])
    return result, recorder, executor


def crash(session, compiled, machine, chip, cycle):
    """The ChipFailure ``session.simulate`` raises for one crash."""
    with pytest.raises(ChipFailure) as info:
        session.simulate(compiled, machine, crash=ChipCrash(chip, cycle))
    return info.value


class TestDegradedRecovery:
    def test_12_to_8_recovery(self, session, compiled_12):
        exc = crash(session, compiled_12, "cinnamon_12", 9, 20_000)
        rung, event = descend_ladder(exc, None, descents=0, max_recoveries=2,
                                     detection_s=0.25, label="deg-12-8")
        assert rung.name == "Cinnamon-8"
        # The replay starts over at cycle 0, so everything the faulted
        # attempt simulated is lost.
        assert event == RecoveryEvent(
            fault="chip_crash", chip=9, cycle=20_000,
            machine_from="Cinnamon-12", machine_to="Cinnamon-8",
            lost_cycles=20_000, detection_s=0.25, replay_s=None)
        # The replay on the survivors is exactly a clean 8-chip run.
        replay = session.simulate(
            session.compile(build_program(), PARAMS, machine=rung))
        clean = session.simulate(
            session.compile(build_program(), PARAMS, machine="cinnamon_8"),
            "cinnamon_8")
        assert (replay.cycles, replay.instructions) == \
            (clean.cycles, clean.instructions)

    def test_double_fault_walks_the_ladder(self, session):
        machine, rungs = "cinnamon_12", []
        for descents, (chip, cycle) in enumerate([(5, 15_000), (3, 30_000)]):
            compiled = session.compile(build_program(), PARAMS,
                                       machine=machine)
            exc = crash(session, compiled, machine, chip, cycle)
            machine, event = descend_ladder(
                exc, machine, descents=descents, max_recoveries=2,
                detection_s=0.0)
            rungs.append(event.machine_to)
        assert rungs == ["Cinnamon-8", "Cinnamon-4"]
        assert session.simulate(session.compile(
            build_program(), PARAMS, machine=machine)).cycles > 0

    def test_budget_exhaustion_raises(self):
        exc = ChipFailure("dead", chip=9, cycle=20_000, machine="Cinnamon-12")
        with pytest.raises(RecoveryExhausted, match="budget exhausted") \
                as info:
            descend_ladder(exc, None, descents=0, max_recoveries=0,
                           detection_s=0.0)
        assert info.value.__cause__ is exc
        alone = ChipFailure("dead", chip=0, cycle=10, machine="Cinnamon-1")
        with pytest.raises(RecoveryExhausted, match="no degraded"):
            descend_ladder(alone, None, descents=0, max_recoveries=2,
                           detection_s=0.0)

    def test_recovery_is_deterministic(self):
        runs = []
        for _ in range(2):
            session = CinnamonSession()
            compiled = session.compile(build_program(), PARAMS,
                                       machine="cinnamon_12")
            exc = crash(session, compiled, "cinnamon_12", 9, 20_000)
            rung, event = descend_ladder(exc, None, descents=0,
                                         max_recoveries=2, detection_s=0.0)
            replay = session.simulate(
                session.compile(build_program(), PARAMS, machine=rung))
            runs.append((event, replay.cycles))
        assert runs[0] == runs[1]

    def test_clean_run_records_nothing(self):
        result, recorder, _executor = serve_one("cinnamon_4")
        assert result.status is RequestStatus.OK
        assert result.sim.machine == "Cinnamon-4"
        assert not [row for row in recorder.document({})["jobs"]
                    if row["kind"] == "recovery"]

    def test_trace_records_recovery_and_schema(self):
        result, recorder, executor = serve_one(
            "cinnamon_12", FaultInjector().chip_crash(chip=9, cycle=20_000))
        assert result.status is RequestStatus.OK
        assert result.sim.machine == "Cinnamon-8"
        trace = recorder.document({})
        assert trace["schema"] == TRACE_SCHEMA_VERSION
        recoveries = [e for e in trace["jobs"]
                      if e.get("kind") == "recovery"]
        assert len(recoveries) == 1
        entry = recoveries[0]
        assert entry["job"] == "traced-recovery"
        assert entry["machine_from"] == "Cinnamon-12"
        assert entry["machine_to"] == "Cinnamon-8"
        assert entry["lost_cycles"] == entry["cycle"] == 20_000
        assert entry["replay_s"] is not None
        assert "recompile_s" not in entry
        # The row was complete when it was recorded, not patched after:
        # the recorder folded it then, and the final row replays to the
        # same series.
        family = "runtime_recoveries_total"
        assert registry_from_journal(trace).snapshot()[family] \
            == recorder.registry.snapshot()[family]
        failed = [e for e in executor.session.trace()["jobs"]
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

        def decrypt(compiled):
            return {name: ctx.decrypt_values(ct) for name, ct in
                    compiled.emulate(dict(inputs), context=ctx).items()}

        session = CinnamonSession()
        full = session.compile(self.build(), params, machine="cinnamon_4")
        want = decrypt(full)
        exc = crash(session, full, "cinnamon_4", 3, 4_000)
        rung, _event = descend_ladder(exc, None, descents=0,
                                      max_recoveries=2, detection_s=0.0)
        assert rung.name == "Cinnamon-2"
        got = decrypt(session.compile(self.build(), params, machine=rung))
        assert set(got) == set(want) == {"y"}
        expect = np.roll(za * zb, -1) + za * zb
        assert np.max(np.abs(got["y"].real - expect)) < TOL
        assert np.max(np.abs(got["y"] - want["y"])) < 1e-5
