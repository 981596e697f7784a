"""Tests for the simulator's FU timeline and its Chrome-trace export."""

import json

import pytest

from repro.core import CompilerDriver, CinnamonProgram, CompilerOptions
from repro.fhe import ArchParams
from repro.sim import CINNAMON_4
from repro.sim.trace import TracingSimulator


def traced_simulate(compiled, machine, path):
    """Simulate through a traced session, write the merged Chrome trace
    to ``path`` with ``repro.obs.export_chrome_trace``, and return the
    parsed file plus the event count the export reported."""
    from repro import obs
    from repro.runtime import CinnamonSession

    obs.enable(reset=True)
    try:
        CinnamonSession().simulate(compiled, machine)
        count = obs.export_chrome_trace(str(path))
    finally:
        obs.disable()
        obs.tracer().reset()
    return json.loads(path.read_text()), count


def isa_records(document):
    return [e for e in document["traceEvents"] if e.get("cat") == "isa"]


@pytest.fixture(scope="module")
def compiled():
    params = ArchParams(max_level=8)
    prog = CinnamonProgram("trace", level=8)
    a, b = prog.input("a"), prog.input("b")
    prog.output("y", (a * b).rotate(1))
    return CompilerDriver(params, CompilerOptions(num_chips=4)).compile(prog)


class TestTimeline:
    def test_events_cover_compute_and_memory(self, compiled):
        events = TracingSimulator(CINNAMON_4).timeline(compiled.isa)
        lanes = {e.lane for e in events}
        assert "hbm" in lanes
        assert any(lane.startswith("ntt") for lane in lanes)
        assert any(lane.startswith("bconv") for lane in lanes)

    def test_events_non_overlapping_per_unit(self, compiled):
        events = TracingSimulator(CINNAMON_4).timeline(compiled.isa)
        by_unit = {}
        for e in events:
            by_unit.setdefault((e.chip, e.lane), []).append(e)
        for unit_events in by_unit.values():
            unit_events.sort(key=lambda e: e.start)
            for prev, cur in zip(unit_events, unit_events[1:]):
                assert cur.start >= prev.start + prev.duration

    def test_limit_respected(self, compiled):
        events = TracingSimulator(CINNAMON_4).timeline(
            compiled.isa, limit_per_chip=10)
        per_chip = {}
        for e in events:
            per_chip[e.chip] = per_chip.get(e.chip, 0) + 1
        assert all(v <= 10 for v in per_chip.values())


class TestChromeExport:
    def test_json_structure(self, compiled, tmp_path):
        document, _count = traced_simulate(compiled, CINNAMON_4,
                                           tmp_path / "trace.json")
        records = isa_records(document)
        assert records
        assert set(records[0]) >= {"name", "ph", "ts", "dur", "pid", "tid"}
        assert {r["tid"].split("/")[0] for r in records} == \
            {f"chip{chip}" for chip in compiled.isa.streams}

    def test_file_export(self, compiled, tmp_path):
        document, count = traced_simulate(compiled, CINNAMON_4,
                                          tmp_path / "trace.json")
        assert len(document["traceEvents"]) == count
        assert isa_records(document)


@pytest.fixture(scope="module")
def bootstrap_compiled():
    """The serving mix's shrunk-but-real bootstrap on two chips."""
    from repro.workloads import SMALL_BOOTSTRAP_PLAN
    from repro.workloads.kernels import bootstrap_kernel

    params = ArchParams(max_level=16)
    prog = bootstrap_kernel(SMALL_BOOTSTRAP_PLAN, entry_level=2)
    return CompilerDriver(params,
                            CompilerOptions(num_chips=2)).compile(prog)


class TestBootstrapChromeTrace:
    """Exported Chrome-trace JSON stays well-formed on a real bootstrap
    module (the workload the serving layer traces most)."""

    def test_export_well_formed(self, bootstrap_compiled, tmp_path):
        from repro.sim.config import config_for

        document, count = traced_simulate(
            bootstrap_compiled, config_for(2),
            tmp_path / "bootstrap-trace.json")
        events = document["traceEvents"]
        assert 0 < count == len(events)
        records = isa_records(document)
        assert {r["tid"].split("/")[0] for r in records} == \
            {"chip0", "chip1"}
        for event in records:
            assert event["ph"] == "X"
            assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
            assert event["dur"] >= 1
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], str)
            assert event["name"]

    def test_no_overlap_per_fu_lane(self, bootstrap_compiled):
        from repro.sim.config import config_for

        events = TracingSimulator(config_for(2)).timeline(
            bootstrap_compiled.isa, limit_per_chip=2000)
        lanes = {}
        for event in events:
            lanes.setdefault((event.chip, event.lane), []).append(event)
        assert {chip for chip, _ in lanes} == {0, 1}
        assert any(lane.startswith("ntt") for _, lane in lanes)
        assert any(lane == "hbm" for _, lane in lanes)
        for lane_events in lanes.values():
            lane_events.sort(key=lambda e: e.start)
            for prev, cur in zip(lane_events, lane_events[1:]):
                assert cur.start >= prev.start + prev.duration


class TestTimelineIsTheEnginesSchedule:
    """The timeline is what the engine reserved while it ran — in-order
    issue, collectives and all — not a second timing model: on a 4-chip
    bootstrap its lanes add up to the busy cycles the result reports and
    it ends where the simulation ends."""

    @pytest.fixture(scope="class")
    def run(self):
        from repro.sim import SimulatorEngine
        from repro.workloads import bootstrap_program

        isa = CompilerDriver(
            ArchParams(max_level=24),
            CompilerOptions(machine="cinnamon_4")).compile(
                bootstrap_program()).isa
        events = TracingSimulator(CINNAMON_4).timeline(
            isa, limit_per_chip=10 ** 9)
        return isa, events, SimulatorEngine(CINNAMON_4).run(isa)

    def test_lane_sums_are_the_reported_busy_cycles(self, run):
        _isa, events, result = run
        chips = len(result.per_chip_cycles)
        by_class, network = {}, {}
        for e in events:
            if e.lane == "network":
                network[e.chip] = network.get(e.chip, 0) + e.duration
            else:
                cls = e.lane.rstrip("0123456789")
                by_class[cls] = by_class.get(cls, 0) + e.duration
        assert by_class.pop("hbm") == result.hbm_busy * chips
        assert by_class == {cls: busy * chips
                            for cls, busy in result.fu_busy.items() if busy}
        assert network == result.link_busy
        assert sum(network.values()) > 0, "no collective on 4 chips?"

    def test_ends_where_the_simulation_ends(self, run):
        _isa, events, result = run
        last = max(e.start + e.duration for e in events)
        slack = max(CINNAMON_4.chip.pipeline_latency,
                    CINNAMON_4.collective_latency)
        assert result.cycles - slack <= last <= result.cycles

    def test_a_limit_keeps_each_chips_first_events(self, run):
        isa, events, _result = run
        capped = TracingSimulator(CINNAMON_4).timeline(isa,
                                                       limit_per_chip=100)
        for chip in isa.streams:
            assert [e for e in capped if e.chip == chip] == \
                [e for e in events if e.chip == chip][:100]


class TestSessionTimeline:
    """A traced session does not simulate twice: the timeline on its
    ``simulate`` span is recorded by the run whose result it returns."""

    def test_one_engine_run_feeds_result_and_span(self, bootstrap_compiled,
                                                  monkeypatch):
        from repro import obs
        from repro.runtime import CinnamonSession
        from repro.sim import SimulatorEngine
        from repro.sim.config import config_for

        runs = []
        engine_run = SimulatorEngine.run

        def counted_run(self, *args, **kwargs):
            runs.append(type(self))
            return engine_run(self, *args, **kwargs)

        monkeypatch.setattr(SimulatorEngine, "run", counted_run)
        obs.enable(reset=True)
        try:
            result = CinnamonSession().simulate(bootstrap_compiled,
                                                config_for(2))
            (span,) = obs.tracer().spans(kind="simulate")
        finally:
            obs.disable()
            obs.tracer().reset()
        assert runs == [SimulatorEngine]
        assert span.sim_cycles == result.cycles
        limit = CinnamonSession.FU_TIMELINE_LIMIT_PER_CHIP
        assert span.sim_events == TracingSimulator(config_for(2)).timeline(
            bootstrap_compiled.isa, limit_per_chip=limit)
        per_chip = [sum(1 for e in span.sim_events if e.chip == chip)
                    for chip in bootstrap_compiled.isa.streams]
        assert per_chip == [limit, limit]    # the quota was reached
