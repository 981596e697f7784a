"""Batch execution through the worker pool and the merged JSON trace."""

import json

from repro.core.dsl.program import CinnamonProgram
from repro.fhe import ArchParams
from repro.runtime import CinnamonSession, CompileJob
from repro.runtime.trace import TRACE_SCHEMA_VERSION, TraceRecorder

PARAMS = ArchParams(max_level=6)


def make_program(name, rotation):
    prog = CinnamonProgram(name, level=6)
    a, b = prog.input("a"), prog.input("b")
    prog.output("y", a * b + a.rotate(rotation))
    return prog


def make_jobs():
    """Four structurally distinct programs (the acceptance batch)."""
    return [
        CompileJob(make_program(f"batch-{i}", rotation=i + 1), PARAMS,
                   machine=2, name=f"batch-{i}")
        for i in range(4)
    ]


class TestBatch:
    def test_batch_compiles_and_simulates_concurrently(self):
        session = CinnamonSession()
        results = session.run_batch(make_jobs(), max_workers=4)
        assert len(results) == 4
        assert [r.job for r in results] == [f"batch-{i}" for i in range(4)]
        for result in results:
            assert result.cache == "miss"
            assert result.compiled.instruction_count > 0
            assert result.result is not None and result.result.cycles > 0

    def test_batch_results_keep_input_order_with_one_worker(self):
        session = CinnamonSession()
        results = session.run_batch(make_jobs(), max_workers=1)
        assert [r.job for r in results] == [f"batch-{i}" for i in range(4)]

    def test_duplicate_jobs_coalesce_to_one_compile(self):
        session = CinnamonSession()
        jobs = [CompileJob(make_program("dup", 1), PARAMS, machine=2,
                           name=f"dup-{i}") for i in range(6)]
        results = session.run_batch(jobs, max_workers=3)
        stats = session.cache_stats
        assert stats.stores == 1  # exactly one real compile
        assert len({id(r.compiled) for r in results}) == 1

    def test_rerun_batch_is_all_hits(self):
        session = CinnamonSession()
        session.run_batch(make_jobs(), max_workers=2)
        session.clear_trace()
        session.run_batch(make_jobs(), max_workers=2)
        compiles = [j for j in session.trace()["jobs"]
                    if j["kind"] == "compile"]
        assert len(compiles) == 4
        assert all(j["cache"] == "memory" for j in compiles)


class TestMergedTrace:
    def test_one_trace_covers_every_job(self):
        """Acceptance: a >=4 job batch produces one merged JSON trace with
        per-pass compile timings and per-FU utilization for every job."""
        session = CinnamonSession()
        session.run_batch(make_jobs(), max_workers=4)
        doc = session.trace()
        assert doc["schema"] == TRACE_SCHEMA_VERSION
        assert set(doc["cache"]) >= {"memory_hits", "disk_hits", "misses"}

        by_job = {}
        for entry in doc["jobs"]:
            by_job.setdefault(entry["job"], {})[entry["kind"]] = entry
        assert set(by_job) == {f"batch-{i}" for i in range(4)}
        for kinds in by_job.values():
            compile_entry = kinds["compile"]
            pass_names = [p["name"] for p in
                          compile_entry["compile"]["passes"]]
            assert "lower_to_limb" in pass_names
            assert pass_names[-2:] == ["codegen", "regalloc"]
            assert all(p["seconds"] >= 0 for p in
                       compile_entry["compile"]["passes"])
            sim_entry = kinds["simulate"]
            fu_util = sim_entry["simulate"]["fu_utilization"]
            assert {"ntt", "add", "mul", "bconv"} <= set(fu_util)
            assert sim_entry["simulate"]["cycles"] > 0

    def test_trace_is_valid_json_on_disk(self, tmp_path):
        session = CinnamonSession()
        session.run_batch(make_jobs(), max_workers=2)
        path = session.export_trace(tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert doc["schema"] == TRACE_SCHEMA_VERSION
        assert len(doc["jobs"]) == 8  # 4 compiles + 4 simulations

    def test_simulation_results_are_memoized(self):
        session = CinnamonSession()
        compiled = session.compile(make_program("sim", 1), PARAMS, machine=2)
        first = session.simulate(compiled, 2)
        second = session.simulate(compiled, 2)
        assert second is first
        sims = [j for j in session.trace()["jobs"] if j["kind"] == "simulate"]
        assert [s["cache"] for s in sims] == ["miss", "memory"]
        # The memoized entry does not repeat the metrics payload.
        assert sims[1]["simulate"] is None

    def test_absorbed_rows_are_stamped_copies(self):
        """Rows shipped from a worker process join the journal with a
        ``worker`` of origin; a row that already names one keeps it, and
        the caller's dicts are not the journal's."""
        recorder = TraceRecorder()
        source = [{"kind": "compile", "job": "a"},
                  {"kind": "simulate", "job": "b", "worker": "orig"}]
        recorder.absorb(source, worker="w0")
        by_job = {row["job"]: row for row in recorder.jobs}
        assert by_job["a"]["worker"] == "w0"
        assert by_job["b"]["worker"] == "orig"
        by_job["a"]["mutated"] = True
        assert source == [{"kind": "compile", "job": "a"},
                          {"kind": "simulate", "job": "b",
                           "worker": "orig"}]
