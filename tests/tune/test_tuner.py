"""End-to-end tuner runs on the small workloads, plus facade integration.

These tests compile and simulate for real (small-scale programs), so
they share one on-disk cache per test via ``tmp_path`` and keep budgets
tiny.
"""

import pytest

import repro
from repro.core.dsl.program import CinnamonProgram
from repro.fhe.params import ArchParams, make_params
from repro.runtime.session import CinnamonSession
from repro.tune import (
    Tuner,
    TuningDB,
    apply_tuning,
    default_db_path,
    get_workload,
    tuning_key,
)
from repro.tune.space import Candidate, MachineVariant
from repro.workloads.kernels import matmul_kernel
from repro.workloads.serving import serving_mix

BUDGET = 4


class TestTunerEndToEnd:
    def test_tune_on_small_bootstrap(self, tmp_path):
        tuner = Tuner(cache_dir=tmp_path, seed=0)
        report = tuner.tune("bootstrap", "cinnamon_4", scale="small",
                            budget=BUDGET)

        # The default config is always in the pool, simulated to
        # completion, so the winner can never be worse than it.
        assert report.best_cycles <= report.default_cycles
        assert report.speedup >= 1.0
        assert report.machine == "Cinnamon-4"
        assert report.candidates_tried >= 2
        # The winner persisted.
        assert (tmp_path / "tuning.json").exists()
        entry = tuner.db.get(report.db_key)
        assert entry["cycles"] == report.best_cycles
        # The leaderboard renders and names the winner's cycle count.
        board = report.leaderboard()
        assert "best:" in board and "cache" in board

    def test_trace_gains_tune_entry(self, tmp_path):
        tuner = Tuner(cache_dir=tmp_path, seed=0)
        tuner.tune("helr-step", "cinnamon_4", scale="small", budget=2)
        trace = tuner.session.trace()
        tune_entries = [e for e in trace["jobs"]
                        if e.get("kind") == "tune"]
        assert len(tune_entries) == 1
        entry = tune_entries[0]
        assert entry["workload"] == "helr-step"
        assert entry["best_cycles"] <= entry["default_cycles"]
        assert entry["candidates"] >= 1
        assert trace["schema"] >= 4

    def test_retune_reuses_compile_cache(self, tmp_path):
        first = Tuner(cache_dir=tmp_path, seed=0).tune(
            "bootstrap", "cinnamon_4", scale="small", budget=BUDGET)
        # A fresh process-equivalent: new session, same cache directory.
        again = Tuner(cache_dir=tmp_path, seed=0).tune(
            "bootstrap", "cinnamon_4", scale="small", budget=BUDGET)
        assert again.cache_hits > 0
        assert again.cache_misses == 0
        assert again.best_cycles == first.best_cycles

    def test_explicit_empty_db_receives_the_winner(self, tmp_path):
        # Regression: an empty TuningDB is len() == 0, and a truthiness
        # check (``db or default``) used to discard it, persisting the
        # winner to a different DB than the caller's.
        db = TuningDB(tmp_path / "explicit.json")
        assert bool(db) and len(db) == 0
        tuner = Tuner(cache_dir=tmp_path, db=db, seed=0)
        assert tuner.db is db
        report = tuner.tune("bootstrap", "cinnamon_4", scale="small",
                            budget=2)
        assert len(db) == 1
        assert db.get(report.db_key)["cycles"] == report.best_cycles

    def test_unknown_workload_and_bad_budget_rejected(self, tmp_path):
        tuner = Tuner(cache_dir=tmp_path)
        with pytest.raises(ValueError, match="bootstrap"):
            tuner.tune("transformer-xxl", "cinnamon_4")
        with pytest.raises(ValueError, match="budget"):
            tuner.tune("bootstrap", "cinnamon_4", budget=0)

    def test_workload_scales_resolve(self):
        for name in ("bootstrap", "resnet-block", "helr-step",
                     "bert-layer"):
            workload = get_workload(name, "small")
            program, params, options = workload.materialize()
            assert program.name
            assert params.max_level >= 6

    @pytest.mark.parametrize("scale,names", [
        ("small", None),
        ("paper", ("resnet-block", "helr-step", "bert-layer")),
    ])
    def test_workloads_key_like_the_serving_mix(self, scale, names):
        """A config tuned under a workload name is found by the serving
        layer: both sides compute the same tuning key."""
        mix = serving_mix(scale, include_nn=True)
        for name in names or mix:
            program, params, _ = get_workload(name, scale).materialize()
            entry = mix[name]
            assert tuning_key(program, params, "cinnamon_4") == \
                tuning_key(entry.build(), entry.params, "cinnamon_4"), name


class TestFacadeIntegration:
    def _target(self):
        return matmul_kernel("facade", 4, 6), ArchParams(max_level=16)

    def _seed_db(self, db, program, params, num_digits=2):
        cand = Candidate.of(
            keyswitch_policy="cinnamon", enable_batching=True,
            num_digits=num_digits, chips_per_stream=4,
            registers_per_chip=224, machine=MachineVariant("Cinnamon-4"))
        db.put(tuning_key(program, params, "Cinnamon-4"), {
            "workload": "facade", "machine": "Cinnamon-4",
            "assignment": cand.as_dict(),
            "cycles": 100, "default_cycles": 200,
        })
        return cand

    def test_apply_tuning_modes(self, tmp_path):
        program, params = self._target()
        db = TuningDB(tmp_path / "tuning.json")
        assert apply_tuning(program, params, "cinnamon_4", None,
                            None) is None
        assert apply_tuning(program, params, "cinnamon_4", None,
                            "db", db=db) is None  # empty DB: fall through
        with pytest.raises(ValueError, match="quick"):
            apply_tuning(program, params, "cinnamon_4", None, "nightly",
                         db=db)
        self._seed_db(db, program, params)
        tuned = apply_tuning(program, params, "cinnamon_4", None, True,
                             db=db)
        assert tuned.num_digits == 2

    def test_repro_compile_applies_db_entry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CINNAMON_CACHE_DIR", str(tmp_path))
        program, params = self._target()
        db = TuningDB(default_db_path())
        self._seed_db(db, program, params, num_digits=2)

        session = CinnamonSession()
        compiled = repro.compile(program, params, machine="cinnamon_4",
                                 session=session, tune=True)
        assert compiled.options.num_digits == 2
        # Without tuning the same request keeps the stock digit count.
        stock = repro.compile(program, params, machine="cinnamon_4",
                              session=session)
        assert stock.options.num_digits != 2
        assert stock.cache_key != compiled.cache_key

    def test_repro_compile_quick_tunes_on_miss(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("CINNAMON_CACHE_DIR", str(tmp_path))
        program, params = self._target()
        session = CinnamonSession()
        compiled = repro.compile(program, params, machine="cinnamon_4",
                                 session=session, tune="quick")
        assert compiled is not None
        # The quick search persisted its winner for the next process.
        db = TuningDB(default_db_path())
        assert db.best_candidate(program, params, "Cinnamon-4") is not None

    def test_quick_tuned_artifact_keeps_its_limb_ir(self, tmp_path,
                                                    monkeypatch):
        """Regression: the tuner released the limb IR of the artifacts it
        measured, which sit in the caller's session cache, so the tuned
        compile came back with an empty limb program."""
        monkeypatch.setenv("CINNAMON_CACHE_DIR", str(tmp_path))
        program = CinnamonProgram("tuned-limbs", level=6)
        a, b = program.input("a"), program.input("b")
        program.output("y", a * b + a.rotate(1))
        params = make_params(ring_degree=256, levels=8)
        tuned = repro.compile(program, params, machine="cinnamon_4",
                              session=CinnamonSession(), tune="quick")
        fresh = CinnamonSession().compile(program, params,
                                          options=tuned.options)
        assert len(tuned.limb_program.opcodes) == \
            len(fresh.limb_program.opcodes) > 0


class TestServerIntegration:
    def test_tuned_server_swaps_options_at_admission(self, tmp_path):
        from repro.serve import CinnamonServer, InferenceRequest
        from repro.serve.request import RequestStatus

        program, params = (matmul_kernel("served", 4, 6),
                           ArchParams(max_level=16))
        db = TuningDB(tmp_path / "tuning.json")
        cand = Candidate.of(
            keyswitch_policy="cinnamon", enable_batching=True,
            num_digits=2, chips_per_stream=4, registers_per_chip=224,
            machine=MachineVariant("Cinnamon-4"))
        db.put(tuning_key(program, params, "Cinnamon-4"), {
            "workload": "served", "machine": "Cinnamon-4",
            "assignment": cand.as_dict(),
            "cycles": 100, "default_cycles": 200,
        })

        server = CinnamonServer(num_workers=1, tuning_db=db,
                                default_machine="cinnamon_4")
        with server:
            handle = server.submit(InferenceRequest(
                program=program, params=params, machine="cinnamon_4"))
            result = handle.result(timeout=120)
        assert result.status is RequestStatus.OK
        request = handle.request
        assert request.tuned is True
        assert request.options.num_digits == 2
        assert request.machine_name == "Cinnamon-4"
        snapshot = server.metrics.snapshot()
        tuned_series = snapshot["serve_tuned_requests_total"]["series"]
        assert tuned_series[0]["value"] == 1

    def test_untuned_server_leaves_requests_alone(self):
        from repro.serve import CinnamonServer, InferenceRequest

        program, params = (matmul_kernel("plain", 4, 6),
                           ArchParams(max_level=16))
        server = CinnamonServer(num_workers=1)
        with server:
            handle = server.submit(InferenceRequest(
                program=program, params=params, machine="cinnamon_4"))
            handle.result(timeout=120)
        assert handle.request.tuned is False
