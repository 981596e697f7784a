"""TuningDB persistence: round-trips, schema bumps, incumbent logic."""

import json

from repro.tune.db import (
    TUNING_DB_SCHEMA,
    TuningDB,
    default_db_path,
    tuning_key,
)
from repro.tune.space import Candidate, MachineVariant
from repro.workloads.kernels import matmul_kernel
from repro.fhe.params import ArchParams


def _record(cycles=1000):
    cand = Candidate.of(
        keyswitch_policy="cinnamon", enable_batching=True, num_digits=2,
        chips_per_stream=4, registers_per_chip=224,
        machine=MachineVariant("Cinnamon-4"))
    return {"workload": "bootstrap", "machine": "Cinnamon-4",
            "assignment": cand.as_dict(),
            "cycles": cycles, "default_cycles": 2000}


class TestRoundTrip:
    def test_put_get_survives_reload(self, tmp_path):
        path = tmp_path / "tuning.json"
        db = TuningDB(path)
        db.put("k1", _record())
        assert path.exists()

        reloaded = TuningDB(path)
        assert len(reloaded) == 1
        entry = reloaded.get("k1")
        assert entry["cycles"] == 1000
        assert "created_unix" in entry
        cand = Candidate.from_dict(entry["assignment"])
        assert cand.config["num_digits"] == 2
        assert cand.machine.label == "Cinnamon-4"

    def test_put_keeps_faster_incumbent(self, tmp_path):
        db = TuningDB(tmp_path / "tuning.json")
        db.put("k", _record(cycles=1000))
        kept = db.put("k", _record(cycles=1500))  # slower: rejected
        assert kept["cycles"] == 1000
        improved = db.put("k", _record(cycles=900))
        assert improved["cycles"] == 900
        assert db.get("k")["cycles"] == 900

    def test_tuned_options_applies_assignment(self, tmp_path):
        program = matmul_kernel("m", 4, 6)
        params = ArchParams(max_level=16)
        db = TuningDB(tmp_path / "tuning.json")
        key = tuning_key(program, params, "Cinnamon-4")
        assert db.tuned_options(program, params, "Cinnamon-4") is None
        db.put(key, _record())
        opts = db.tuned_options(program, params, "Cinnamon-4")
        assert opts.num_digits == 2
        assert opts.num_chips == 4


class TestSchemaInvalidation:
    def test_old_schema_discarded_on_load(self, tmp_path):
        path = tmp_path / "tuning.json"
        db = TuningDB(path)
        db.put("k", _record())
        # Simulate a file written by a previous (older) schema version.
        doc = json.loads(path.read_text())
        doc["schema"] = TUNING_DB_SCHEMA - 1
        path.write_text(json.dumps(doc))

        reloaded = TuningDB(path)
        assert len(reloaded) == 0
        assert reloaded.invalidated == 1

    def test_corrupt_file_discarded(self, tmp_path):
        path = tmp_path / "tuning.json"
        path.write_text("{not json")
        db = TuningDB(path)
        assert len(db) == 0
        assert db.invalidated == 1

    def test_schema_bump_changes_keys(self):
        program = matmul_kernel("m", 4, 6)
        params = ArchParams(max_level=16)
        key = tuning_key(program, params, "Cinnamon-4")
        assert key == tuning_key(program, params, "Cinnamon-4")
        assert key != tuning_key(program, params, "Cinnamon-8")


class TestDefaultPath:
    def test_explicit_cache_dir(self, tmp_path):
        assert default_db_path(tmp_path) == tmp_path / "tuning.json"

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CINNAMON_CACHE_DIR", str(tmp_path / "env"))
        assert default_db_path() == tmp_path / "env" / "tuning.json"
