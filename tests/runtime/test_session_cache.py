"""Cache behaviour of the runtime session: hit/miss semantics, on-disk
round trips, and schema-version invalidation."""

import numpy as np
import pytest

from repro.core.compiler import CompilerOptions
from repro.core.dsl.program import CinnamonProgram
from repro.core.isa.encoding import disassemble
from repro.fhe import ArchParams
from repro.runtime import (
    CACHE_SCHEMA_VERSION,
    CinnamonSession,
    CompileCache,
    fingerprint,
)
from repro.trust import artifact_digest

PARAMS = ArchParams(max_level=6)


def build_program(name="cachetest", rotation=1, extra_op=False):
    prog = CinnamonProgram(name, level=6)
    a, b = prog.input("a"), prog.input("b")
    c = a * b + a.rotate(rotation)
    if extra_op:
        c = c + b
    prog.output("y", c)
    return prog


class TestFingerprint:
    def test_identical_programs_same_key(self):
        opts = CompilerOptions(num_chips=2)
        assert fingerprint(build_program(), PARAMS, opts) == \
            fingerprint(build_program(), PARAMS, opts)

    def test_program_structure_changes_key(self):
        opts = CompilerOptions(num_chips=2)
        base = fingerprint(build_program(), PARAMS, opts)
        assert fingerprint(build_program(rotation=2), PARAMS, opts) != base
        assert fingerprint(build_program(extra_op=True), PARAMS, opts) != base

    def test_options_change_key(self):
        base = fingerprint(build_program(), PARAMS, CompilerOptions(num_chips=2))
        for perturbed in (
            CompilerOptions(num_chips=4),
            CompilerOptions(num_chips=2, keyswitch_policy="cifher"),
            CompilerOptions(num_chips=2, enable_batching=False),
            CompilerOptions(num_chips=2, registers_per_chip=128),
        ):
            assert fingerprint(build_program(), PARAMS, perturbed) != base

    def test_params_change_key(self):
        opts = CompilerOptions(num_chips=2)
        assert fingerprint(build_program(), ArchParams(max_level=8), opts) != \
            fingerprint(build_program(), PARAMS, opts)

    def test_machine_spec_normalizes_into_key(self):
        # "cinnamon_4" and num_chips=4 resolve to the same machine layout.
        named = CompilerOptions(machine="cinnamon_4")
        assert named.num_chips == 4
        assert fingerprint(build_program(), PARAMS, named) == \
            fingerprint(build_program(), PARAMS,
                        CompilerOptions(machine="Cinnamon-4"))


class TestMemoryCache:
    def test_identical_program_is_memory_hit(self):
        session = CinnamonSession()
        first = session.compile(build_program(), PARAMS, machine=2)
        second = session.compile(build_program(), PARAMS, machine=2)
        assert second is first
        assert session.cache_stats.memory_hits == 1
        assert session.cache_stats.misses == 1

    def test_hit_runs_no_passes(self):
        """The acceptance check: a cache hit re-runs no IR passes,
        verified through the pass-timing trace."""
        session = CinnamonSession()
        session.compile(build_program(), PARAMS, machine=2)
        session.compile(build_program(), PARAMS, machine=2)
        miss, hit = session.trace()["jobs"]
        assert miss["cache"] == "miss"
        assert [p["name"] for p in miss["compile"]["passes"]] and \
            miss["compile"]["counters"]["isa_instructions"] > 0
        assert hit["cache"] == "memory"
        assert hit["compile"] is None  # no passes ran

    def test_perturbed_program_is_miss(self):
        session = CinnamonSession()
        session.compile(build_program(), PARAMS, machine=2)
        session.compile(build_program(rotation=3), PARAMS, machine=2)
        assert session.cache_stats.misses == 2
        assert session.cache_stats.memory_hits == 0

    def test_perturbed_options_is_miss(self):
        session = CinnamonSession()
        session.compile(build_program(), PARAMS, machine=2)
        session.compile(build_program(), PARAMS, machine=2,
                        keyswitch_policy="cifher")
        assert session.cache_stats.misses == 2

    def test_lru_capacity_evicts(self):
        session = CinnamonSession(capacity=1)
        session.compile(build_program(), PARAMS, machine=2)
        session.compile(build_program(rotation=2), PARAMS, machine=2)
        session.compile(build_program(), PARAMS, machine=2)  # evicted -> miss
        assert session.cache_stats.evictions >= 1
        assert session.cache_stats.misses == 3


class TestDiskCache:
    def test_round_trip_is_byte_identical(self, tmp_path):
        writer = CinnamonSession(cache_dir=tmp_path)
        original = writer.compile(build_program(), PARAMS, machine=2)

        reader = CinnamonSession(cache_dir=tmp_path)
        restored = reader.compile(build_program(), PARAMS, machine=2)
        assert restored is not original
        assert reader.cache_stats.disk_hits == 1
        # The ISA schedule survives the pickle round trip byte-for-byte.
        assert disassemble(restored.isa) == disassemble(original.isa)
        assert reader.trace()["jobs"][0]["cache"] == "disk"

    def test_simulation_of_restored_artifact_matches(self, tmp_path):
        writer = CinnamonSession(cache_dir=tmp_path)
        original = writer.compile(build_program(), PARAMS, machine=2)
        reader = CinnamonSession(cache_dir=tmp_path)
        restored = reader.compile(build_program(), PARAMS, machine=2)
        assert restored.simulate(2).cycles == original.simulate(2).cycles

    def test_restored_streams_keep_typed_columns(self, tmp_path):
        """Schema 4: a stored artifact's streams come back as int numpy
        columns, with the same content digest and simulated cycles."""
        writer = CinnamonSession(cache_dir=tmp_path)
        original = writer.compile(build_program(), PARAMS, machine=2)
        reader = CinnamonSession(cache_dir=tmp_path)
        restored = reader.compile(build_program(), PARAMS, machine=2)
        assert reader.cache_stats.disk_hits == 1
        assert CACHE_SCHEMA_VERSION == 4
        for chip, stream in restored.isa.streams.items():
            for column, dtype in (("opcode", np.int8), ("dest", np.int32),
                                  ("src_start", np.int64),
                                  ("src", np.int32), ("limb_op", np.int32)):
                array = getattr(stream, column)
                assert isinstance(array, np.ndarray) and array.dtype == dtype
                assert np.array_equal(
                    array, getattr(original.isa.streams[chip], column))
        assert artifact_digest(restored) == artifact_digest(original)
        assert restored.simulate(2).cycles == original.simulate(2).cycles

    def test_schema_version_bump_invalidates(self, tmp_path):
        writer = CinnamonSession(cache_dir=tmp_path)
        writer.compile(build_program(), PARAMS, machine=2)

        bumped = CinnamonSession(cache_dir=tmp_path,
                                 schema_version=CACHE_SCHEMA_VERSION + 1)
        bumped.compile(build_program(), PARAMS, machine=2)
        assert bumped.cache_stats.disk_hits == 0
        assert bumped.cache_stats.misses == 1

    def test_unrecorded_payload_is_a_miss_never_unpickled(self, tmp_path):
        """A file with no signed-manifest row (dropped out-of-band into
        the cache dir, or left by a writer that died before recording
        it) is a plain miss: its bytes never reach pickle, and it is
        left in place — unverifiable is not the same as tampered."""
        cache = CompileCache(cache_dir=tmp_path)
        key = "0" * 64
        (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
        compiled, source = cache.get(key)
        assert compiled is None and source == "miss"
        assert cache.stats.invalidated == 0
        assert cache.stats.tampered == 0
        assert (tmp_path / f"{key}.pkl").exists()

    def test_bitflipped_payload_degrades_to_miss_and_quarantine(
            self, tmp_path):
        """An attacker flipping one bit of an on-disk pickle gets a
        recompile, not a crash — and never an unpickle: the signed
        manifest catches the hash mismatch first, the evidence moves to
        quarantine/, and the tamper is journaled as a trust row."""
        writer = CinnamonSession(cache_dir=tmp_path)
        original = writer.compile(build_program(), PARAMS, machine=2)
        victim = tmp_path / f"{original.cache_key}.pkl"
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0x01
        victim.write_bytes(bytes(data))

        reader = CinnamonSession(cache_dir=tmp_path)
        restored = reader.compile(build_program(), PARAMS, machine=2)
        # Degraded to a miss: recompiled from source, same semantics.
        assert reader.cache_stats.disk_hits == 0
        assert reader.cache_stats.misses == 1
        assert reader.cache_stats.tampered == 1
        assert reader.cache_stats.quarantined == 1
        assert disassemble(restored.isa) == disassemble(original.isa)
        # Evidence preserved; the path itself holds the freshly
        # recompiled (re-recorded) artifact, not the poisoned bytes.
        quarantined = list((tmp_path / "quarantine")
                           .glob(f"{victim.name}.*"))
        assert len(quarantined) == 1
        assert quarantined[0].read_bytes() == bytes(data)
        assert victim.read_bytes() != bytes(data)
        # The detection is journaled (trace schema 7 trust rows).
        trust_rows = [row for row in reader.trace()["jobs"]
                      if row.get("kind") == "trust"]
        assert any(row.get("event") == "tamper_detected"
                   for row in trust_rows)
        # The recompile healed the cache: next session disk-hits again.
        healed = CinnamonSession(cache_dir=tmp_path)
        healed.compile(build_program(), PARAMS, machine=2)
        assert healed.cache_stats.disk_hits == 1
        assert healed.cache_stats.tampered == 0

    def test_invalidate_clears_both_layers(self, tmp_path):
        session = CinnamonSession(cache_dir=tmp_path)
        compiled = session.compile(build_program(), PARAMS, machine=2)
        session.invalidate(compiled.cache_key)
        session.compile(build_program(), PARAMS, machine=2)
        assert session.cache_stats.disk_hits == 0
        assert session.cache_stats.misses == 2


class TestEmitIsaKeying:
    def test_emit_isa_distinguishes_artifacts(self):
        session = CinnamonSession()
        without = session.compile(build_program(), PARAMS, machine=2,
                                  emit_isa=False)
        with_isa = session.compile(build_program(), PARAMS, machine=2)
        assert without.isa is None and with_isa.isa is not None

    def test_simulate_without_isa_raises(self):
        session = CinnamonSession()
        compiled = session.compile(build_program(), PARAMS, machine=2,
                                   emit_isa=False)
        with pytest.raises(ValueError, match="emit_isa"):
            compiled.simulate(2)
