"""Cross-*process* safety of the CompileCache disk layer.

A :mod:`repro.cluster` deployment points every worker process at one
``cache_dir``.  The directory's index is its signed manifest
(``cache.manifest.entries()``: one row per artifact): artifact writes are
temp+``os.replace`` atomic, and file and row change together under one
advisory ``flock`` (:class:`repro.runtime.locking.FileLock`) — so N
processes hammering one directory must end with every artifact loadable,
the rows consistent with the artifacts on disk, nothing mistaken for
tampering, and no leaked ``*.tmp`` files.
"""

import json
import multiprocessing
import os
import pickle
import time

import pytest

from repro.runtime import CinnamonSession, CompileCache
from repro.runtime.locking import FileLock, FileLockTimeout
from repro.trust.manifest import MANIFEST_FILENAME

from .test_session_cache import PARAMS, build_program

N_PROCS = 4
OPS_PER_PROC = 40
KEYS = [f"key-{i:02d}" for i in range(12)]


class FakeArtifact:
    """Stands in for a CompiledProgram: the cache never inspects it."""

    def __init__(self, token):
        self.token = token

    def __eq__(self, other):
        return isinstance(other, FakeArtifact) and other.token == self.token


def _hammer(cache_dir, proc_id, error_queue):
    """One worker process: interleaved puts/gets/invalidates."""
    try:
        cache = CompileCache(capacity=4, cache_dir=cache_dir)
        for i in range(OPS_PER_PROC):
            key = KEYS[(proc_id * 5 + i) % len(KEYS)]
            op = (proc_id + i) % 4
            if op in (0, 1):
                cache.put(key, FakeArtifact((proc_id, i)))
            elif op == 2:
                compiled, source = cache.get(key)
                if compiled is not None:
                    assert isinstance(compiled, FakeArtifact), source
            else:
                cache.invalidate(key)
    except Exception as exc:  # pragma: no cover - failure path
        error_queue.put(f"proc {proc_id}: {exc!r}")


@pytest.fixture
def mp_ctx():
    # fork is cheap and inherits sys.path; the test module itself is
    # importable either way because it lives in a package.
    return multiprocessing.get_context("fork")


class TestMultiProcessHammer:
    def test_hammer_four_processes(self, tmp_path, mp_ctx):
        error_queue = mp_ctx.SimpleQueue()
        procs = [
            mp_ctx.Process(target=_hammer, args=(tmp_path, p, error_queue))
            for p in range(N_PROCS)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
        assert all(p.exitcode == 0 for p in procs)
        errors = []
        while not error_queue.empty():
            errors.append(error_queue.get())
        assert not errors

        # No torn temp files survive the hammer.
        assert not list(tmp_path.glob("*.tmp"))

        # Every artifact on disk unpickles cleanly and is self-consistent.
        fresh = CompileCache(cache_dir=tmp_path)
        for path in tmp_path.glob("*.pkl"):
            key = path.stem
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            assert payload["key"] == key
            compiled, source = fresh.get(key)
            assert source == "disk" or compiled is not None

        # Manifest rows describe exactly the artifacts that exist, and
        # no racing (file, row) pair was ever read as tampering.
        rows = fresh.manifest.entries()
        assert set(rows) == {p.name for p in tmp_path.glob("*.pkl")}
        for name, row in rows.items():
            assert row["size"] == (tmp_path / name).stat().st_size
        assert fresh.stats.tampered == 0
        assert not (tmp_path / "quarantine").exists()
        assert fresh.manifest.verify_directory() == {
            "verified": sorted(rows), "tampered": [], "missing": []}

    def test_concurrent_writers_keep_each_others_index_rows(
            self, tmp_path, mp_ctx):
        """N processes storing distinct keys: N signed rows, and every
        key is a disk hit from a fresh cache."""

        def store(lo, hi):
            cache = CompileCache(cache_dir=tmp_path)
            for i in range(lo, hi):
                cache.put(f"disjoint-{i:02d}", FakeArtifact(i))

        procs = [mp_ctx.Process(target=store, args=(lo, lo + 5))
                 for lo in range(0, 5 * N_PROCS, 5)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
        assert all(p.exitcode == 0 for p in procs)

        fresh = CompileCache(cache_dir=tmp_path)
        assert set(fresh.manifest.entries()) == {
            f"disjoint-{i:02d}.pkl" for i in range(5 * N_PROCS)}
        for i in range(5 * N_PROCS):
            assert fresh.get(f"disjoint-{i:02d}") == (FakeArtifact(i), "disk")

    def test_concurrent_writers_of_one_key_leave_one_verified_row(
            self, tmp_path, mp_ctx):
        """N processes storing the same key: whichever file won is paired
        with its own row — one row that verifies, never "tampered"."""

        def store(proc_id):
            cache = CompileCache(cache_dir=tmp_path)
            for i in range(10):
                cache.put("contended", FakeArtifact((proc_id, i)))
                compiled, _ = CompileCache(cache_dir=tmp_path).get(
                    "contended")
                assert isinstance(compiled, FakeArtifact)

        procs = [mp_ctx.Process(target=store, args=(p,))
                 for p in range(N_PROCS)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
        assert all(p.exitcode == 0 for p in procs)

        fresh = CompileCache(cache_dir=tmp_path)
        assert list(fresh.manifest.entries()) == ["contended.pkl"]
        compiled, source = fresh.get("contended")
        assert source == "disk" and compiled.token[1] == 9
        assert fresh.stats.tampered == 0
        assert not (tmp_path / "quarantine").exists()


class TestIndexMaintenance:
    """The directory's index is the manifest: rows follow the files."""

    def test_put_and_invalidate_update_index(self, tmp_path):
        cache = CompileCache(cache_dir=tmp_path)
        cache.put("a", FakeArtifact(1))
        cache.put("b", FakeArtifact(2))
        assert set(cache.manifest.entries()) == {"a.pkl", "b.pkl"}
        cache.invalidate("a")
        assert set(cache.manifest.entries()) == {"b.pkl"}
        assert not (tmp_path / "a.pkl").exists()
        assert (tmp_path / "b.pkl").exists()
        cache.invalidate()
        assert cache.manifest.entries() == {}
        assert not list(tmp_path.glob("*.pkl"))

    def test_index_visible_to_other_instances(self, tmp_path):
        CompileCache(cache_dir=tmp_path).put("shared", FakeArtifact(7))
        other = CompileCache(cache_dir=tmp_path)
        assert "shared.pkl" in other.manifest and "shared" in other
        compiled, source = other.get("shared")
        assert source == "disk" and compiled == FakeArtifact(7)

    def test_corrupt_index_is_tolerated(self, tmp_path):
        """A manifest whose signature does not verify is voided, not
        fatal — also when a *writer* meets it, under the lock it already
        holds: the put returns at once (it used to wait 30 s on itself
        and fail the compile) and what it stored is a disk hit."""
        seen = []
        cache = CompileCache(cache_dir=tmp_path, on_tamper=seen.append)
        cache.manifest._lock.timeout_s = 2.0
        cache.put("x", FakeArtifact(0))
        doc = (tmp_path / MANIFEST_FILENAME).read_text()
        (tmp_path / MANIFEST_FILENAME).write_text(
            doc.replace('"sig": "', '"sig": "0'))
        started = time.monotonic()
        cache.put("y", FakeArtifact(1))
        assert time.monotonic() - started < 1.0
        assert [error.name for error in seen] == [MANIFEST_FILENAME]
        assert cache.stats.tampered == 1
        assert list((tmp_path / "quarantine").glob(f"{MANIFEST_FILENAME}.*"))
        fresh = CompileCache(cache_dir=tmp_path)
        assert fresh.get("y") == (FakeArtifact(1), "disk")
        assert fresh.get("x") == (None, "miss")     # its row was voided

    def test_stale_schema_load_drops_index_row(self, tmp_path):
        cache = CompileCache(cache_dir=tmp_path)
        cache.put("old", FakeArtifact(0))
        stale = CompileCache(cache_dir=tmp_path,
                             schema_version=cache.schema_version + 1)
        compiled, source = stale.get("old")
        assert compiled is None and source == "miss"
        assert "old.pkl" not in stale.manifest
        assert not (tmp_path / "old.pkl").exists()

    def test_memory_only_cache_has_no_index(self):
        cache = CompileCache()
        cache.put("k", FakeArtifact(1))
        assert cache.manifest is None
        cache.invalidate("k")
        cache.invalidate()
        assert cache.get("k") == (None, "miss")

    def test_directory_holds_artifacts_manifest_and_lock_only(
            self, tmp_path):
        session = CinnamonSession(cache_dir=tmp_path)
        compiled = session.compile(build_program(), PARAMS, machine=2)
        assert sorted(os.listdir(tmp_path)) == sorted([
            ".manifest.lock", "MANIFEST.json", f"{compiled.cache_key}.pkl"])

    def test_store_does_not_compute_the_content_digest(
            self, tmp_path, monkeypatch):
        """``artifact_digest`` (canonical JSON of every instruction) cost
        more than the compile it was caching; nothing on the store or
        load path may call it."""
        import repro.trust.rebuild

        def boom(compiled):
            raise AssertionError("artifact_digest on the cache path")

        monkeypatch.setattr(repro.trust.rebuild, "artifact_digest", boom)
        CinnamonSession(cache_dir=tmp_path).compile(build_program(), PARAMS,
                                                    machine=2)
        reader = CinnamonSession(cache_dir=tmp_path)
        reader.compile(build_program(), PARAMS, machine=2)
        assert reader.cache_stats.disk_hits == 1


class TestFileLock:
    def test_exclusion_across_processes(self, tmp_path, mp_ctx):
        """While the parent holds the flock, a child cannot acquire it."""
        lock = FileLock(tmp_path / "test.lock")

        def try_lock(result_queue):
            child = FileLock(tmp_path / "test.lock", timeout_s=0.2)
            try:
                with child:
                    result_queue.put("acquired")
            except FileLockTimeout:
                result_queue.put("timeout")

        result_queue = mp_ctx.SimpleQueue()
        with lock:
            proc = mp_ctx.Process(target=try_lock, args=(result_queue,))
            proc.start()
            proc.join(timeout=30)
        assert result_queue.get() == "timeout"
        # After release, the same child path succeeds.
        proc = mp_ctx.Process(target=try_lock, args=(result_queue,))
        proc.start()
        proc.join(timeout=30)
        assert result_queue.get() == "acquired"

    def test_reentrant_use_as_context_manager(self, tmp_path):
        lock = FileLock(tmp_path / "cm.lock")
        with lock:
            assert lock.held
        assert not lock.held

    def test_index_written_atomically(self, tmp_path):
        cache = CompileCache(cache_dir=tmp_path)
        cache.put("k", FakeArtifact(1))
        doc = json.loads((tmp_path / MANIFEST_FILENAME).read_text())
        assert set(doc) == {"schema", "entries", "sig"}
        assert list(doc["entries"]) == ["k.pkl"]
        assert not list(tmp_path.glob("*.tmp"))
