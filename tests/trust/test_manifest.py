"""Signed artifact manifests: store/load, record/verify, tamper
quarantine, and the fail-closed posture when the manifest itself is
attacked."""

import hashlib
import json
import os
import time

import pytest

from repro.trust.errors import TamperDetectedError
from repro.trust.manifest import (ArtifactManifest, MANIFEST_FILENAME,
                                  QUARANTINE_DIRNAME, sha256_file)


def put(directory, name, data: bytes):
    path = directory / name
    path.write_bytes(data)
    return path


def forge_signature(directory):
    """Keep the rows, void the signature."""
    path = directory / MANIFEST_FILENAME
    doc = json.loads(path.read_text())
    doc["sig"] = "0" * 64
    path.write_text(json.dumps(doc))


class TestRecordVerify:
    def test_recorded_bytes_verify(self, tmp_path):
        manifest = ArtifactManifest(tmp_path)
        put(tmp_path, "a.pkl", b"artifact-a")
        manifest.record("a.pkl", sha256=hashlib.sha256(b"artifact-a")
                        .hexdigest())
        assert manifest.verify_bytes("a.pkl", b"artifact-a") is True
        assert "a.pkl" in manifest
        assert len(manifest) == 1

    def test_store_writes_the_file_and_its_row(self, tmp_path):
        manifest = ArtifactManifest(tmp_path)
        entry = manifest.store("b.pkl", b"artifact-b")
        path = tmp_path / "b.pkl"
        assert path.read_bytes() == b"artifact-b"
        assert entry["sha256"] == sha256_file(path)
        assert entry["size"] == len(b"artifact-b")
        assert set(entry) == {"sha256", "size", "recorded_unix"}
        assert manifest.load("b.pkl") == b"artifact-b"
        assert not list(tmp_path.glob("*.tmp"))

    def test_load_of_unrecorded_or_missing_is_none(self, tmp_path):
        manifest = ArtifactManifest(tmp_path)
        put(tmp_path, "dropped-in.pkl", b"nobody signed this")
        assert manifest.load("dropped-in.pkl") is None
        assert (tmp_path / "dropped-in.pkl").exists()   # left in place
        assert manifest.load("never-existed.pkl") is None

    def test_unrecorded_is_false_not_an_error(self, tmp_path):
        manifest = ArtifactManifest(tmp_path)
        assert manifest.verify_bytes("ghost.pkl", b"whatever") is False

    def test_mismatch_raises_typed_error_and_fires_hook(self, tmp_path):
        seen = []
        manifest = ArtifactManifest(tmp_path, on_tamper=seen.append)
        manifest.record("c.pkl", sha256=hashlib.sha256(b"good").hexdigest())
        with pytest.raises(TamperDetectedError) as info:
            manifest.verify_bytes("c.pkl", b"evil")
        assert info.value.target == "cache"
        assert info.value.name == "c.pkl"
        assert seen and seen[0] is info.value

    def test_forget_and_clear(self, tmp_path):
        """Both delete the file together with its row."""
        manifest = ArtifactManifest(tmp_path)
        manifest.store("a.pkl", b"a")
        manifest.store("b.pkl", b"b")
        manifest.record("c.pkl", sha256="1" * 64)   # a row without a file
        manifest.forget("a.pkl")
        assert "a.pkl" not in manifest and "b.pkl" in manifest
        assert not (tmp_path / "a.pkl").exists()
        manifest.clear()
        assert len(manifest) == 0
        assert not (tmp_path / "b.pkl").exists()


class TestQuarantine:
    def test_tampered_file_moves_to_quarantine(self, tmp_path):
        seen = []
        manifest = ArtifactManifest(tmp_path, on_tamper=seen.append)
        manifest.store("a.pkl", b"payload")
        path = put(tmp_path, "a.pkl", b"tampered")
        with pytest.raises(TamperDetectedError) as info:
            manifest.load("a.pkl")
        assert seen == [info.value]
        (dest,) = (tmp_path / QUARANTINE_DIRNAME).glob("a.pkl.*")
        assert dest.read_bytes() == b"tampered"
        assert not path.exists()          # moved, not copied
        assert "a.pkl" not in manifest    # row dropped
        assert manifest.load("a.pkl") is None

    def test_quarantine_of_missing_file_is_none(self, tmp_path):
        """A row whose file is gone has nothing to compare and nothing
        to quarantine: ``load`` is ``None`` and the audit's to report."""
        manifest = ArtifactManifest(tmp_path)
        manifest.record("gone.pkl", sha256="0" * 64)
        assert manifest.load("gone.pkl") is None
        assert not manifest.quarantine_dir.exists()
        assert manifest.verify_directory()["missing"] == ["gone.pkl"]


class TestManifestItselfAttacked:
    def test_forged_signature_fails_closed(self, tmp_path):
        """Editing the manifest (rows or sig) voids everything in it:
        every artifact becomes unrecorded — a miss, never unpickled."""
        manifest = ArtifactManifest(tmp_path)
        put(tmp_path, "a.pkl", b"payload")
        manifest.record("a.pkl", sha256=hashlib.sha256(b"payload")
                        .hexdigest())
        doc = json.loads((tmp_path / MANIFEST_FILENAME).read_text())
        doc["entries"]["evil.pkl"] = {"sha256": "f" * 64}
        (tmp_path / MANIFEST_FILENAME).write_text(json.dumps(doc))
        assert manifest.entries() == {}
        # The forged manifest is itself quarantined as evidence.
        assert list(manifest.quarantine_dir.glob(
            f"{MANIFEST_FILENAME}.*"))

    def test_forged_signature_does_not_stall_writers(self, tmp_path):
        """A mutator meets the forged manifest while already holding the
        (non-reentrant) flock: it must void it there — quarantine,
        report once, continue from empty — not wait on itself."""
        seen = []
        manifest = ArtifactManifest(tmp_path, on_tamper=seen.append)
        manifest._lock.timeout_s = 2.0
        manifest.store("old.pkl", b"old")
        forge_signature(tmp_path)
        started = time.monotonic()
        manifest.store("new.pkl", b"new")
        assert time.monotonic() - started < 1.0
        assert [error.name for error in seen] == [MANIFEST_FILENAME]
        assert list(manifest.quarantine_dir.glob(f"{MANIFEST_FILENAME}.*"))
        assert manifest.load("new.pkl") == b"new"
        assert manifest.load("old.pkl") is None     # its row was voided
        for mutate in (lambda: manifest.load("new.pkl"),
                       lambda: manifest.forget("new.pkl"),
                       lambda: manifest.record("r.pkl", sha256="0" * 64),
                       manifest.clear):
            forge_signature(tmp_path)
            started = time.monotonic()
            mutate()
            assert time.monotonic() - started < 1.0
        assert len(seen) == 5

    def test_deleting_manifest_means_all_unrecorded(self, tmp_path):
        manifest = ArtifactManifest(tmp_path)
        manifest.store("a.pkl", b"payload")
        (tmp_path / MANIFEST_FILENAME).unlink()
        # No row -> unrecorded -> miss; the bytes must never be trusted.
        assert manifest.verify_bytes("a.pkl", b"payload") is False
        assert manifest.load("a.pkl") is None

    def test_parent_commit_manifest_still_verifies(self, tmp_path):
        """Rows written before the content-digest column was dropped
        carry a ``digest`` key; the signature covers whatever the rows
        hold, so such a manifest verifies and its artifacts load."""
        from repro.trust.manifest import sign_entries

        manifest = ArtifactManifest(tmp_path)
        put(tmp_path, "a.pkl", b"payload")
        rows = {"a.pkl": {"sha256": hashlib.sha256(b"payload").hexdigest(),
                          "digest": "d" * 64, "size": 7,
                          "recorded_unix": 1.0}}
        (tmp_path / MANIFEST_FILENAME).write_text(json.dumps(
            {"schema": 1, "entries": rows,
             "sig": sign_entries(rows, manifest.key)}))
        assert manifest.load("a.pkl") == b"payload"
        manifest.store("b.pkl", b"next")        # and it can be extended
        assert manifest.entries()["a.pkl"] == rows["a.pkl"]
        assert manifest.verify_directory()["verified"] == ["a.pkl", "b.pkl"]

    def test_key_mismatch_voids_the_manifest(self, tmp_path):
        ArtifactManifest(tmp_path, key=b"key-one").record(
            "a.pkl", sha256="0" * 64)
        other = ArtifactManifest(tmp_path, key=b"key-two")
        assert other.entries() == {}


class TestDirectoryAudit:
    def test_verify_directory_classifies(self, tmp_path):
        manifest = ArtifactManifest(tmp_path)
        manifest.store("ok.pkl", b"fine")
        manifest.store("bad.pkl", b"fine-too")
        bad = put(tmp_path, "bad.pkl", b"flipped")
        manifest.record("gone.pkl", sha256="0" * 64)
        report = manifest.verify_directory()
        assert report["verified"] == ["ok.pkl"]
        assert report["tampered"] == ["bad.pkl"]
        assert report["missing"] == ["gone.pkl"]
        # Read-only audit: nothing was quarantined or forgotten.
        assert bad.exists() and len(manifest) == 3
