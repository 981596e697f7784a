"""Checkpoints: framing, corruption detection, store retention, resume."""

import pickle

import numpy as np
import pytest

from repro.fhe.serialize import (
    CorruptPayloadError,
    dump_ciphertext,
    load_ciphertext,
    unframe_payload,
)
from repro.resilience import (
    Checkpoint,
    CheckpointStore,
    CorruptCheckpointError,
    FaultSchedule,
)
from repro.sim import CINNAMON_4, SimulatorEngine


class _Detonator:
    """Unpickling an instance runs :meth:`fire` (via ``__reduce__``)."""

    fired = False

    @classmethod
    def fire(cls):
        cls.fired = True

    def __reduce__(self):
        return (_Detonator.fire, ())


def make_checkpoint(seq=0, cycle=0, payload=None, snapshot=None):
    return Checkpoint(run_id="run-1", seq=seq, cycle=cycle,
                      machine="Cinnamon-4", fingerprint="abc123",
                      frontier={0: 10, 1: 12},
                      payload=payload or {}, snapshot=snapshot)


class TestCheckpointBlob:
    def test_round_trip(self):
        ckpt = make_checkpoint(seq=3, cycle=777,
                               payload={"x": b"framed-bytes"})
        back = Checkpoint.from_bytes(ckpt.to_bytes())
        assert back.run_id == "run-1"
        assert back.seq == 3
        assert back.cycle == 777
        assert back.frontier == {0: 10, 1: 12}
        assert back.payload == {"x": b"framed-bytes"}

    def test_bit_flip_detected(self):
        blob = bytearray(make_checkpoint().to_bytes())
        blob[-1] ^= 0x40
        with pytest.raises(CorruptCheckpointError, match="CRC32"):
            Checkpoint.from_bytes(bytes(blob))

    def test_truncation_detected(self):
        blob = make_checkpoint().to_bytes()
        with pytest.raises(CorruptCheckpointError, match="truncated"):
            Checkpoint.from_bytes(blob[:-7])

    def test_wrong_magic_detected(self):
        with pytest.raises(CorruptCheckpointError):
            Checkpoint.from_bytes(b"JUNK" + make_checkpoint().to_bytes())

    def test_future_version_refused(self):
        ckpt = make_checkpoint()
        ckpt.version = 999
        with pytest.raises(CorruptCheckpointError, match="newer"):
            Checkpoint.from_bytes(ckpt.to_bytes())


class TestCiphertextFraming:
    def test_round_trip_and_corruption(self, small_params, small_context):
        ct = small_context.encrypt_values([0.5, -0.25, 0.125])
        blob = dump_ciphertext(ct, small_params)
        back = load_ciphertext(blob, small_params)
        assert np.allclose(small_context.decrypt_values(back, 3),
                           small_context.decrypt_values(ct, 3))
        flipped = bytearray(blob)
        flipped[len(flipped) // 2] ^= 0x01
        with pytest.raises(CorruptPayloadError):
            load_ciphertext(bytes(flipped), small_params)

    def test_headerless_archive_is_rejected(self, small_params,
                                            small_context):
        ct = small_context.encrypt_values([1.0, 2.0])
        headerless = unframe_payload(dump_ciphertext(ct, small_params))
        assert headerless[:2] == b"PK"      # a bare, valid .npz archive
        with pytest.raises(CorruptPayloadError, match="bad magic"):
            load_ciphertext(headerless, small_params)

    def test_live_values_round_trip(self, small_params, small_context):
        values = {"a": small_context.encrypt_values([1.0]),
                  "b": small_context.encrypt_values([2.0])}
        payload = Checkpoint.serialize_values(values, small_params)
        ckpt = make_checkpoint(payload=payload)
        restored = Checkpoint.from_bytes(
            ckpt.to_bytes()).restore_values(small_params)
        assert set(restored) == {"a", "b"}
        assert np.allclose(small_context.decrypt_values(restored["a"], 1),
                           [1.0], atol=1e-4)


class TestCheckpointStore:
    def test_memory_store_keeps_newest(self):
        store = CheckpointStore(keep=2)
        for seq in range(4):
            store.save(make_checkpoint(seq=seq, cycle=seq * 100))
        chain = store.list("run-1")
        assert [c.seq for c in chain] == [2, 3]
        assert store.latest("run-1").seq == 3
        assert store.latest("run-1", max_cycle=250).seq == 2

    def test_directory_store_prunes_and_survives(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        paths = [store.save(make_checkpoint(seq=seq, cycle=seq * 100))
                 for seq in range(3)]
        assert not paths[0].exists()
        assert paths[1].exists() and paths[2].exists()
        fresh = CheckpointStore(tmp_path, keep=2)
        assert [c.seq for c in fresh.list("run-1")] == [1, 2]

    def test_corrupt_file_skipped_by_list_loud_on_load(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        store.save(make_checkpoint(seq=0, cycle=100))
        path = store.save(make_checkpoint(seq=1, cycle=200))
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert [c.seq for c in store.list("run-1")] == [0]
        assert store.latest("run-1").cycle == 100
        with pytest.raises(CorruptCheckpointError):
            store.load(path)

    def test_tampered_checkpoint_quarantined_recovery_continues(
            self, tmp_path):
        """Flipping bytes in a signed checkpoint must not poison
        recovery: load() quarantines the evidence and raises, list()
        falls back to the surviving older snapshot, and the on_tamper
        hook reports the attack."""
        from repro.trust.errors import TamperDetectedError

        seen = []
        store = CheckpointStore(tmp_path, keep=3, on_tamper=seen.append)
        store.save(make_checkpoint(seq=0, cycle=100))
        path = store.save(make_checkpoint(seq=1, cycle=200))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpointError):
            store.load(path)
        assert seen and isinstance(seen[0], TamperDetectedError)
        # Evidence moved aside, not deleted; recovery uses seq 0.
        assert not path.exists()
        assert list((tmp_path / "run-1" / "quarantine")
                    .glob(f"{path.name}.*"))
        assert store.latest("run-1").seq == 0

    def test_unrecorded_checkpoint_is_never_unpickled(self, tmp_path):
        """The CRC guards against accidents, not adversaries: with the
        manifest gone nothing vouches for the blobs, so a planted file
        with a valid ``CNCK`` header must not reach ``pickle.loads`` —
        ``load`` refuses it and ``list``/``latest`` skip it."""
        import struct
        import zlib

        store = CheckpointStore(tmp_path, keep=3)
        path = store.save(make_checkpoint(seq=0, cycle=100))
        (tmp_path / "run-1" / "MANIFEST.json").unlink()
        body = pickle.dumps(_Detonator())
        path.write_bytes(b"CNCK" + struct.pack(
            ">HIQ", 1, zlib.crc32(body) & 0xFFFFFFFF, len(body)) + body)
        fresh = CheckpointStore(tmp_path, keep=3)
        with pytest.raises(CorruptCheckpointError, match="manifest"):
            fresh.load(path)
        assert fresh.list("run-1") == []
        assert fresh.latest("run-1") is None
        assert not _Detonator.fired
        # The blob really is one the CRC-only path would have unpickled.
        with pytest.raises(CorruptCheckpointError, match="decodes to"):
            Checkpoint.from_bytes(path.read_bytes())
        assert _Detonator.fired

    def test_missing_run_is_empty(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.list("no-such-run") == []
        assert store.latest("no-such-run") is None

    def test_keep_must_be_positive(self):
        with pytest.raises(ValueError):
            CheckpointStore(keep=0)


class TestSnapshotResume:
    def test_resume_matches_clean_run(self, compiled_4):
        engine = SimulatorEngine(CINNAMON_4)
        clean = engine.run(compiled_4.isa)
        snapshots = []
        engine.run(compiled_4.isa, checkpoint_interval=clean.cycles // 4,
                   checkpoint_hook=snapshots.append)
        assert len(snapshots) >= 2
        mid = snapshots[len(snapshots) // 2]
        resumed = engine.run(compiled_4.isa, resume_from=mid)
        assert resumed.cycles == clean.cycles
        assert resumed.instructions == clean.instructions

    def test_snapshot_survives_checkpoint_blob(self, compiled_4):
        engine = SimulatorEngine(CINNAMON_4)
        snapshots = []
        engine.run(compiled_4.isa, checkpoint_interval=10_000,
                   checkpoint_hook=snapshots.append)
        ckpt = make_checkpoint(cycle=snapshots[0].cycle,
                               snapshot=snapshots[0])
        back = Checkpoint.from_bytes(ckpt.to_bytes())
        clean = engine.run(compiled_4.isa)
        resumed = engine.run(compiled_4.isa, resume_from=back.snapshot)
        assert resumed.cycles == clean.cycles

    def test_checkpoints_do_not_change_timing(self, compiled_4):
        engine = SimulatorEngine(CINNAMON_4)
        clean = engine.run(compiled_4.isa)
        observed = engine.run(compiled_4.isa, checkpoint_interval=5_000,
                              checkpoint_hook=lambda snap: None)
        assert observed.cycles == clean.cycles

    def test_resume_with_later_fault_still_faults(self, compiled_4):
        """Resuming does not dodge the schedule: a fault past the resume
        point still fires, and the recovery loop relies on the surviving
        schedule being filtered via ``for_survivors`` instead."""
        engine = SimulatorEngine(CINNAMON_4)
        clean = engine.run(compiled_4.isa)
        snapshots = []
        engine.run(compiled_4.isa, checkpoint_interval=clean.cycles // 3,
                   checkpoint_hook=snapshots.append)
        early = snapshots[0]
        sched = FaultSchedule().chip_crash(2, early.cycle + 1000)
        from repro.resilience import ChipFailure
        with pytest.raises(ChipFailure) as info:
            engine.run(compiled_4.isa, resume_from=early,
                       fault_schedule=sched)
        assert info.value.cycle == early.cycle + 1000
        resumed = engine.run(compiled_4.isa, resume_from=early,
                             fault_schedule=sched.for_survivors([2]))
        assert resumed.cycles == clean.cycles
