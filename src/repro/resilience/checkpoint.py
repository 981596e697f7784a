"""Checkpoint/restore for in-flight encrypted executions.

A :class:`Checkpoint` snapshots one run at a consistent boundary:

* the **timing frontier** — a full
  :class:`~repro.sim.simulator.SimulationSnapshot` of the cycle
  simulator (per-chip program counters, register/FU/bandwidth state), so
  a transient fault resumes mid-run instead of from cycle 0; and
* the **live data frontier** — the run's ciphertext values serialized
  through :mod:`repro.fhe.serialize` (CRC-framed), which is what maps
  onto a *different* chip partitioning after a degraded-mode recompile.

The :class:`CheckpointStore` persists snapshots as versioned, CRC32-
validated blobs (in memory or under a directory); a bit-flipped or
truncated snapshot fails loudly with :class:`CorruptCheckpointError`
instead of resuming from garbage.

Directory-backed stores keep each run directory behind a signed
:class:`~repro.trust.manifest.ArtifactManifest` and reach the files only
through it: ``save`` is the manifest's ``store`` (blob and signed row as
one unit), and only bytes its ``load`` has checked against their row are
deserialized.  A recorded-but-mismatched blob is *tampering* — reported
through ``on_tamper`` and moved to ``quarantine/``; a blob with no row
(dropped in out-of-band, or its manifest deleted) is unverifiable.
:meth:`CheckpointStore.load` raises :class:`CorruptCheckpointError` for
both, :meth:`CheckpointStore.list` skips both, and neither ever reaches
``pickle.loads`` — the CRC detects accidents, not adversaries.
"""

from __future__ import annotations

import pickle
import struct
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..fhe.serialize import dump_ciphertext, load_ciphertext
from ..sim.simulator import SimulationSnapshot
from ..trust.errors import TamperDetectedError
from ..trust.manifest import ArtifactManifest

#: Version of the checkpoint blob layout; bump on incompatible change.
CHECKPOINT_VERSION = 1

_MAGIC = b"CNCK"
_HEADER_FMT = ">HIQ"            # version: u16, crc32: u32, body_len: u64
_HEADER_LEN = len(_MAGIC) + struct.calcsize(_HEADER_FMT)


class CorruptCheckpointError(ValueError):
    """A checkpoint blob failed its CRC/magic/version validation."""


@dataclass
class Checkpoint:
    """One recoverable snapshot of a run.

    ``payload`` maps live-value names to CRC-framed ciphertext blobs
    (:func:`repro.fhe.serialize.dump_ciphertext` output); ``snapshot``
    is the simulator's timing state when the checkpoint was taken
    mid-run (``None`` for the data-only seq-0 checkpoint written at run
    start).
    """

    run_id: str
    seq: int
    cycle: int
    machine: str
    fingerprint: str = ""            # compile cache key of the program
    frontier: Dict[int, int] = field(default_factory=dict)
    payload: Dict[str, bytes] = field(default_factory=dict)
    snapshot: Optional[SimulationSnapshot] = None
    created_unix: float = field(default_factory=time.time)
    version: int = CHECKPOINT_VERSION

    # ------------------------------------------------------------------ #

    def to_bytes(self) -> bytes:
        body = pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        crc = zlib.crc32(body) & 0xFFFFFFFF
        return _MAGIC + struct.pack(_HEADER_FMT, self.version, crc,
                                    len(body)) + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "Checkpoint":
        if not data.startswith(_MAGIC):
            raise CorruptCheckpointError("not a cinnamon checkpoint blob")
        if len(data) < _HEADER_LEN:
            raise CorruptCheckpointError("truncated checkpoint header")
        version, crc, body_len = struct.unpack(
            _HEADER_FMT, data[len(_MAGIC):_HEADER_LEN])
        if version > CHECKPOINT_VERSION:
            raise CorruptCheckpointError(
                f"checkpoint v{version} is newer than this reader "
                f"(v{CHECKPOINT_VERSION})")
        body = data[_HEADER_LEN:]
        if len(body) != body_len:
            raise CorruptCheckpointError(
                f"truncated checkpoint body: {len(body)} of {body_len} "
                "bytes")
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            raise CorruptCheckpointError(
                "checkpoint CRC32 mismatch: snapshot is corrupt")
        restored = pickle.loads(body)
        if not isinstance(restored, cls):
            raise CorruptCheckpointError(
                f"checkpoint body decodes to {type(restored).__name__}")
        return restored

    # ------------------------------------------------------------------ #

    def restore_values(self, params) -> Dict[str, object]:
        """Deserialize the live ciphertexts (CRC-checked per value)."""
        return {name: load_ciphertext(blob, params)
                for name, blob in self.payload.items()}

    @staticmethod
    def serialize_values(values: Dict[str, object],
                         params) -> Dict[str, bytes]:
        """CRC-framed blobs for a dict of live ciphertexts."""
        return {name: dump_ciphertext(ct, params)
                for name, ct in values.items()}


class CheckpointStore:
    """Versioned checkpoint storage, in memory or directory-backed.

    With ``root`` set, every checkpoint lands in
    ``<root>/<run_id>/ckpt-<seq>.cnmnckpt`` and survives the process;
    without it the store is a per-process dict (fast tests, transient
    runs).  ``keep`` bounds snapshots retained per run — older ones are
    pruned after each save, newest last.
    """

    SUFFIX = ".cnmnckpt"

    def __init__(self, root=None, keep: int = 3, trust_key=None,
                 on_tamper=None):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.root = Path(root) if root is not None else None
        self.keep = keep
        self.trust_key = trust_key
        self.on_tamper = on_tamper
        self._memory: Dict[str, List[Checkpoint]] = {}
        self._manifests: Dict[Path, ArtifactManifest] = {}

    def _manifest(self, run_dir: Path) -> ArtifactManifest:
        manifest = self._manifests.get(run_dir)
        if manifest is None:
            manifest = ArtifactManifest(run_dir, key=self.trust_key,
                                        target="checkpoint",
                                        on_tamper=self.on_tamper)
            self._manifests[run_dir] = manifest
        return manifest

    # ------------------------------------------------------------------ #

    def save(self, checkpoint: Checkpoint) -> Optional[Path]:
        """Persist one checkpoint; returns its path (None in memory)."""
        if self.root is None:
            chain = self._memory.setdefault(checkpoint.run_id, [])
            chain.append(checkpoint)
            del chain[:-self.keep]
            return None
        run_dir = self.root / checkpoint.run_id
        name = f"ckpt-{checkpoint.seq:06d}{self.SUFFIX}"
        self._manifest(run_dir).store(name, checkpoint.to_bytes())
        self._prune(run_dir)
        return run_dir / name

    def load(self, path) -> Checkpoint:
        """Read + validate one snapshot file.

        Only bytes that match their signed manifest row are
        deserialized: a mismatch (quarantined as evidence), a blob with
        no row and a missing file all fail with
        :class:`CorruptCheckpointError`.
        """
        path = Path(path)
        try:
            data = self._manifest(path.parent).load(path.name)
        except TamperDetectedError as exc:
            raise CorruptCheckpointError(str(exc)) from exc
        if data is None:
            raise CorruptCheckpointError(
                f"checkpoint {path} is missing or has no signed manifest "
                "row")
        return Checkpoint.from_bytes(data)

    def list(self, run_id: str) -> List[Checkpoint]:
        """All retained checkpoints of a run, oldest first.

        Directory-backed stores skip corrupt, tampered and unrecorded
        files here (recovery falls back to an older snapshot);
        :meth:`load` on the specific path says what is wrong with one.
        """
        if self.root is None:
            return list(self._memory.get(run_id, []))
        run_dir = self.root / run_id
        if not run_dir.is_dir():
            return []
        out = []
        for path in sorted(run_dir.glob(f"ckpt-*{self.SUFFIX}")):
            try:
                out.append(self.load(path))
            except CorruptCheckpointError:
                continue
        return out

    def latest(self, run_id: str,
               max_cycle: Optional[int] = None) -> Optional[Checkpoint]:
        """The newest valid checkpoint of a run (optionally at or before
        ``max_cycle`` — recovery wants the last one before the fault)."""
        chain = self.list(run_id)
        if max_cycle is not None:
            chain = [c for c in chain if c.cycle <= max_cycle]
        return chain[-1] if chain else None

    def _prune(self, run_dir: Path) -> None:
        paths = sorted(run_dir.glob(f"ckpt-*{self.SUFFIX}"))
        for stale in paths[:-self.keep]:
            self._manifest(run_dir).forget(stale.name)
