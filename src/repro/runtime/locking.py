"""Advisory cross-process file locks for shared on-disk state.

The on-disk compile cache and the tuning DB are shared by every process
of a :mod:`repro.cluster` deployment (router, N workers, plus any CLI
run pointed at the same ``cache_dir``).  Individual artifact writes are
already torn-read-safe (write-to-temp + ``os.replace``), but
read-modify-write sequences — a directory's signed manifest, the tuning
DB's merge-on-save — need mutual exclusion *across processes*, which a
``threading`` lock cannot provide.

:class:`FileLock` wraps ``fcntl.flock`` on POSIX (one lock file per
protected resource; the lock is tied to the open file description, so it
also excludes threads of the same process).  On platforms without
``fcntl`` it degrades to an ``O_EXCL`` spin-lock file.  Locks are
advisory: every writer must go through the same :class:`FileLock` path.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

try:  # POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None


class FileLockTimeout(TimeoutError):
    """The lock could not be acquired within the configured timeout."""


class FileLock:
    """Advisory exclusive lock on ``path`` (a dedicated lock file).

    Usable as a context manager::

        with FileLock(cache_dir / ".lock"):
            ...  # read-modify-write shared state

    Each ``acquire`` opens its own file descriptor, so concurrent users
    of one :class:`FileLock` instance (or of distinct instances on the
    same path, in any process) all exclude each other.
    """

    def __init__(self, path, timeout_s: float = 30.0,
                 poll_s: float = 0.005):
        self.path = Path(path)
        self.timeout_s = timeout_s
        self.poll_s = poll_s
        self._fd: int | None = None

    # ------------------------------------------------------------------ #

    def acquire(self) -> "FileLock":
        deadline = time.monotonic() + self.timeout_s
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if fcntl is not None:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    self._fd = fd
                    return self
                except OSError:
                    if time.monotonic() >= deadline:
                        os.close(fd)
                        raise FileLockTimeout(
                            f"could not lock {self.path} within "
                            f"{self.timeout_s}s")
                    time.sleep(self.poll_s)
        # O_EXCL fallback: create-or-spin on a sentinel file.
        sentinel = self.path.with_suffix(self.path.suffix + ".excl")
        while True:  # pragma: no cover - exercised only without fcntl
            try:
                self._fd = os.open(sentinel,
                                   os.O_CREAT | os.O_EXCL | os.O_RDWR)
                self._sentinel = sentinel
                return self
            except FileExistsError:
                if time.monotonic() >= deadline:
                    raise FileLockTimeout(
                        f"could not lock {self.path} within "
                        f"{self.timeout_s}s")
                time.sleep(self.poll_s)

    def release(self) -> None:
        fd, self._fd = self._fd, None
        if fd is None:
            return
        if fcntl is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)
        else:  # pragma: no cover - non-POSIX
            os.close(fd)
            try:
                os.unlink(self._sentinel)
            except OSError:
                pass

    @property
    def held(self) -> bool:
        return self._fd is not None

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()
