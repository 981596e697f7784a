"""Build-on-demand for the package's C libraries.

``fhe/_native.c`` (the FHE kernels), ``sim/_engine.c`` (the cycle
simulator's inner loop) and ``core/isa/_regalloc.c`` (the register
allocator) are compiled the first time they are needed, with the system C
compiler (``$CC`` or ``cc``), into ``_native_build/`` beside this file — or
a fresh temporary directory when the package tree is read-only.  An
object's name carries a hash of its source and flags, so an edited source
is never served a stale object; a build writes a process-private file and
renames it into place, so processes building at once race harmlessly.

Each library is one :class:`NativeLibrary`: built and loaded once per
process, on first use.  When that fails — no compiler, a bad toolchain, a
library its module's own checks refuse — ``load()`` returns None, the
caller runs its Python path (the same results: each is its C code's
oracle), and ``build_error()`` says why.  Nothing selects between the
two; tests reach the Python path by patching the loader to return None.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Callable, Optional, Sequence

CFLAGS = ("-O3", "-march=native", "-funroll-loops", "-shared", "-fPIC")

_BUILD_DIR = Path(__file__).with_name("_native_build")


def _build_dir() -> Path:
    """Writable directory for compiled objects (package dir, else tmp)."""
    try:
        _BUILD_DIR.mkdir(exist_ok=True)
        return _BUILD_DIR
    except OSError:
        return Path(tempfile.mkdtemp(prefix="repro-native-"))


def build_library(source: Path,
                  cflags: Sequence[str] = CFLAGS) -> ctypes.CDLL:
    """Compile ``source`` into a shared library (unless an object built
    from the same source and flags exists) and load it."""
    text = source.read_text()
    tag = hashlib.sha256("\0".join((text, *cflags)).encode()).hexdigest()[:16]
    shared_object = _build_dir() / f"{source.stem}-{tag}.so"
    if not shared_object.exists():
        compiler = os.environ.get("CC", "cc")
        scratch = str(shared_object) + f".tmp{os.getpid()}"
        proc = subprocess.run(
            [compiler, *cflags, "-o", scratch, str(source), "-lm"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{compiler} failed ({proc.returncode}): {proc.stderr.strip()}"
            )
        os.replace(scratch, shared_object)
    return ctypes.CDLL(str(shared_object))


class NativeLibrary:
    """One C library, built, configured and loaded once per process.

    ``configure`` declares the library's signatures and may run checks on
    it; an exception from the build or from ``configure`` leaves the
    library unavailable.
    """

    def __init__(self, source: Path,
                 configure: Callable[[ctypes.CDLL], None]):
        self._source = source
        self._configure = configure
        self._lock = threading.Lock()
        self._lib: Optional[ctypes.CDLL] = None
        self._error: Optional[str] = None
        self._tried = False

    def load(self) -> Optional[ctypes.CDLL]:
        """The loaded library, or None when it cannot be built or loaded."""
        if not self._tried:
            with self._lock:
                if not self._tried:
                    try:
                        lib = build_library(self._source)
                        self._configure(lib)
                        self._lib = lib
                    except Exception as exc:  # no compiler, bad toolchain..
                        self._error = f"{type(exc).__name__}: {exc}"
                    self._tried = True
        return self._lib

    def build_error(self) -> Optional[str]:
        """Why the library is unavailable (None when it is available)."""
        self.load()
        return self._error
