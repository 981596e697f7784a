"""Build-on-demand for the package's C libraries.

``fhe/_native.c`` (the kernel backend) and ``sim/_engine.c`` (the cycle
simulator's inner loop) are compiled the first time they are needed, with
the system C compiler (``$CC`` or ``cc``), into ``_native_build/`` beside
this file — or a fresh temporary directory when the package tree is
read-only.  An object's name carries a hash of its source and flags, so an
edited source is never served a stale object; a build writes a
process-private file and renames it into place, so processes building
at once race harmlessly.  Callers catch the exceptions and degrade to their
pure-Python path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Sequence

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
