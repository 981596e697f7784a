"""Compile-on-demand C kernel backend ("native").

The butterfly loops in :mod:`repro.fhe.kernels` are one numpy op per stage
across the whole limb stack — portable, but each stage streams the stack
through memory several times.  ``_native.c`` implements the same
Shoup/Harvey arithmetic as tight C loops that keep one limb cache-resident
per transform; on a single core with auto-vectorization this is ~10x the
seed per-limb loop and ~5x the batched numpy kernels at (L=24, N=8192).
Tables are the per-unique-prime rows of :class:`repro.fhe.kernels.NttPlan`;
a call passes one table-row index per limb, and the C side picks the
narrow (``p < 2**30``) or wide butterfly per limb.

The shared library is built lazily with the system C compiler (``$CC`` or
``cc``) into ``_native_build/`` next to this file, keyed by a hash of the
C source so stale objects are never reused.  Everything degrades
gracefully: if no compiler is present, compilation fails, or the built
library does not reproduce the reference kernels bit-for-bit on a smoke
test, the ``"native"`` backend simply is not registered and the default
stays ``"numpy-batched"``.  ``build_error()`` reports why.

This is also the in-tree demonstration of the :mod:`repro.fhe.backend`
extension story: an accelerated backend only implements the primitives it
accelerates (here the two NTT directions) and delegates the rest.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import kernels as _kernels
from .modmath import UINT

_SOURCE = Path(__file__).with_name("_native.c")
_CFLAGS = ("-O3", "-march=native", "-funroll-loops", "-shared", "-fPIC")

_LOCK = threading.Lock()
_LIB: Optional[ctypes.CDLL] = None
_ERROR: Optional[str] = None
_TRIED = False


def _build_dir() -> Path:
    """Writable directory for the compiled object (repo dir, else tmp)."""
    preferred = _SOURCE.with_name("_native_build")
    try:
        preferred.mkdir(exist_ok=True)
        return preferred
    except OSError:
        return Path(tempfile.mkdtemp(prefix="repro-native-"))


def _compile() -> ctypes.CDLL:
    source = _SOURCE.read_text()
    tag = hashlib.sha256(source.encode()).hexdigest()[:16]
    shared_object = _build_dir() / f"_native-{tag}.so"
    if not shared_object.exists():
        compiler = os.environ.get("CC", "cc")
        scratch = str(shared_object) + f".tmp{os.getpid()}"
        proc = subprocess.run(
            [compiler, *_CFLAGS, "-o", scratch, str(_SOURCE)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{compiler} failed ({proc.returncode}): {proc.stderr.strip()}"
            )
        os.replace(scratch, shared_object)
    lib = ctypes.CDLL(str(shared_object))
    # Addresses are passed as plain integers (``array.ctypes.data``):
    # building a typed pointer per argument costs more than a ring-256
    # transform.
    address = ctypes.c_void_p
    lib.repro_ntt_rows.restype = None
    lib.repro_ntt_rows.argtypes = [address, ctypes.c_long, ctypes.c_long,
                                   address] + [address] * 3
    lib.repro_intt_rows.restype = None
    lib.repro_intt_rows.argtypes = [address, ctypes.c_long, ctypes.c_long,
                                    address] + [address] * 5
    return lib


def _run(lib: ctypes.CDLL, stack: np.ndarray, tables, rows: np.ndarray,
         inverse: bool) -> np.ndarray:
    """Transform a copy of ``stack``; row ``i`` uses table row ``rows[i]``."""
    out = np.array(stack, dtype=UINT, order="C")
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    pointers = getattr(tables, "pointers", None)
    if pointers is None:
        # Cached on the snapshot (which keeps the arrays alive); a racing
        # thread stores the same values.
        pointers = tables.pointers = tuple(
            getattr(tables, name).ctypes.data
            for name in ("psi", "psi_sh", "p",
                         "ipsi", "ipsi_sh", "p", "n_inv", "n_inv_sh"))
    limbs, n = out.shape
    if inverse:
        lib.repro_intt_rows(out.ctypes.data, limbs, n, rows.ctypes.data,
                            *pointers[3:])
    else:
        lib.repro_ntt_rows(out.ctypes.data, limbs, n, rows.ctypes.data,
                           *pointers[:3])
    return out


def _smoke_test(lib: ctypes.CDLL) -> None:
    """Refuse to register a miscompiled library: round-trip vs reference
    on a narrow and a wide prime, rows out of table order."""
    from .ntt import intt_reference, ntt_reference
    from .primes import generate_primes

    n = 64
    primes = generate_primes(1, 28, n) + generate_primes(1, 31, n)
    tables, rows = _kernels.plan_rows((3, n), primes, rows=[1, 0, 1])
    primes = [primes[r] for r in (1, 0, 1)]
    rng = np.random.default_rng(7)
    stack = rng.integers(0, np.array(primes, dtype=UINT)[:, None],
                         size=(3, n), dtype=UINT)
    want_fwd = np.stack(
        [ntt_reference(stack[i], q) for i, q in enumerate(primes)]
    )
    got_fwd = _run(lib, stack, tables, rows, inverse=False)
    if not np.array_equal(got_fwd, want_fwd):
        raise RuntimeError("forward NTT smoke test mismatch")
    want_inv = np.stack(
        [intt_reference(want_fwd[i], q) for i, q in enumerate(primes)]
    )
    got_inv = _run(lib, got_fwd, tables, rows, inverse=True)
    if not np.array_equal(got_inv, want_inv):
        raise RuntimeError("inverse NTT smoke test mismatch")


def load_library() -> Optional[ctypes.CDLL]:
    """Compile (once) and return the shared library, or None on failure."""
    global _LIB, _ERROR, _TRIED
    with _LOCK:
        if not _TRIED:
            _TRIED = True
            try:
                lib = _compile()
                _smoke_test(lib)
                _LIB = lib
            except Exception as exc:  # no compiler, bad toolchain, ...
                _ERROR = f"{type(exc).__name__}: {exc}"
        return _LIB


def available() -> bool:
    """True when the compiled backend built and passed its smoke test."""
    return load_library() is not None


def build_error() -> Optional[str]:
    """Why the native backend is unavailable (None when it is available)."""
    load_library()
    return _ERROR


class NativeBackend:
    """C NTT/INTT kernels; other primitives delegate to the batched ones."""

    name = "native"

    def ntt_batch(self, coeffs: np.ndarray, primes: Sequence[int],
                  rows=None) -> np.ndarray:
        return self._transform(coeffs, primes, rows, inverse=False)

    def intt_batch(self, values: np.ndarray, primes: Sequence[int],
                   rows=None) -> np.ndarray:
        return self._transform(values, primes, rows, inverse=True)

    def _transform(self, stack, primes, rows, inverse):
        stack = np.asarray(stack, dtype=UINT)
        if stack.ndim == 1:
            return self._transform(stack[None, :], primes, rows, inverse)[0]
        lib = load_library()
        tables, table_rows = _kernels.plan_rows(stack.shape, primes, rows)
        if lib is None or tables is None:
            fall = _kernels.intt_batch if inverse else _kernels.ntt_batch
            return fall(stack, primes, rows)
        return _run(lib, stack, tables, table_rows, inverse)

    def base_convert(self, limbs, source, target):
        return _kernels.base_convert(limbs, source, target)

    def mod_up(self, limbs, source, target):
        return _kernels.mod_up(limbs, source, target)

    def mod_down(self, limbs, base, extension):
        return _kernels.mod_down(limbs, base, extension)

    def pointwise_mulmod(self, a, b, primes):
        return _kernels.pointwise_mulmod(a, b, primes)
