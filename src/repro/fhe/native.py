"""The C half of the FHE kernels, compiled on demand.

The butterfly loops in :mod:`repro.fhe.kernels` are one numpy op per stage
across the whole limb stack — portable, but each stage streams the stack
through memory several times.  ``_native.c`` implements the same
Shoup/Harvey arithmetic as tight C loops that keep one limb cache-resident
per transform; on a single core with auto-vectorization this is ~10x the
per-limb reference loop and ~5x the numpy kernels at (L=24, N=8192).
Tables are the per-unique-prime rows of :class:`repro.fhe.kernels.NttPlan`;
a call passes one table-row index per limb, and the C side picks the
narrow (``p < 2**30``) or wide butterfly per limb.

The pointwise primitives — one ISA emulator group per call (gather,
compute, write) and ``pointwise_mulmod`` — reduce with one Barrett step
``red(z)`` that equals ``z % p`` for every uint64 ``z``, so they evaluate
the numpy reference expressions verbatim, whatever operands arrive.

:mod:`repro.fhe.kernels` is the one entry point: its NTTs, pointwise
product and instruction groups call the wrappers here when
:func:`load_library` returns a library, and run their numpy code
otherwise.  The library is built lazily by
:class:`repro.cbuild.NativeLibrary` (the system C compiler; objects keyed
by a hash of the C source, so stale ones are never reused), on first use,
never on ``import repro``.  If no compiler is present, compilation fails,
or the built library does not reproduce the reference kernels bit for bit
on a smoke test, :func:`load_library` returns None and
:func:`build_error` says why.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Dict, Sequence, Tuple

import numpy as np

from ..cbuild import NativeLibrary
from . import kernels as _kernels
from .modmath import UINT

_SOURCE = Path(__file__).with_name("_native.c")


def _configure(lib: ctypes.CDLL) -> None:
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
    size = ctypes.c_long
    lib.repro_limb_group.restype = None
    lib.repro_limb_group.argtypes = [size, address, address, size, address,
                                     size, size, address, address, size]
    lib.repro_mulmod_rows.restype = None
    lib.repro_mulmod_rows.argtypes = [address, address, address, size, size,
                                      size, size, address]
    _smoke_test(lib)


_GROUP_CODE = {op: code for code, op in enumerate(_kernels.GROUP_OPS)}
_BARRETT: Dict[Tuple[int, ...], np.ndarray] = {}


def _barrett_rows(primes: Sequence[int]) -> np.ndarray:
    """``(L, 2)`` rows ``[p, floor((2**64 - 1) / p)]`` of a prime tuple —
    the constants of ``red()`` — computed once per tuple."""
    key = primes if type(primes) is tuple else tuple(int(q) for q in primes)
    table = _BARRETT.get(key)
    if table is None:
        if any(not 1 < q < 1 << 32 for q in key):
            raise ValueError("native pointwise kernels need 1 < p < 2**32")
        table = np.array([(q, ((1 << 64) - 1) // q) for q in key],
                         dtype=UINT).reshape(len(key), 2)
        table.flags.writeable = False
        _BARRETT[key] = table
    return table


def _limb_group(lib, op, store, srcs, primes, rows, constants) -> np.ndarray:
    store = np.ascontiguousarray(store, dtype=UINT)
    srcs = np.ascontiguousarray(srcs, dtype=np.int64)
    if store.ndim != 2 or srcs.ndim != 2 or not srcs.shape[0]:
        raise ValueError("need a (slots, N) store and an (arity, count) "
                         "block of operand rows")
    arity, count = srcs.shape
    if srcs.size and (srcs.min() < 0 or srcs.max() >= len(store)):
        raise IndexError("operand row outside the store")
    pm = _barrett_rows(primes)[rows]        # bounds-checked here, not in C
    if op not in _GROUP_CODE:
        raise ValueError(f"unknown limb group op {op!r}")
    width, address = 0, None
    if op in ("mulc", "bcv", "rsv"):
        constants = np.ascontiguousarray(constants, dtype=UINT)
        width = constants.shape[1] if constants.ndim == 2 else 1
        if (constants.shape[:1] != (count,)
                or constants.ndim != (2 if op == "bcv" else 1)
                or width < (arity if op == "bcv" else 1)):
            raise ValueError(f"constants of shape {constants.shape} for "
                             f"{count} {op} instructions of arity {arity}")
        address = constants.ctypes.data
    out = np.empty((count, store.shape[1]), dtype=UINT)
    lib.repro_limb_group(_GROUP_CODE[op], out.ctypes.data, store.ctypes.data,
                         store.shape[1], srcs.ctypes.data, arity, count,
                         pm.ctypes.data, address, width)
    return out


def _mulmod(lib, a, b, primes) -> np.ndarray:
    pm = _barrett_rows(primes)
    a = np.ascontiguousarray(a, dtype=UINT)
    b = np.broadcast_to(np.asarray(b, dtype=UINT), a.shape)
    out = np.empty_like(a)
    row, col = (stride // b.itemsize for stride in b.strides)
    lib.repro_mulmod_rows(out.ctypes.data, a.ctypes.data, b.ctypes.data,
                          a.shape[0], a.shape[1], row, col, pm.ctypes.data)
    return out


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
    """Refuse to register a miscompiled library: NTT round-trip vs
    reference and every pointwise kernel vs the numpy expressions, on a
    narrow and a wide prime, rows out of table order."""
    from .ntt import intt_reference, ntt_reference
    from .primes import generate_primes

    n = 64
    primes = generate_primes(1, 28, n) + generate_primes(1, 31, n)
    tables, rows = _kernels.plan_rows((3, n), primes, rows=[1, 0, 1])
    stack_primes = [primes[r] for r in (1, 0, 1)]
    rng = np.random.default_rng(7)
    stack = rng.integers(0, np.array(stack_primes, dtype=UINT)[:, None],
                         size=(3, n), dtype=UINT)
    want_fwd = np.stack(
        [ntt_reference(stack[i], q) for i, q in enumerate(stack_primes)]
    )
    got_fwd = _run(lib, stack, tables, rows, inverse=False)
    if not np.array_equal(got_fwd, want_fwd):
        raise RuntimeError("forward NTT smoke test mismatch")
    want_inv = np.stack(
        [intt_reference(want_fwd[i], q) for i, q in enumerate(stack_primes)]
    )
    got_inv = _run(lib, got_fwd, tables, rows, inverse=True)
    if not np.array_equal(got_inv, want_inv):
        raise RuntimeError("inverse NTT smoke test mismatch")

    for other in (got_fwd, got_fwd[:, :1]):     # a stack, a broadcast column
        if not np.array_equal(
                _mulmod(lib, stack, other, stack_primes),
                _kernels._mulmod_numpy(stack, other, stack_primes)):
            raise RuntimeError("pointwise_mulmod smoke test mismatch")
    # Operands below 2**32 in either ring: a vsub whose subtrahend passes
    # a + p wraps around 2**64, and the results must still match.  The
    # vrsv operands also hold both sides of the centering threshold and
    # values that are negative as int64s, one a multiple of the target.
    store = rng.integers(0, 1 << 32, size=(8, n), dtype=UINT)
    store[1] = store[0] + UINT(primes[1]) + UINT(1)
    group_rows = np.array([1, 0, 1], dtype=np.uint8)
    primes = tuple(primes)
    rsv_sources = np.array(primes[::-1] + primes[:1], dtype=UINT)
    for row, source, target in zip((0, 3, 5), rsv_sources.tolist(),
                                   group_rows.tolist()):
        store[row, :4] = (source // 2, source // 2 + 1, (1 << 63) + 5,
                          (1 << 64) - 3 * primes[target])
    for op in _kernels.GROUP_OPS:
        arity = {"neg": 1, "mulc": 1, "rsv": 1, "bcv": 5, "sum": 3}.get(op, 2)
        srcs = np.array([[j, (j + 3) % 8, (2 * j + 5) % 8]
                         for j in range(arity)], dtype=np.int32)
        constants = {
            "mulc": rng.integers(0, 1 << 31, size=3, dtype=UINT),
            "bcv": rng.integers(0, 1 << 31, size=(3, arity), dtype=UINT),
            "rsv": rsv_sources,
        }.get(op)
        want = _kernels._limb_group_numpy(op, store, srcs, primes,
                                          group_rows, constants)
        got = _limb_group(lib, op, store, srcs, primes, group_rows,
                          constants)
        if not np.array_equal(got, want):
            raise RuntimeError(f"limb group {op!r} smoke test mismatch")


_LIBRARY = NativeLibrary(_SOURCE, _configure)
#: The shared library (compiled once, smoke-tested), or None on failure.
load_library = _LIBRARY.load
#: Why the library is unavailable (None when it loaded).
build_error = _LIBRARY.build_error

