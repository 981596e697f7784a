"""The C half of the FHE kernels, compiled on demand.

``_native.c`` runs the NTTs as Shoup/Harvey lazy butterflies in tight C
loops that keep one limb cache-resident per transform; on a single core
with auto-vectorization this is ~12x the per-limb reference loop at
(L=24, N=8192).  Tables are the per-unique-prime rows of
:class:`repro.fhe.kernels.NttPlan`; a call passes one table-row index per
limb, and the C side picks the narrow (``p < 2**30``) or wide butterfly
per limb.

The pointwise primitives — one ISA emulator group per call (gather,
compute, write), ``pointwise_mulmod`` and base conversion (a
``pointwise_mulmod`` and one ``bcv`` group) — reduce with one Barrett step
``red(z)`` that equals ``z % p`` for every uint64 ``z``, so they evaluate
the numpy reference expressions verbatim, whatever operands arrive.
``repro_rescale`` divides every polynomial of a ciphertext by its last
prime in one call (:func:`_rescale`), from the same transforms and
``vrsv``'s centering rule.

``repro_replay`` runs a whole ISA emulator schedule in one call: its
groups, loads from the memory image's polynomials and stores, with the
same transforms and the same per-instruction group arithmetic
(``group_row``) as the entry points above.  :func:`_replay` is its
wrapper; :meth:`repro.core.isa.emulator.IsaEmulator.run` calls it.
``repro_issue_order`` walks the issue order the emulator builds that
schedule in (:func:`_issue_order`; its Python twin is
``repro.core.isa.emulator._issue_order``).

A call's constant operands — Barrett rows, NTT tables, a conversion
plan's ``q_hat_inv``, operand rows and factors — are resolved to
addresses once (per prime tuple, table snapshot or plan) and cached, so a
wrapper converts only the arrays that change between calls.

:mod:`repro.fhe.kernels` is the one entry point of the rest: its NTTs,
pointwise product, instruction groups and base conversion call the
wrappers here when :func:`load_library` returns a library, and run the
per-limb references or their numpy expressions otherwise.  The library is
built lazily by :class:`repro.cbuild.NativeLibrary` (the system C
compiler; objects keyed by a hash of the C source, so stale ones are
never reused), on first use, never on ``import repro``.  If no compiler
is present, compilation fails, or the built library does not reproduce
the reference kernels bit for bit on a smoke test, :func:`load_library`
returns None and :func:`build_error` says why.
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
    lib.repro_replay.restype = None
    lib.repro_replay.argtypes = ([address, size] + [address] * 5 + [size]
                                 + [address] * 11 + [size] + [address] * 4)
    lib.repro_issue_order.restype = ctypes.c_long
    lib.repro_issue_order.argtypes = ([size, address, size] + [address] * 8
                                      + [size] * 2 + [address] * 6)
    lib.repro_rescale.restype = ctypes.c_long
    lib.repro_rescale.argtypes = [address] + [size] * 3 + [address] * 11
    _smoke_test(lib)


_GROUP_CODE = {op: code for code, op in enumerate(_kernels.GROUP_OPS)}
_BARRETT: Dict[Tuple[int, ...], Tuple[np.ndarray, int]] = {}


def _barrett(primes: Sequence[int]) -> Tuple[np.ndarray, int]:
    """``(table, address)``: the ``(L, 2)`` rows ``[p, floor((2**64 - 1)
    / p)]`` of a prime tuple — the constants of ``red()`` — and where the
    table lives, computed once per tuple."""
    key = primes if type(primes) is tuple else tuple(int(q) for q in primes)
    entry = _BARRETT.get(key)
    if entry is None:
        if any(not 1 < q < 1 << 32 for q in key):
            raise ValueError("native pointwise kernels need 1 < p < 2**32")
        table = np.array([(q, ((1 << 64) - 1) // q) for q in key],
                         dtype=UINT).reshape(len(key), 2)
        table.flags.writeable = False
        entry = _BARRETT[key] = (table, table.ctypes.data)
    return entry


def _limb_group(lib, op, store, srcs, primes, rows, constants) -> np.ndarray:
    store = np.ascontiguousarray(store, dtype=UINT)
    srcs = np.asarray(srcs)
    if store.ndim != 2 or srcs.ndim != 2 or not srcs.shape[0]:
        raise ValueError("need a (slots, N) store and an (arity, count) "
                         "block of operand rows")
    arity, count = srcs.shape
    if srcs.size and (srcs.min() < 0 or srcs.max() >= len(store)):
        raise IndexError("operand row outside the store")
    srcs = np.ascontiguousarray(srcs, dtype=np.int32)
    pm = _barrett(primes)[0][rows]          # bounds-checked here, not in C
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
    a = np.ascontiguousarray(a, dtype=UINT)
    b = np.asarray(b, dtype=UINT)
    # Read b through its strides: a broadcast column costs nothing.
    if b.shape == a.shape:
        strides = b.strides
    elif b.shape == (len(a), 1):
        strides = b.strides[0], 0
    else:
        strides = np.broadcast_to(b, a.shape).strides
    out = np.empty_like(a)
    lib.repro_mulmod_rows(out.ctypes.data, a.ctypes.data, b.ctypes.data,
                          a.shape[0], a.shape[1], strides[0] // 8,
                          strides[1] // 8, _barrett(primes)[1])
    return out


def _replay(lib, columns, store, primes, ntt_rows, scalars, factors,
            permutations, loads, load_ids, stored) -> None:
    """Run a whole ISA emulator schedule in ``store`` (``_native.c``,
    ``repro_replay``).

    ``columns`` are the schedule's int32 ``(groups, dst, src, p0, p1)``;
    ``ntt_rows`` the NTT table row of each of ``primes``, which are all
    below ``2**31``; ``loads`` the address of every distinct row the
    ``ld`` / ``vprng`` instructions read (``load_ids``: which, per
    instruction).  The caller keeps the arrays behind ``loads`` alive and
    has checked every index the columns hold: C checks none.
    """
    groups, dst, src, p0, p1 = columns
    n = store.shape[1]
    tables = _kernels.get_ntt_plan(n).tables   # read after the rows resolved
    pointers = _table_pointers(tables)
    lib.repro_replay(
        groups.ctypes.data, len(groups), dst.ctypes.data, src.ctypes.data,
        p0.ctypes.data, p1.ctypes.data, store.ctypes.data, n,
        _barrett(primes)[1], ntt_rows.ctypes.data,
        *pointers[:2], *pointers[3:5], pointers[2], *pointers[6:],
        scalars.ctypes.data, factors.ctypes.data, factors.shape[1],
        permutations.ctypes.data, loads.ctypes.data, load_ids.ctypes.data,
        stored.ctypes.data)


def _issue_order(lib, kind_of, kind_code, kind_dest, width, ptr, producer,
                 live, live_ids, chip_ptr, window):
    """Walk an ISA emulator schedule's issue order (``_native.c``,
    ``repro_issue_order``; :func:`repro.core.isa.emulator._issue_order` is
    its oracle).

    ``kind_of`` (int32, per instruction) indexes the kinds' ``kind_code``
    (int32 opcode) and ``kind_dest`` (whether it writes a value); edges
    are int32 ``ptr`` / ``producer``; ``live_ids`` (int32) lists the live
    instructions chip by chip, ``chip_ptr`` (int64) where each chip's
    begin.  Returns ``(issue, groups, slot_of, src, slots, heads)``:
    ``issue`` is shorter than ``live_ids`` when the walk deadlocked, and
    ``heads`` then says where each chip is stuck.
    """
    total, nchips = len(width), len(chip_ptr) - 1
    kind_code = np.ascontiguousarray(kind_code, dtype=np.int32)
    kind_dest = np.ascontiguousarray(kind_dest, dtype=np.uint8)
    live = np.ascontiguousarray(live, dtype=np.uint8)
    chip_ptr = np.ascontiguousarray(chip_ptr, dtype=np.int64)
    issue = np.empty(len(live_ids), dtype=np.int32)
    groups = np.empty((len(live_ids), 3), dtype=np.int32)
    slot_of = np.empty(total + 1, dtype=np.int32)
    src = np.empty(int(width[live_ids].sum()), dtype=np.int32)
    heads = np.empty(nchips, dtype=np.int64)
    result = np.zeros(3, dtype=np.int64)
    for array, dtype in ((kind_of, np.int32), (width, np.int32),
                         (ptr, np.int32), (producer, np.int32),
                         (live_ids, np.int32)):
        if array.dtype != dtype or not array.flags.c_contiguous:
            raise TypeError(f"need a contiguous {np.dtype(dtype)} column")
    if lib.repro_issue_order(
            total, kind_of.ctypes.data, len(kind_code), kind_code.ctypes.data,
            kind_dest.ctypes.data, width.ctypes.data, ptr.ctypes.data,
            producer.ctypes.data, live.ctypes.data, live_ids.ctypes.data,
            chip_ptr.ctypes.data, nchips, window, issue.ctypes.data,
            groups.ctypes.data, slot_of.ctypes.data, src.ctypes.data,
            heads.ctypes.data, result.ctypes.data):
        raise MemoryError("no memory for the emulator's issue order")
    count, done, slots = result.tolist()
    return issue[:done], groups[:count].copy(), slot_of, src, slots, heads


def _base_convert(lib, limbs, plan) -> np.ndarray:
    """A supported :class:`repro.fhe.kernels.BatchedConversionPlan`'s
    conversion: the limbs scaled by ``q_hat_inv``, then one ``bcv`` group
    with a row per target prime.  ``limbs`` has a row per source prime
    (:func:`repro.fhe.kernels.base_convert` checks)."""
    held, (q_hat_inv, rows, target_pm, factors) = _plan_constants(plan)
    limbs = np.ascontiguousarray(limbs, dtype=UINT)
    arity, n = limbs.shape
    scaled = np.empty_like(limbs)
    lib.repro_mulmod_rows(scaled.ctypes.data, limbs.ctypes.data, q_hat_inv,
                          arity, n, 1, 0, _barrett(plan.source)[1])
    out = np.empty((len(plan.target), n), dtype=UINT)
    lib.repro_limb_group(_GROUP_CODE["bcv"], out.ctypes.data,
                         scaled.ctypes.data, n, rows, arity, len(out),
                         target_pm, factors, arity)
    return out


def _rescale(lib, stacks, plan) -> np.ndarray:
    """A :class:`repro.fhe.kernels.RescalePlan`'s rescale of every stack
    in one call (``repro_rescale``).  The stacks share one ``(L, N)``
    shape, a row per prime of the plan's basis, every prime below
    ``2**31`` (:func:`repro.fhe.kernels.rescale` checks)."""
    cached = getattr(plan, "native", None)
    if cached is None:
        cached = plan.native = (plan.inv.ctypes.data,
                                _barrett(plan.basis[:-1])[1])
    inv, pm = cached
    stacks = [np.ascontiguousarray(stack, dtype=UINT) for stack in stacks]
    limbs, n = stacks[0].shape
    tables, rows = _kernels.plan_rows((limbs, n), plan.basis)
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    addresses = np.array([stack.ctypes.data for stack in stacks],
                         dtype=np.uintp)
    out = np.empty((len(stacks), limbs - 1, n), dtype=UINT)
    pointers = _table_pointers(tables)
    if lib.repro_rescale(addresses.ctypes.data, len(stacks), limbs, n,
                         out.ctypes.data, rows.ctypes.data,
                         *pointers[:2], *pointers[3:5], pointers[2],
                         *pointers[6:], pm, inv):
        raise MemoryError("no memory for a rescale")
    return out


def _plan_constants(plan) -> tuple:
    """``(arrays, addresses)`` of a conversion plan's constants: its
    ``q_hat_inv`` column, its ``(sources, targets)`` block of operand
    rows, the Barrett rows of its targets and its factor rows.  Cached on
    the plan in one attribute, so a racing thread replaces both at once;
    a caller holds ``arrays`` while C reads them."""
    cached = getattr(plan, "native", None)
    if cached is None:
        if not len(plan.source):
            raise ValueError("a base conversion needs a source prime")
        arrays = (np.ascontiguousarray(plan.q_hat_inv, dtype=UINT),
                  np.ascontiguousarray(plan.source_rows, dtype=np.int32),
                  _barrett(plan.target)[0][plan.target_rows],
                  np.ascontiguousarray(plan.factors_t, dtype=UINT))
        cached = plan.native = (
            arrays, tuple(array.ctypes.data for array in arrays))
    return cached


def _table_pointers(tables) -> tuple:
    """Addresses of an NTT table snapshot's ``psi, psi_sh, p, ipsi,
    ipsi_sh, p, n_inv, n_inv_sh``: cached on the snapshot (which keeps the
    arrays alive); a racing thread stores the same values."""
    pointers = getattr(tables, "pointers", None)
    if pointers is None:
        pointers = tables.pointers = tuple(
            getattr(tables, name).ctypes.data
            for name in ("psi", "psi_sh", "p",
                         "ipsi", "ipsi_sh", "p", "n_inv", "n_inv_sh"))
    return pointers


def _run(lib: ctypes.CDLL, stack: np.ndarray, tables, rows: np.ndarray,
         inverse: bool) -> np.ndarray:
    """Transform a copy of ``stack``; row ``i`` uses table row ``rows[i]``."""
    out = np.array(stack, dtype=UINT, order="C")
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    pointers = _table_pointers(tables)
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
    reference, every pointwise kernel vs the numpy expressions and the
    rescale vs the reference transforms, on a narrow and a wide prime,
    rows out of table order."""
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

    # Rescale two stacks by a wide and by a narrow last prime.
    for basis in (primes, primes[::-1]):
        stacks = rng.integers(0, np.array(basis, dtype=UINT)[:, None],
                              size=(2, 2, n), dtype=UINT)
        plan = _kernels.RescalePlan(basis)
        q, p = basis[1], basis[0]
        want = []
        for stack in stacks:
            last = intt_reference(stack[1], q).astype(np.int64)
            last = np.where(last > q // 2, last - q, last)
            correction = ntt_reference(np.mod(last, p).astype(UINT), p)
            diff = (stack[0] + UINT(p) - correction) % UINT(p)
            want.append([diff * plan.inv[0] % UINT(p)])
        if not np.array_equal(_rescale(lib, list(stacks), plan), want):
            raise RuntimeError("rescale smoke test mismatch")


_LIBRARY = NativeLibrary(_SOURCE, _configure)
#: The shared library (compiled once, smoke-tested), or None on failure.
load_library = _LIBRARY.load
#: Why the library is unavailable (None when it loaded).
build_error = _LIBRARY.build_error

