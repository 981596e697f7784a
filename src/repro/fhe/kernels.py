"""The FHE limb-stack kernels: whole ``(L, N)`` stacks per call.

Every expensive primitive — NTT/INTT, pointwise modular multiplication,
the ISA emulator's pointwise instruction groups, base conversion,
mod-up / mod-down and the rescale — has its one entry point here.  Each
runs the C loops of :mod:`repro.fhe.native` when that library builds.
Otherwise the NTTs run the per-limb reference loop
(:func:`repro.fhe.ntt.ntt_reference`) and base conversion the per-limb
:class:`repro.fhe.rns.BaseConversionPlan`; the pointwise kernels and the
instruction groups run the numpy expressions below, and the rescale is
the same composition of the other entry points.  The C loops are
bit-identical to all of these, which stay their test oracles.  See
``docs/kernels.md``.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .modmath import MAX_PRIME_BITS, UINT, centered, mod_inv
from .ntt import get_tables
from .rns import basis_product, get_conversion_plan, integers_to_rns

PrimeTuple = Tuple[int, ...]

#: Shift of the Shoup companion ``w_sh = floor(w << SHOUP_SHIFT / p)``.
SHOUP_SHIFT = 32
_S32 = UINT(SHOUP_SHIFT)

#: Primes at or above this have no C path (``2p`` would pass ``2**32``);
#: :mod:`repro.fhe.modmath` does not build them.
MAX_BATCHED_PRIME = 1 << MAX_PRIME_BITS

#: The per-row tables ``_native.c`` reads: twiddle powers in bit-reversed
#: order with their Shoup companions, ``(rows, N)``, and per-row columns.
_TABLES = ("psi", "psi_sh", "ipsi", "ipsi_sh")
_COLUMNS = ("p", "n_inv", "n_inv_sh")


def shoup_companion(w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``floor(w * 2**32 / p)`` for uint64 ``w < 2**31`` (vectorized)."""
    return np.left_shift(np.asarray(w, dtype=UINT), _S32) // np.asarray(p, dtype=UINT)


# --------------------------------------------------------------------- #
# NTT plans


class NttPlan:
    """Twiddle tables for one ring degree: one row per *unique* prime.

    A transform names its rows (:meth:`rows` maps a prime sequence to row
    indices, appending rows for primes not seen before), so a stack with
    repeated primes, any basis prefix and every instruction group of the
    ISA emulator share one set of tables.  ``tables`` is an immutable
    snapshot replaced on growth; row indices stay valid in every later
    snapshot, so read ``tables`` *after* resolving rows.
    """

    def __init__(self, ring_degree: int):
        self.n = ring_degree
        self._lock = threading.Lock()
        self._row_of: Dict[int, int] = {}
        self._rows: Dict[PrimeTuple, Optional[np.ndarray]] = {}
        self.tables = SimpleNamespace(
            **{name: np.empty((0, ring_degree), dtype=UINT)
               for name in _TABLES},
            **{name: np.empty(0, dtype=UINT) for name in _COLUMNS})

    def rows(self, primes: Sequence[int]) -> Optional[np.ndarray]:
        """Table row of each prime; None if one has no C path."""
        key = primes if type(primes) is tuple else tuple(primes)
        try:
            return self._rows[key]
        except KeyError:
            pass
        with self._lock:
            ints = [int(q) for q in key]
            if any(q >= MAX_BATCHED_PRIME for q in ints):
                rows = None
            else:
                self._grow([q for q in dict.fromkeys(ints)
                            if q not in self._row_of])
                rows = np.array([self._row_of[q] for q in ints], dtype=np.intp)
            self._rows[key] = rows
        return rows

    def _grow(self, primes) -> None:
        if not primes:
            return
        refs = [get_tables(q, self.n) for q in primes]
        p = np.array(primes, dtype=UINT)
        n_inv = np.array([t.n_inv for t in refs], dtype=UINT)
        new = {"p": p, "n_inv": n_inv, "n_inv_sh": shoup_companion(n_inv, p),
               "psi": np.stack([t.psi_powers_bitrev for t in refs]),
               "ipsi": np.stack([t.psi_inv_powers_bitrev for t in refs])}
        for name in ("psi", "ipsi"):
            new[name + "_sh"] = shoup_companion(new[name], p[:, None])
        old = self.tables
        tables = SimpleNamespace(**{
            name: np.concatenate([getattr(old, name), array])
            for name, array in new.items()})
        base = len(old.p)
        self.tables = tables        # publish before the rows that name it
        for i, q in enumerate(primes):
            self._row_of[q] = base + i


_NTT_PLANS: Dict[int, NttPlan] = {}
_NTT_PLANS_LOCK = threading.Lock()


def get_ntt_plan(ring_degree: int) -> NttPlan:
    plan = _NTT_PLANS.get(ring_degree)
    if plan is None:
        with _NTT_PLANS_LOCK:
            plan = _NTT_PLANS.setdefault(ring_degree, NttPlan(ring_degree))
    return plan


def plan_rows(shape: Tuple[int, int], primes: Sequence[int], rows=None):
    """``(tables, table row of each stack row)`` for one ``(L, N)`` stack.

    With ``rows``, stack row ``i`` is reduced modulo ``primes[rows[i]]``
    (``primes`` is then a table of the distinct moduli, of any length);
    without, modulo ``primes[i]``.  ``(None, None)`` when a prime has no
    C path.
    """
    plan = get_ntt_plan(shape[1])
    table_rows = plan.rows(primes)
    if table_rows is None:
        return None, None
    if rows is not None:
        table_rows = table_rows[rows]       # bounds-checked here, not in C
    return plan.tables, table_rows


def _check_named(limbs: int, named: int) -> None:
    """One modulus per limb row, checked before either kernel path runs
    (the C loops would read past the moduli they were handed)."""
    if limbs != named:
        raise ValueError(f"{limbs} limbs but {named} moduli named")


def _reference_stack(values: np.ndarray, primes: Sequence[int], rows,
                     inverse: bool) -> np.ndarray:
    """The per-limb reference loop: every transform without the C
    library, and primes of ``2**31`` and above with it."""
    from . import ntt as _ntt  # late import; ntt is the reference impl

    fn = _ntt.intt_reference if inverse else _ntt.ntt_reference
    if rows is not None:
        primes = [primes[r] for r in rows]
    out = np.empty_like(values)
    for i, q in enumerate(primes):
        out[i] = fn(values[i], int(q))
    return out


def _transform(stack: np.ndarray, primes: Sequence[int], rows,
               inverse: bool) -> np.ndarray:
    stack = np.asarray(stack, dtype=UINT)
    if stack.ndim == 1:
        return _transform(stack[None, :], primes, rows, inverse)[0]
    _check_named(len(stack), len(primes) if rows is None else len(rows))
    lib = native.load_library()
    if lib is not None:
        tables, table_rows = plan_rows(stack.shape, primes, rows)
        if tables is not None:
            return native._run(lib, stack, tables, table_rows, inverse)
    return _reference_stack(stack, primes, rows, inverse)


def ntt_batch(coeffs: np.ndarray, primes: Sequence[int], rows=None) -> np.ndarray:
    """Forward negacyclic NTT of a limb stack ``(L, N)`` (or one limb).

    Bit-identical to the per-limb reference (canonical residues, same
    bit-reversed output order).  See :func:`plan_rows` for ``rows``.
    """
    return _transform(coeffs, primes, rows, inverse=False)


def intt_batch(values: np.ndarray, primes: Sequence[int], rows=None) -> np.ndarray:
    """Inverse negacyclic NTT of a limb stack ``(L, N)``."""
    return _transform(values, primes, rows, inverse=True)


# --------------------------------------------------------------------- #
# Column-modulus pointwise kernels


_PRIME_COLUMNS: Dict[PrimeTuple, np.ndarray] = {}


def _prime_column(primes: Sequence[int]) -> np.ndarray:
    """The ``(L, 1)`` uint64 modulus column of a basis (cached, read-only)."""
    key = primes if type(primes) is tuple else tuple(primes)
    column = _PRIME_COLUMNS.get(key)
    if column is None:
        column = np.array([int(q) for q in key], dtype=UINT)[:, None]
        column.flags.writeable = False
        _PRIME_COLUMNS[key] = column
    return column


def pointwise_mulmod(a: np.ndarray, b: np.ndarray, primes: Sequence[int]) -> np.ndarray:
    """``a * b mod p`` per limb row of an ``(L, N)`` stack ``a``; ``b`` is a
    stack or a per-limb ``(L, 1)`` column."""
    a = np.asarray(a, dtype=UINT)
    if a.ndim == 2:
        _check_named(len(a), len(primes))
        lib = native.load_library()
        if lib is not None:
            return native._mulmod(lib, a, b, primes)
    return _mulmod_numpy(a, b, primes)


def _mulmod_numpy(a: np.ndarray, b: np.ndarray, primes: Sequence[int]) -> np.ndarray:
    """``a * b mod p`` via float-quotient Barrett.

    Works for all primes below 2**31 (products stay below 2**62, and the
    float64 quotient estimate is off by at most one — repaired with two
    minimum-trick corrections).
    """
    p = _prime_column(primes)
    z = np.multiply(np.asarray(a, dtype=UINT), np.asarray(b, dtype=UINT))
    quot = (z.astype(np.float64) * (1.0 / p.astype(np.float64))).astype(UINT)
    r = z - quot * p
    np.minimum(r, r + p, out=r)       # fix quotient overestimates
    np.minimum(r, r - p, out=r)       # fix quotient underestimates
    return r


def pointwise_addmod(a: np.ndarray, b: np.ndarray, primes: Sequence[int]) -> np.ndarray:
    """``a + b mod p`` per limb row (canonical inputs)."""
    p = _prime_column(primes)
    s = np.asarray(a, dtype=UINT) + np.asarray(b, dtype=UINT)
    return np.minimum(s, s - p)


def pointwise_submod(a: np.ndarray, b: np.ndarray, primes: Sequence[int]) -> np.ndarray:
    """``a - b mod p`` per limb row (canonical inputs)."""
    p = _prime_column(primes)
    d = np.asarray(a, dtype=UINT) - np.asarray(b, dtype=UINT) + p
    return np.minimum(d, d - p)


def pointwise_negmod(a: np.ndarray, primes: Sequence[int]) -> np.ndarray:
    """``-a mod p`` per limb row (canonical input)."""
    p = _prime_column(primes)
    r = p - np.asarray(a, dtype=UINT)
    return np.minimum(r, r - p)


#: The arithmetic :func:`limb_group` evaluates, named by the ISA opcode it
#: serves (``sum`` is an aggregating ``rcv``).
GROUP_OPS = ("add", "sub", "neg", "mul", "mulc", "bcv", "sum", "rsv")


def limb_group(op: str, store: np.ndarray, srcs: np.ndarray,
               primes: Sequence[int], rows: np.ndarray,
               constants: Optional[np.ndarray] = None) -> np.ndarray:
    """One group of same-opcode limb instructions, as the ISA emulator
    issues them: gather, compute, return the ``(count, N)`` results.

    ``srcs`` is the ``(arity, count)`` block of operand rows of ``store``;
    instruction ``i`` works modulo ``primes[rows[i]]``.  ``constants`` holds
    per instruction the ``mulc`` scalar, the ``bcv`` factor row (``(count,
    >= arity)``) or the ``rsv`` source prime.

    The numpy code below is the reference expressions, uint64 wrap-around
    included: they are applied verbatim to whatever operands arrive,
    canonical or not, and the C loops agree with them bit for bit.
    """
    count = np.shape(srcs)[-1]
    if len(rows) != count:
        raise ValueError(f"{count} instructions but {len(rows)} moduli named")
    lib = native.load_library()
    if lib is not None:
        return native._limb_group(lib, op, store, srcs, primes, rows,
                                  constants)
    return _limb_group_numpy(op, store, srcs, primes, rows, constants)


def _limb_group_numpy(op: str, store: np.ndarray, srcs: np.ndarray,
                      primes: Sequence[int], rows: np.ndarray,
                      constants: Optional[np.ndarray]) -> np.ndarray:
    p = _prime_column(primes)[rows]
    a = store[srcs[0]]
    if op == "add":
        return (a + store[srcs[1]]) % p
    if op == "sub":
        return (a + p - store[srcs[1]]) % p
    if op == "neg":
        return (p - a) % p
    if op == "mul":
        return (a * store[srcs[1]]) % p
    if op == "mulc":
        return (a * constants[:, None]) % p
    if op == "bcv":
        # Limbs and factors are below 2**31, so a reduced sum plus three
        # products still fits 64 bits: one ``%`` per three operands.
        out = a * constants[:, 0, None]
        for j in range(1, len(srcs)):
            if j % 3 == 0:
                out %= p
            out += store[srcs[j]] * constants[:, j, None]
        out %= p
        return out
    if op == "sum":
        for j in range(1, len(srcs)):
            a += store[srcs[j]]
        a %= p
        return a
    if op == "rsv":
        # Centered representative modulo the source prime, reduced into
        # the target's ring.
        source = constants.astype(np.int64)[:, None]
        signed = a.astype(np.int64)
        signed = np.where(signed > source // 2, signed - source, signed)
        return np.mod(signed, p.astype(np.int64)).astype(UINT)
    raise ValueError(f"unknown limb group op {op!r}")


# --------------------------------------------------------------------- #
# Base conversion on the C kernels


class BatchedConversionPlan:
    """One base conversion as the C kernels run it: the source limbs
    scaled by the ``q_hat_inv`` column (one ``pointwise_mulmod``), then
    one ``bcv`` group in which target row ``k`` sums every source row
    ``j`` times ``factors[j, k]``.  ``supported`` when every prime is
    below ``2**31``; the group has no limit on the source limbs.
    """

    def __init__(self, source: PrimeTuple, target: PrimeTuple):
        ref = get_conversion_plan(source, target)
        self.source = ref.source
        self.target = ref.target
        self.q_hat_inv = ref.q_hat_inv[:, None]                # (Ls, 1)
        self.supported = max(ref.source + ref.target, default=0) < (1 << 31)
        self.factors_t = np.ascontiguousarray(ref.factors.T)
        self.source_rows = np.repeat(
            np.arange(len(ref.source), dtype=np.int32)[:, None],
            len(ref.target), axis=1)
        self.target_rows = np.arange(len(ref.target))


_CONV_PLAN_CACHE: Dict[Tuple[PrimeTuple, PrimeTuple], BatchedConversionPlan] = {}


def get_batched_conversion_plan(source: Sequence[int],
                                target: Sequence[int]) -> BatchedConversionPlan:
    key = (tuple(int(q) for q in source), tuple(int(q) for q in target))
    plan = _CONV_PLAN_CACHE.get(key)
    if plan is None:
        plan = BatchedConversionPlan(*key)
        _CONV_PLAN_CACHE[key] = plan
    return plan


def base_convert(limbs: np.ndarray, source: Sequence[int],
                 target: Sequence[int]) -> np.ndarray:
    """Approximate base conversion: on the C kernels when the library
    loads and the plan is supported, else the per-limb reference."""
    limbs = np.asarray(limbs, dtype=UINT)
    _check_named(len(limbs), len(source))
    lib = native.load_library()
    if lib is not None:
        plan = get_batched_conversion_plan(source, target)
        if plan.supported:
            return native._base_convert(lib, limbs, plan)
    return get_conversion_plan(source, target).convert(limbs)


class _ModUpPlan:
    """Limb routing for :func:`mod_up` (which target rows are copies)."""

    def __init__(self, source: PrimeTuple, target: PrimeTuple):
        position = {p: i for i, p in enumerate(source)}
        self.missing = tuple(p for p in target if p not in position)
        self.copy_rows = [(k, position[p]) for k, p in enumerate(target)
                          if p in position]
        self.conv_rows = [k for k, p in enumerate(target) if p not in position]


class _ModDownPlan:
    """Cached ``P^{-1} mod q`` column for :func:`mod_down`."""

    def __init__(self, base: PrimeTuple, extension: PrimeTuple):
        p_total = basis_product(extension)
        self.p_inv = np.array([mod_inv(p_total % q, q) for q in base],
                              dtype=UINT)[:, None]


_MODUP_PLAN_CACHE: Dict[Tuple[PrimeTuple, PrimeTuple], _ModUpPlan] = {}
_MODDOWN_PLAN_CACHE: Dict[Tuple[PrimeTuple, PrimeTuple], _ModDownPlan] = {}


def mod_up(limbs: np.ndarray, source: Sequence[int],
           target: Sequence[int]) -> np.ndarray:
    """Extend limbs to a superset basis (copies + one base conversion)."""
    key = (tuple(int(q) for q in source), tuple(int(q) for q in target))
    plan = _MODUP_PLAN_CACHE.get(key)
    if plan is None:
        plan = _MODUP_PLAN_CACHE[key] = _ModUpPlan(*key)
    out = np.empty((len(key[1]), limbs.shape[1]), dtype=UINT)
    for row, src_row in plan.copy_rows:
        out[row] = limbs[src_row]
    if plan.missing:
        out[plan.conv_rows] = base_convert(limbs, key[0], plan.missing)
    return out


def mod_down(limbs: np.ndarray, base: Sequence[int],
             extension: Sequence[int]) -> np.ndarray:
    """Scale down by the extension product: one base conversion, then a
    subtract and a product across the base limbs."""
    key = (tuple(int(q) for q in base), tuple(int(q) for q in extension))
    plan = _MODDOWN_PLAN_CACHE.get(key)
    if plan is None:
        plan = _MODDOWN_PLAN_CACHE[key] = _ModDownPlan(*key)
    n_base = len(key[0])
    if limbs.shape[0] != n_base + len(key[1]):
        raise ValueError(
            f"expected {n_base + len(key[1])} limbs, got {limbs.shape[0]}"
        )
    approx = base_convert(limbs[n_base:], key[1], key[0])
    diff = pointwise_submod(limbs[:n_base], approx, key[0])
    return pointwise_mulmod(diff, plan.p_inv, key[0])


class RescalePlan:
    """Constants of a rescale by the last prime of ``basis``: the
    ``q_last^-1 mod q_j`` column of the primes that remain."""

    def __init__(self, basis: PrimeTuple):
        q_last = basis[-1]
        self.basis = basis
        self.inv = np.array([mod_inv(q_last % q, q) for q in basis[:-1]],
                            dtype=UINT)[:, None]


_RESCALE_PLAN_CACHE: Dict[PrimeTuple, RescalePlan] = {}


def rescale(stacks: Sequence[np.ndarray], basis: Sequence[int]) -> np.ndarray:
    """Divide evaluation-domain stacks by the last prime of ``basis``.

    For each ``(L, N)`` stack (a ciphertext's polynomials) and each
    remaining limb ``j``: ``(a_j - [a_last]_{q_j}) * q_last^-1 mod q_j``,
    with ``a_last`` brought to the coefficient domain and taken as its
    centered representative.  Returns the ``(len(stacks), L - 1, N)``
    results: one C call for every stack when the library loads, else the
    same composition of the kernels above, stack by stack.
    """
    key = basis if type(basis) is tuple else tuple(int(q) for q in basis)
    if len(key) < 2:
        raise ValueError("cannot rescale a single-limb basis")
    plan = _RESCALE_PLAN_CACHE.get(key)
    if plan is None:
        plan = _RESCALE_PLAN_CACHE[key] = RescalePlan(key)
    stacks = [np.asarray(stack, dtype=UINT) for stack in stacks]
    if not stacks or len({stack.shape for stack in stacks}) != 1:
        raise ValueError("need one or more stacks of one shape")
    _check_named(len(stacks[0]), len(key))
    lib = native.load_library()
    if lib is not None and max(key) < MAX_BATCHED_PRIME:
        return native._rescale(lib, stacks, plan)
    return np.stack([_rescale_stack(stack, plan) for stack in stacks])


def _rescale_stack(stack: np.ndarray, plan: RescalePlan) -> np.ndarray:
    """One stack's rescale from the entry points above: INTT of the last
    limb, its centered residues NTT'd into every remaining limb, then a
    subtract and the ``q_last^-1`` column."""
    basis, q_last = plan.basis[:-1], plan.basis[-1]
    last = centered(intt_batch(stack[-1:], plan.basis[-1:])[0], q_last)
    correction = ntt_batch(integers_to_rns(last, basis), basis)
    diff = pointwise_submod(stack[:-1], correction, basis)
    return pointwise_mulmod(diff, plan.inv, basis)


def get_backend() -> SimpleNamespace:
    """Which kernel path this process runs, as a read-only report:
    ``.name`` is ``"native"`` when the C library loaded and ``"numpy"``
    otherwise (:func:`repro.fhe.native.build_error` says why)."""
    lib = native.load_library()
    return SimpleNamespace(name="numpy" if lib is None else "native")


# Last: ``native`` imports this module for its plans and its smoke test.
from . import native  # noqa: E402
