"""The FHE limb-stack kernels: whole ``(L, N)`` stacks per call.

Every expensive primitive — NTT/INTT, pointwise modular multiplication,
the ISA emulator's pointwise instruction groups, base conversion,
mod-up / mod-down and the rescale — has its one entry point here.  The
NTTs, the pointwise product, the instruction groups, base conversion and
the rescale run the C
loops of :mod:`repro.fhe.native` when that library builds, and the numpy
code below otherwise; both are bit-identical to the per-limb references
(:func:`repro.fhe.ntt.ntt_reference`,
:class:`repro.fhe.rns.BaseConversionPlan`), which stay the test oracles.
Where those references loop over limbs in Python, the numpy code here
processes the full limb stack with a *per-limb modulus column* so that one
numpy op covers all ``L`` residue rings at once.

Three 64-bit-safe reduction strategies are used (all produce canonical
residues in ``[0, p)`` bit-identical to the seed kernels' ``% p``):

* **Shoup multiplication** for twiddle factors: with the precomputed
  companion ``w_sh = floor(w * 2**32 / p)`` the product ``a * w mod p``
  costs one high-half estimate ``q = (a * w_sh) >> 32`` and a correction
  ``a*w - q*p`` in ``[0, 2p)``.  Valid whenever ``a < 2**32``.
* **Harvey lazy butterflies** for the NTT/INTT: intermediate values are
  only reduced where the Shoup bound (``< 2**32``) requires it, using the
  branch-free "minimum trick" (``min(x, x - kp)`` picks the reduced value
  because the unsigned wraparound is huge).  *Narrow* primes
  (``p < 2**30``) run a *reduction schedule*: with 28-bit primes
  ``2**32/p = 16p``, so most stages let values grow by ``2p`` unreduced
  and only one mid-pass stage (plus the final canonicalization) pays for
  a reduction chain.  *Wide* primes (``2**30 <= p < 2**31`` — ``q_0`` and
  the extension basis of every functional parameter set) keep every
  value below ``2p < 2**32`` instead: one extra minimum per stage, same
  tables.  The two classes are chosen *per row*, so a mixed stack runs
  each row on its own path.
* **Float-quotient Barrett** for data-times-data products: the quotient
  ``floor(z / p)`` is estimated in float64 (error at most 1 for all
  ``z < 2**62``) and repaired with two minimum-trick steps.

The butterfly loops are additionally *cache-blocked*: limbs are processed
in chunks sized to the L2 cache, and the low-stride final stages run in a
transposed layout so every numpy op streams over contiguous memory.  See
``docs/kernels.md`` for the measured effect.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .modmath import MAX_PRIME_BITS, UINT, centered, mod_inv, scratch_buffer
from .ntt import get_tables
from .rns import basis_product, get_conversion_plan, integers_to_rns

PrimeTuple = Tuple[int, ...]

#: Shift of the Shoup companion ``w_sh = floor(w << SHOUP_SHIFT / p)``.
SHOUP_SHIFT = 32
_S32 = UINT(SHOUP_SHIFT)

#: Primes at or above this take the wide path (values kept below ``2p``);
#: below it Harvey's ``[0, 4p)`` invariant fits the Shoup bound.
WIDE_PRIME = 1 << 30
#: Primes at or above this have no batched path (``2p`` would pass
#: ``2**32``); :mod:`repro.fhe.modmath` does not build them.
MAX_BATCHED_PRIME = 1 << MAX_PRIME_BITS

#: Stages with butterfly stride below this run in a transposed layout so
#: the inner numpy loops stay contiguous.
_TRANSPOSE_T = 64

#: Per-chunk working-set budget for cache blocking (bytes).
_CHUNK_BYTES = 1 << 21

#: The per-row twiddle tables of a plan, all ``(rows, N)``: natural
#: bit-reversed order (``psi``, ``ipsi``: what ``_native.c`` indexes) and
#: the stage layout of the numpy butterflies (``*_t``), each with its
#: Shoup companion.
_TABLES = ("psi", "psi_sh", "ipsi", "ipsi_sh",
           "psi_t", "psi_t_sh", "ipsi_t", "ipsi_t_sh")
_COLUMNS = ("p", "n_inv", "n_inv_sh")
#: Constant-per-row tables, ``(rows, N/2)``, materialized contiguous: ops
#: against a stride-0 broadcast column hit numpy's non-SIMD inner loops
#: (~2-3x slower per element), while these half-sized tables are reused by
#: every stage and stay cache-resident.  Any reshape of a constant row is
#: valid.
_HALVES = ("p_half", "twop_half", "n_inv_half", "n_inv_sh_half")


def shoup_companion(w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``floor(w * 2**32 / p)`` for uint64 ``w < 2**31`` (vectorized)."""
    return np.left_shift(np.asarray(w, dtype=UINT), _S32) // np.asarray(p, dtype=UINT)


def _limb_chunk(total_limbs: int, n: int) -> int:
    """Limbs per cache block: data + transpose + three scratch halves."""
    per_limb = 8 * n * 4  # a, aT, and ~2.5 half-sized scratch rows
    return max(1, min(total_limbs, _CHUNK_BYTES // max(1, per_limb)))


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
        # First transposed stage index: stages m >= m1 (stride < the
        # threshold) run on blocks of B = n // m1 elements, transposed.
        self.m1 = max(1, ring_degree // _TRANSPOSE_T)
        # Stage layout: segment [m, 2m) of a power table holds stage m's
        # twiddles.  Strided stages read it in natural order; a
        # transposed stage wants entry [j1, j0] = natural[m + j0*rel + j1]
        # (rel = m // m1), matching how butterfly blocks land in the
        # transposed buffer.
        layout = np.arange(ring_degree)
        m = self.m1
        while m < ring_degree:
            layout[m:2 * m] = np.arange(m, 2 * m).reshape(
                self.m1, m // self.m1).T.ravel()
            m *= 2
        self._layout = layout
        self._lock = threading.Lock()
        self._row_of: Dict[int, int] = {}
        self._rows: Dict[PrimeTuple, Optional[np.ndarray]] = {}
        self._schedules: Dict[int, tuple] = {}
        self.tables = SimpleNamespace(
            **{name: np.empty((0, ring_degree), dtype=UINT)
               for name in _TABLES},
            **{name: np.empty(0, dtype=UINT) for name in _COLUMNS},
            **{name: np.empty((0, max(1, ring_degree // 2)), dtype=UINT)
               for name in _HALVES},
            wide=np.empty(0, dtype=bool))

    def rows(self, primes: Sequence[int]) -> Optional[np.ndarray]:
        """Table row of each prime; None if one has no batched path."""
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
        psi = np.stack([t.psi_powers_bitrev for t in refs])
        ipsi = np.stack([t.psi_inv_powers_bitrev for t in refs])
        n_inv = np.array([t.n_inv for t in refs], dtype=UINT)
        new = {"p": p, "n_inv": n_inv, "n_inv_sh": shoup_companion(n_inv, p),
               "psi": psi, "ipsi": ipsi,
               "psi_t": psi[:, self._layout], "ipsi_t": ipsi[:, self._layout],
               "wide": p >= UINT(WIDE_PRIME)}
        for name in ("psi", "ipsi", "psi_t", "ipsi_t"):
            new[name + "_sh"] = shoup_companion(new[name], p[:, None])
        half = max(1, self.n // 2)
        for name, column in (("p_half", p), ("twop_half", p + p),
                             ("n_inv_half", n_inv),
                             ("n_inv_sh_half", new["n_inv_sh"])):
            new[name] = np.repeat(column[:, None], half, axis=1)
        old = self.tables
        tables = SimpleNamespace(**{
            name: np.concatenate([getattr(old, name), array])
            for name, array in new.items()})
        base = len(old.p)
        self.tables = tables        # publish before the rows that name it
        for i, q in enumerate(primes):
            self._row_of[q] = base + i

    def forward_schedule(self, max_prime: int) -> tuple:
        """Lazy-reduction schedule of the forward transform.

        Returns ``(red, post, chain)``.  The butterfly lets values grow by
        2p per stage, and the only hard constraint is that Shoup inputs
        stay below 2**32.  For narrow primes (28-bit: 2**32/p = 16p) most
        stages therefore skip the explicit u-reduction entirely:
        ``red[m]`` is the minimum-trick subtraction chain (as multiples of
        p) bringing u back under 2p at stage ``m`` — empty for the skipped
        stages.  Wide primes cannot carry 4p into a Shoup product, so
        instead ``post`` (the chain applied to the whole chunk after every
        stage) brings everything back under 2p.  ``chain`` canonicalizes
        the final output.
        """
        bound_max = (1 << 32) // max_prime
        cached = self._schedules.get(bound_max)
        if cached is not None:
            return cached
        red: Dict[int, Tuple[int, ...]] = {}
        if bound_max < 4:
            post, bound = (2,), 2
            m = 1
            while m < self.n:
                red[m] = ()
                m *= 2
        else:
            post, bound = (), 1
            m = 1
            while m < self.n:
                if bound + 2 <= bound_max:
                    red[m] = ()
                    bound += 2
                else:
                    red[m] = tuple(
                        1 << j for j in range((bound - 1).bit_length() - 1, 0, -1)
                    )
                    bound = 4
                m *= 2
        chain = tuple(
            1 << j for j in range(max(bound - 1, 0).bit_length() - 1, -1, -1)
        ) or (1,)
        self._schedules[bound_max] = (red, post, chain)
        return red, post, chain


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
    batched path.
    """
    length, ring_degree = shape
    _check_named(length, len(primes) if rows is None else len(rows))
    plan = get_ntt_plan(ring_degree)
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


class _RowTables:
    """The tables of one transform's rows, in stack order: views when the
    table rows are contiguous, gathered copies otherwise."""

    def __init__(self, plan: NttPlan, tables, rows: np.ndarray, inverse: bool):
        lo, count = int(rows[0]), len(rows)
        if count == 1 or (int(rows[-1]) - lo + 1 == count
                          and bool((np.diff(rows) == 1).all())):
            rows = slice(lo, lo + count)
        self.m1 = plan.m1
        self.p_half = tables.p_half[rows]
        self.twop_half = tables.twop_half[rows]
        self._multiples = {1: self.p_half, 2: self.twop_half}
        max_prime = int(tables.p[rows].max())
        self.wide = max_prime >= WIDE_PRIME
        if inverse:
            self.w, self.w_sh = tables.ipsi_t[rows], tables.ipsi_t_sh[rows]
            self.n_inv_half = tables.n_inv_half[rows]
            self.n_inv_sh_half = tables.n_inv_sh_half[rows]
        else:
            self.w, self.w_sh = tables.psi_t[rows], tables.psi_t_sh[rows]
            self.red, self.post, self.chain = plan.forward_schedule(max_prime)

    def multiple_half(self, k: int) -> np.ndarray:
        """Contiguous half-table of ``k * p`` per limb row (cached)."""
        table = self._multiples.get(k)
        if table is None:
            table = self._multiples[k] = self.p_half * UINT(k)
        return table

    def twiddles(self, m: int, lo: int, hi: int):
        """Stage-``m`` twiddles (+ Shoup companions) of rows ``lo:hi``:
        ``(limbs, m, 1)`` for a strided stage, ``(limbs, rel, 1, m1)``
        for a transposed one."""
        shape = (hi - lo, m, 1) if m < self.m1 else (
            hi - lo, m // self.m1, 1, self.m1)
        return (self.w[lo:hi, m:2 * m].reshape(shape),
                self.w_sh[lo:hi, m:2 * m].reshape(shape))


# --------------------------------------------------------------------- #
# Batched butterflies


def _butterfly_ct(u, v, w, w_sh, p, twop, qq, ss, red):
    """One lazy Cooley-Tukey stage (in place).

    ``red`` is the stage's reduction chain: ``k*p`` tables subtracted from
    ``u`` with the minimum trick before combining.  An empty chain is the
    fully lazy stage (bound grows by 2p); a non-empty chain brings ``u``
    back under 2p first.  The Shoup product needs ``v < 2**32``, which the
    plan's schedule guarantees.
    """
    np.multiply(v, w_sh, out=qq)
    np.right_shift(qq, _S32, out=qq)
    np.multiply(qq, p, out=qq)
    np.multiply(v, w, out=ss)
    np.subtract(ss, qq, out=ss)       # ss = v*w mod-ish, in [0, 2p)
    for kp in red:
        np.subtract(u, kp, out=qq)
        np.minimum(u, qq, out=u)
    np.subtract(u, ss, out=v)
    np.add(v, twop, out=v)            # u - v*w + 2p
    np.add(u, ss, out=u)              # u + v*w


def _butterfly_gs(u, v, w, w_sh, p, twop, qq, ss, rr, wide):
    """One lazy Gentleman-Sande stage: inputs < 2p, outputs < 2p."""
    np.add(u, v, out=ss)              # u + v, < 4p
    np.subtract(u, v, out=qq)
    np.add(qq, twop, out=qq)          # u - v + 2p, in (0, 4p)
    if wide:                          # 4p may pass 2**32: back under 2p
        np.subtract(qq, twop, out=rr)
        np.minimum(qq, rr, out=qq)
    np.multiply(qq, w_sh, out=rr)
    np.right_shift(rr, _S32, out=rr)
    np.multiply(rr, p, out=rr)
    np.multiply(qq, w, out=v)
    np.subtract(v, rr, out=v)         # (u - v)*w, in [0, 2p)
    np.subtract(ss, twop, out=qq)
    np.minimum(ss, qq, out=u)         # u + v reduced to [0, 2p)


def _reduce_chain(a2, t: _RowTables, lo: int, hi: int, qq, chain) -> None:
    """Minimum-trick ``chain`` (multiples of p) over a whole chunk.

    ``a2`` is the chunk viewed as ``(limbs, 2, half)``; the ``k*p`` tables
    broadcast over the middle axis (outer loop axis — no inner-loop cost).
    """
    limbs, _, half = a2.shape
    for k in chain:
        kp = t.multiple_half(k)[lo:hi].reshape(limbs, 1, half)
        np.subtract(a2, kp, out=qq)
        np.minimum(a2, qq, out=a2)


def _ntt_chunk(a: np.ndarray, t: _RowTables, lo: int, hi: int) -> None:
    """Forward NTT of limb rows ``a`` (in place, canonical in/out)."""
    limbs, n = a.shape
    half = n // 2
    qf = scratch_buffer("ntt-q", limbs * half)
    sf = scratch_buffer("ntt-s", limbs * half)
    p_h = t.p_half[lo:hi]
    twop_h = t.twop_half[lo:hi]
    qq2 = scratch_buffer("ntt-c", limbs * n)[:limbs * n].reshape(limbs, 2, half)

    m = 1
    while m < t.m1:                             # strided phase (large t)
        stride = n // (2 * m)
        view = a.reshape(limbs, m, 2, stride)
        shape = (limbs, m, stride)
        w, w_sh = t.twiddles(m, lo, hi)
        _butterfly_ct(view[:, :, 0, :], view[:, :, 1, :], w, w_sh,
                      p_h.reshape(shape), twop_h.reshape(shape),
                      qf[:limbs * half].reshape(shape),
                      sf[:limbs * half].reshape(shape),
                      tuple(t.multiple_half(k)[lo:hi].reshape(shape)
                            for k in t.red[m]))
        if t.post:
            _reduce_chain(a.reshape(limbs, 2, half), t, lo, hi, qq2, t.post)
        m *= 2
    if m >= n:                                  # degenerate tiny ring
        _reduce_chain(a.reshape(limbs, 2, half), t, lo, hi, qq2, t.chain)
        return
    # Transposed phase: remaining stages act inside blocks of B elements;
    # transposing makes the innermost axis (the m1 blocks) contiguous.
    m1 = m
    block = n // m1
    at = scratch_buffer("ntt-t", limbs * n)[:limbs * n].reshape(limbs, block, m1)
    np.copyto(at, a.reshape(limbs, m1, block).transpose(0, 2, 1))
    while m < n:
        stride = n // (2 * m)
        rel = m // m1
        view = at.reshape(limbs, rel, 2, stride, m1)
        shape = (limbs, rel, stride, m1)
        w, w_sh = t.twiddles(m, lo, hi)
        _butterfly_ct(view[:, :, 0], view[:, :, 1], w, w_sh,
                      p_h.reshape(shape), twop_h.reshape(shape),
                      qf[:limbs * half].reshape(shape),
                      sf[:limbs * half].reshape(shape),
                      tuple(t.multiple_half(k)[lo:hi].reshape(shape)
                            for k in t.red[m]))
        if t.post:
            _reduce_chain(at.reshape(limbs, 2, half), t, lo, hi, qq2, t.post)
        m *= 2
    _reduce_chain(at.reshape(limbs, 2, half), t, lo, hi, qq2, t.chain)
    np.copyto(a.reshape(limbs, m1, block), at.transpose(0, 2, 1))


def _intt_chunk(a: np.ndarray, t: _RowTables, lo: int, hi: int) -> None:
    """Inverse NTT of limb rows ``a`` (in place, canonical in/out)."""
    limbs, n = a.shape
    half = n // 2
    qf = scratch_buffer("ntt-q", limbs * half)
    sf = scratch_buffer("ntt-s", limbs * half)
    rf = scratch_buffer("ntt-r", limbs * half)
    p_h = t.p_half[lo:hi]
    twop_h = t.twop_half[lo:hi]
    m = n // 2
    if m >= t.m1 and n > 1:
        # Transposed phase first: the small-stride stages come first in
        # the Gentleman-Sande ordering.
        m1 = t.m1
        block = n // m1
        at = scratch_buffer("ntt-t", limbs * n)[:limbs * n].reshape(limbs, block, m1)
        np.copyto(at, a.reshape(limbs, m1, block).transpose(0, 2, 1))
        while m >= m1:
            stride = n // (2 * m)
            rel = m // m1
            view = at.reshape(limbs, rel, 2, stride, m1)
            shape = (limbs, rel, stride, m1)
            w, w_sh = t.twiddles(m, lo, hi)
            _butterfly_gs(view[:, :, 0], view[:, :, 1], w, w_sh,
                          p_h.reshape(shape), twop_h.reshape(shape),
                          qf[:limbs * half].reshape(shape),
                          sf[:limbs * half].reshape(shape),
                          rf[:limbs * half].reshape(shape), t.wide)
            m //= 2
        np.copyto(a.reshape(limbs, m1, block), at.transpose(0, 2, 1))
    while m >= 1:                               # strided phase (large t)
        stride = n // (2 * m)
        view = a.reshape(limbs, m, 2, stride)
        shape = (limbs, m, stride)
        w, w_sh = t.twiddles(m, lo, hi)
        _butterfly_gs(view[:, :, 0, :], view[:, :, 1, :], w, w_sh,
                      p_h.reshape(shape), twop_h.reshape(shape),
                      qf[:limbs * half].reshape(shape),
                      sf[:limbs * half].reshape(shape),
                      rf[:limbs * half].reshape(shape), t.wide)
        m //= 2
    # Scale by n^-1 (Shoup) and canonicalize; values enter < 2p < 2**32.
    a2 = a.reshape(limbs, 2, half)
    p2 = p_h.reshape(limbs, 1, half)
    ninv2 = t.n_inv_half[lo:hi].reshape(limbs, 1, half)
    ninv_sh2 = t.n_inv_sh_half[lo:hi].reshape(limbs, 1, half)
    qq2 = scratch_buffer("ntt-c", limbs * n)[:limbs * n].reshape(limbs, 2, half)
    np.multiply(a2, ninv_sh2, out=qq2)
    np.right_shift(qq2, _S32, out=qq2)
    np.multiply(qq2, p2, out=qq2)
    np.multiply(a2, ninv2, out=a2)
    np.subtract(a2, qq2, out=a2)                # in [0, 2p)
    np.subtract(a2, p2, out=qq2)
    np.minimum(a2, qq2, out=a2)


def _reference_stack(values: np.ndarray, primes: Sequence[int], rows,
                     inverse: bool) -> np.ndarray:
    """Per-limb reference loop: primes with no batched path (>= 2**31)."""
    from . import ntt as _ntt  # late import; ntt is the reference impl

    fn = _ntt.intt_reference if inverse else _ntt.ntt_reference
    if rows is not None:
        primes = [primes[r] for r in rows]
    return np.stack([fn(values[i], int(q)) for i, q in enumerate(primes)])


def _transform_rows(out: np.ndarray, plan: NttPlan, tables,
                    rows: np.ndarray, inverse: bool) -> None:
    """Transform ``out`` in place; its rows are all narrow or all wide."""
    length, n = out.shape
    t = _RowTables(plan, tables, rows, inverse)
    chunk = _intt_chunk if inverse else _ntt_chunk
    step = _limb_chunk(length, n)
    for lo in range(0, length, step):
        hi = min(length, lo + step)
        chunk(out[lo:hi], t, lo, hi)


def _transform(stack: np.ndarray, primes: Sequence[int], rows,
               inverse: bool) -> np.ndarray:
    stack = np.asarray(stack, dtype=UINT)
    if stack.ndim == 1:
        return _transform(stack[None, :], primes, rows, inverse)[0]
    tables, table_rows = plan_rows(stack.shape, primes, rows)
    if tables is None:
        return _reference_stack(stack, primes, rows, inverse)
    lib = native.load_library()
    if lib is not None:
        return native._run(lib, stack, tables, table_rows, inverse)
    plan = get_ntt_plan(stack.shape[1])
    out = np.array(stack, dtype=UINT, order="C")
    wide = tables.wide[table_rows]
    if wide.any() and not wide.all():
        # A mixed stack: each class on its own path, so the narrow rows
        # keep their lazier schedule.
        for mask in (wide, ~wide):
            part = out[mask]
            _transform_rows(part, plan, tables, table_rows[mask], inverse)
            out[mask] = part
    elif len(out):
        _transform_rows(out, plan, tables, table_rows, inverse)
    return out


def ntt_batch(coeffs: np.ndarray, primes: Sequence[int], rows=None) -> np.ndarray:
    """Forward negacyclic NTT of a limb stack ``(L, N)`` (or one limb).

    Bit-identical to the per-limb reference (canonical residues, same
    bit-reversed output order).  See :func:`plan_rows` for ``rows``.
    """
    return _transform(coeffs, primes, rows, inverse=False)


def intt_batch(values: np.ndarray, primes: Sequence[int], rows=None) -> np.ndarray:
    """Inverse negacyclic NTT of a limb stack ``(L, N)``, batched."""
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


def _barrett_reduce(z: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Canonical ``z mod p`` for ``z < 2**62`` via the float quotient."""
    quot = (z.astype(np.float64) * (1.0 / p.astype(np.float64))).astype(UINT)
    r = z - quot * p
    np.minimum(r, r + p, out=r)
    np.minimum(r, r - p, out=r)
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
# Batched base conversion


class BatchedConversionPlan:
    """Matmul-form approximate base conversion between two fixed bases.

    The accumulation ``sum_j scaled[j] * factors[j, k] mod p_k`` is two
    float64 GEMMs on a 16-bit split of the scaled limbs: every partial sum
    stays below 2**53, so the float arithmetic is exact and the result is
    bit-identical to the per-limb reference.  Requires at most 64 source
    limbs (``supported`` is False otherwise).
    """

    def __init__(self, source: PrimeTuple, target: PrimeTuple):
        ref = get_conversion_plan(source, target)
        self.source = ref.source
        self.target = ref.target
        self.q_hat_inv = ref.q_hat_inv[:, None]                # (Ls, 1)
        self.source_p = np.array(ref.source, dtype=UINT)[:, None]
        self.target_p = np.array(ref.target, dtype=UINT)[:, None]
        self.supported = (
            len(ref.source) <= 64
            and max(ref.source + ref.target, default=0) < (1 << 31)
        )
        # factors.T as float64: (Lt, Ls); exact since factors < 2**31.
        self.factors_f = ref.factors.astype(np.float64).T.copy()
        # The same conversion as one C ``bcv`` group: target row k sums
        # every source row j times factors[j, k].
        self.factors_t = np.ascontiguousarray(ref.factors.T)
        self.source_rows = np.repeat(
            np.arange(len(ref.source), dtype=np.int32)[:, None],
            len(ref.target), axis=1)
        self.target_rows = np.arange(len(ref.target))

    def convert(self, limbs: np.ndarray) -> np.ndarray:
        z = np.multiply(np.asarray(limbs, dtype=UINT), self.q_hat_inv)
        scaled = _barrett_reduce(z, self.source_p)
        lo = (scaled & UINT(0xFFFF)).astype(np.float64)
        hi = (scaled >> UINT(16)).astype(np.float64)
        acc_lo = (self.factors_f @ lo).astype(UINT)            # < 2**53
        acc_hi = (self.factors_f @ hi).astype(UINT)            # < 2**52
        p = self.target_p
        combined = (_barrett_reduce(acc_hi, p) << UINT(16)) + acc_lo
        return _barrett_reduce(combined, p)


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
    """Approximate base conversion, batched (falls back when unsupported):
    on the C kernels when the library loads, else in float64 GEMMs."""
    plan = get_batched_conversion_plan(source, target)
    if not plan.supported:
        return get_conversion_plan(source, target).convert(limbs)
    limbs = np.asarray(limbs, dtype=UINT)
    _check_named(len(limbs), len(plan.source))
    lib = native.load_library()
    if lib is not None:
        return native._base_convert(lib, limbs, plan)
    return plan.convert(limbs)


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
    """Extend limbs to a superset basis (copies + one batched conversion)."""
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
    """Scale down by the extension product, batched across base limbs."""
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
    ``.name`` is ``"native"`` when the C library loaded and
    ``"numpy-batched"`` otherwise (:func:`repro.fhe.native.build_error`
    says why)."""
    lib = native.load_library()
    return SimpleNamespace(name="numpy-batched" if lib is None else "native")


# Last: ``native`` imports this module for its plans and its smoke test.
from . import native  # noqa: E402
