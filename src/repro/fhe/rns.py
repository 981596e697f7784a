"""Residue Number System (RNS) bases and base conversion.

A polynomial with a huge ciphertext modulus ``Q = q_0 * q_1 * ... * q_{l-1}``
is represented as ``l`` *limbs*: its residues modulo each word-sized prime.
Base conversion (Bajard et al., the "fast/approximate" variant) moves a
polynomial from one RNS basis to another entirely with word arithmetic:

    C_{p_k} = sum_j [C * (Q/q_j)^{-1}]_{q_j} * [(Q/q_j)]_{p_k}   (mod p_k)

The conversion is *approximate*: the result equals the exact value plus a
small multiple ``u * Q`` with ``|u| <= l/2``, which CKKS absorbs as noise.

Base conversion is the one FHE primitive that is **not** limb-parallel; it is
what makes keyswitching hard to scale out and is the operation Cinnamon's
base conversion unit (BCU) accelerates.
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, Sequence, Tuple

import numpy as np

from .modmath import UINT, mod_inv, mod_mul, mod_sub

PrimeTuple = Tuple[int, ...]


def basis_product(primes: Sequence[int]) -> int:
    """Product of the basis primes as an arbitrary-precision int."""
    return reduce(lambda a, b: a * b, (int(p) for p in primes), 1)


class BaseConversionPlan:
    """Precomputed factors for converting between two fixed RNS bases.

    ``q_hat_inv[j]``   : ``(Q/q_j)^{-1} mod q_j``
    ``factors[j, k]``  : ``(Q/q_j) mod p_k``

    where ``Q`` is the product of the *source* basis.
    """

    def __init__(self, source: PrimeTuple, target: PrimeTuple):
        self.source = tuple(int(p) for p in source)
        self.target = tuple(int(p) for p in target)
        q_total = basis_product(self.source)
        self.q_hat_inv = np.array(
            [mod_inv(q_total // qj, qj) for qj in self.source], dtype=UINT
        )
        self.factors = np.array(
            [[(q_total // qj) % pk for pk in self.target] for qj in self.source],
            dtype=UINT,
        )

    def convert(self, limbs: np.ndarray) -> np.ndarray:
        """Convert coefficient-domain limbs ``(len(source), N)`` to the target.

        Returns an array of shape ``(len(target), N)``.
        """
        if limbs.shape[0] != len(self.source):
            raise ValueError(
                f"expected {len(self.source)} source limbs, got {limbs.shape[0]}"
            )
        n = limbs.shape[1]
        scaled = np.empty_like(limbs)
        for j, qj in enumerate(self.source):
            scaled[j] = mod_mul(limbs[j], self.q_hat_inv[j], qj)
        out = np.zeros((len(self.target), n), dtype=UINT)
        # Accumulate in uint64 with periodic reduction: each product is
        # < 2**62, so we can add at most two products before reducing.
        for k, pk in enumerate(self.target):
            acc = np.zeros(n, dtype=UINT)
            for j in range(len(self.source)):
                acc = (acc + scaled[j] * self.factors[j, k]) % UINT(pk)
            out[k] = acc
        return out


_PLAN_CACHE: Dict[Tuple[PrimeTuple, PrimeTuple], BaseConversionPlan] = {}


def get_conversion_plan(source: Sequence[int], target: Sequence[int]) -> BaseConversionPlan:
    """Fetch (building if needed) the cached conversion plan for a base pair."""
    key = (tuple(int(p) for p in source), tuple(int(p) for p in target))
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = BaseConversionPlan(*key)
        _PLAN_CACHE[key] = plan
    return plan


def base_convert(limbs: np.ndarray, source: Sequence[int], target: Sequence[int]) -> np.ndarray:
    """Approximate base conversion (see :mod:`repro.fhe.kernels`)."""
    from . import kernels

    return kernels.base_convert(limbs, source, target)


def mod_up(
    limbs: np.ndarray, source: Sequence[int], target: Sequence[int]
) -> np.ndarray:
    """Extend limbs to a superset basis (see :mod:`repro.fhe.kernels`)."""
    from . import kernels

    return kernels.mod_up(limbs, source, target)


def mod_down(
    limbs: np.ndarray, base: Sequence[int], extension: Sequence[int]
) -> np.ndarray:
    """Scale down by the extension product (see :mod:`repro.fhe.kernels`)."""
    from . import kernels

    return kernels.mod_down(limbs, base, extension)


def mod_up_reference(
    limbs: np.ndarray, source: Sequence[int], target: Sequence[int]
) -> np.ndarray:
    """Extend limbs from basis ``source`` to superset basis ``target``.

    Limbs whose prime already exists in ``source`` are copied verbatim (the
    conversion is exact for them by construction); the remaining limbs are
    produced by approximate base conversion.  All arrays are in the
    coefficient domain.  This is the per-limb reference implementation
    :func:`repro.fhe.kernels.mod_up` is tested against.
    """
    source = tuple(int(p) for p in source)
    target = tuple(int(p) for p in target)
    missing = tuple(p for p in target if p not in source)
    position = {p: i for i, p in enumerate(source)}
    converted = (get_conversion_plan(source, missing).convert(limbs)
                 if missing else None)
    out = np.empty((len(target), limbs.shape[1]), dtype=UINT)
    miss_idx = 0
    for k, p in enumerate(target):
        if p in position:
            out[k] = limbs[position[p]]
        else:
            out[k] = converted[miss_idx]
            miss_idx += 1
    return out


def mod_down_reference(
    limbs: np.ndarray,
    base: Sequence[int],
    extension: Sequence[int],
) -> np.ndarray:
    """Scale down from basis ``base + extension`` to ``base``.

    Computes ``round(x / P)`` in RNS where ``P`` is the product of the
    extension primes: for each ``q`` in ``base``,

        y_q = (x_q - BaseConvert(x_E -> q)) * P^{-1}   (mod q)

    ``limbs`` must be ordered with the ``base`` limbs first, then the
    ``extension`` limbs.  All arrays are in the coefficient domain.  This
    is the per-limb reference implementation
    :func:`repro.fhe.kernels.mod_down` is tested against.
    """
    base = tuple(int(p) for p in base)
    extension = tuple(int(p) for p in extension)
    n_base = len(base)
    if limbs.shape[0] != n_base + len(extension):
        raise ValueError(
            f"expected {n_base + len(extension)} limbs, got {limbs.shape[0]}"
        )
    ext_limbs = limbs[n_base:]
    approx = get_conversion_plan(extension, base).convert(ext_limbs)
    p_total = basis_product(extension)
    out = np.empty((n_base, limbs.shape[1]), dtype=UINT)
    for i, q in enumerate(base):
        p_inv = mod_inv(p_total % q, q)
        out[i] = mod_mul(mod_sub(limbs[i], approx[i], q), p_inv, q)
    return out


def crt_reconstruct(limbs: np.ndarray, primes: Sequence[int]) -> list:
    """Exact CRT reconstruction to centered Python ints.

    Returns a list of ``N`` integers in ``(-Q/2, Q/2]``.  Used for encoding,
    decoding, and as a test oracle; not on any performance path.
    """
    primes = [int(p) for p in primes]
    q_total = basis_product(primes)
    weights = []
    for qj in primes:
        q_hat = q_total // qj
        weights.append(q_hat * mod_inv(q_hat, qj))
    n = limbs.shape[1]
    result = []
    cols = limbs.T
    for i in range(n):
        acc = 0
        col = cols[i]
        for j in range(len(primes)):
            acc += int(col[j]) * weights[j]
        acc %= q_total
        if acc > q_total // 2:
            acc -= q_total
        result.append(acc)
    return result


def integers_to_rns(values: Sequence[int], primes: Sequence[int]) -> np.ndarray:
    """Decompose integers into RNS limbs ``(L, N)``.

    An int64 array is reduced into every limb ring with one ``np.mod``
    (exact: floor modulo of 64-bit operands); anything else — the Python
    ints of a Delta^2-scale plaintext — one big-int ``%`` per coefficient.
    """
    primes = [int(p) for p in primes]
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        column = np.array(primes, dtype=np.int64)[:, None]
        return np.mod(values[None, :], column).astype(UINT)
    n = len(values)
    out = np.empty((len(primes), n), dtype=UINT)
    int_values = [int(v) for v in values]
    for j, q in enumerate(primes):
        out[j] = np.array([v % q for v in int_values], dtype=UINT)
    return out
