"""Negacyclic Number Theoretic Transform over ``Z_q[X]/(X^N + 1)``.

Implements the merged-twiddle iterative NTT of Longa & Naehrig: the forward
transform is a decimation-in-time Cooley-Tukey pass producing output in
bit-reversed order; the inverse is the matching Gentleman-Sande pass that
consumes bit-reversed input and produces natural order.  Because both
transforms agree on the intermediate ordering, pointwise products can be
taken directly on forward-transform outputs.

Tables (powers of the 2N-th root of unity, in bit-reversed order) are cached
per ``(prime, N)`` pair.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .modmath import UINT, mod_inv, scratch_buffer
from .primes import find_root_of_unity

_TABLE_CACHE: Dict[Tuple[int, int], "NttTables"] = {}


def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


class NttTables:
    """Precomputed twiddle factors for one ``(prime, ring_degree)`` pair."""

    def __init__(self, prime: int, ring_degree: int):
        if ring_degree & (ring_degree - 1):
            raise ValueError(f"ring degree {ring_degree} must be a power of two")
        self.prime = prime
        self.ring_degree = ring_degree
        psi = find_root_of_unity(prime, 2 * ring_degree)
        self.psi = psi
        self.psi_inv = mod_inv(psi, prime)
        self.n_inv = mod_inv(ring_degree, prime)
        rev = _bit_reverse_indices(ring_degree)
        powers = np.empty(ring_degree, dtype=UINT)
        inv_powers = np.empty(ring_degree, dtype=UINT)
        acc = 1
        acc_inv = 1
        for i in range(ring_degree):
            powers[i] = acc
            inv_powers[i] = acc_inv
            acc = (acc * psi) % prime
            acc_inv = (acc_inv * self.psi_inv) % prime
        self.psi_powers_bitrev = powers[rev]
        self.psi_inv_powers_bitrev = inv_powers[rev]


def get_tables(prime: int, ring_degree: int) -> NttTables:
    """Fetch (building and caching if needed) NTT tables for a modulus."""
    key = (prime, ring_degree)
    tables = _TABLE_CACHE.get(key)
    if tables is None:
        tables = NttTables(prime, ring_degree)
        _TABLE_CACHE[key] = tables
    return tables


def ntt_reference(coeffs: np.ndarray, prime: int) -> np.ndarray:
    """Forward negacyclic NTT of one limb. Output is in bit-reversed order.

    ``coeffs`` is a length-N uint64 array of residues mod ``prime``.  This
    is the per-limb reference kernel; the public :func:`ntt` runs
    :func:`repro.fhe.kernels.ntt_batch`, which is bit-identical to it.
    """
    n = coeffs.shape[-1]
    tables = get_tables(prime, n)
    p = UINT(prime)
    a = np.array(coeffs, dtype=UINT, copy=True)
    psi = tables.psi_powers_bitrev
    half = n // 2
    ubuf = scratch_buffer("ref-u", half)
    vbuf = scratch_buffer("ref-v", half)
    tbuf = scratch_buffer("ref-t", half)
    t = n
    m = 1
    while m < n:
        t //= 2
        view = a.reshape(m, 2, t)
        twiddles = psi[m : 2 * m].reshape(m, 1)
        u = ubuf[:half].reshape(m, t)
        v = vbuf[:half].reshape(m, t)
        tmp = tbuf[:half].reshape(m, t)
        np.copyto(u, view[:, 0, :])  # copy: the in-place write would alias
        np.multiply(view[:, 1, :], twiddles, out=v)
        v %= p
        np.add(u, v, out=tmp)
        tmp %= p
        view[:, 0, :] = tmp
        np.add(u, p, out=tmp)
        np.subtract(tmp, v, out=tmp)
        tmp %= p
        view[:, 1, :] = tmp
        m *= 2
    return a


def intt_reference(values: np.ndarray, prime: int) -> np.ndarray:
    """Inverse negacyclic NTT of one limb: bit-reversed in, natural out."""
    n = values.shape[-1]
    tables = get_tables(prime, n)
    p = UINT(prime)
    a = np.array(values, dtype=UINT, copy=True)
    psi_inv = tables.psi_inv_powers_bitrev
    half = n // 2
    ubuf = scratch_buffer("ref-u", half)
    vbuf = scratch_buffer("ref-v", half)
    tbuf = scratch_buffer("ref-t", half)
    t = 1
    m = n
    while m > 1:
        m //= 2
        view = a.reshape(m, 2, t)
        twiddles = psi_inv[m : 2 * m].reshape(m, 1)
        u = ubuf[:half].reshape(m, t)
        v = vbuf[:half].reshape(m, t)
        tmp = tbuf[:half].reshape(m, t)
        np.copyto(u, view[:, 0, :])  # copy: the in-place write would alias
        np.copyto(v, view[:, 1, :])
        np.add(u, v, out=tmp)
        tmp %= p
        view[:, 0, :] = tmp
        np.add(u, p, out=tmp)
        np.subtract(tmp, v, out=tmp)
        tmp %= p
        np.multiply(tmp, twiddles, out=tmp)
        tmp %= p
        view[:, 1, :] = tmp
        t *= 2
    np.multiply(a, UINT(tables.n_inv), out=a)
    a %= p
    return a


def ntt(coeffs: np.ndarray, prime: int) -> np.ndarray:
    """Forward negacyclic NTT of one limb (see :mod:`repro.fhe.kernels`)."""
    from . import kernels

    return kernels.ntt_batch(coeffs, (int(prime),))


def intt(values: np.ndarray, prime: int) -> np.ndarray:
    """Inverse negacyclic NTT of one limb (see :mod:`repro.fhe.kernels`)."""
    from . import kernels

    return kernels.intt_batch(values, (int(prime),))


def ntt_batch(coeffs: np.ndarray, primes) -> np.ndarray:
    """Forward NTT of a stack of limbs; ``coeffs`` has shape ``(L, N)``."""
    from . import kernels

    return kernels.ntt_batch(coeffs, primes)


def intt_batch(values: np.ndarray, primes) -> np.ndarray:
    """Inverse NTT of a stack of limbs; ``values`` has shape ``(L, N)``."""
    from . import kernels

    return kernels.intt_batch(values, primes)


_AUTO_PERM_CACHE: Dict[Tuple[int, int], np.ndarray] = {}


def eval_automorphism_permutation(galois_element: int, ring_degree: int) -> np.ndarray:
    """Index permutation implementing ``X -> X^k`` on NTT-domain data.

    Slot ``j`` of the (bit-reversed) NTT output holds the evaluation at
    exponent ``e_j = 2*brv(j) + 1``; the automorphism maps the value at
    exponent ``e*k`` into slot ``j``, a pure permutation with no sign
    corrections — which is why hardware applies automorphisms directly in
    the evaluation domain (Cinnamon's transpose/rotation units do this).
    """
    key = (galois_element, ring_degree)
    perm = _AUTO_PERM_CACHE.get(key)
    if perm is not None:
        return perm
    n = ring_degree
    two_n = 2 * n
    rev = _bit_reverse_indices(n)
    exponents = 2 * rev + 1  # e_j for each output slot j
    index_of = np.zeros(two_n, dtype=np.int64)
    index_of[exponents] = np.arange(n)
    perm = index_of[(exponents * galois_element) % two_n]
    _AUTO_PERM_CACHE[key] = perm
    return perm


def eval_automorphism(values: np.ndarray, galois_element: int) -> np.ndarray:
    """Apply ``X -> X^k`` to one evaluation-domain limb (permutation only)."""
    perm = eval_automorphism_permutation(galois_element, values.shape[-1])
    return values[..., perm]


def negacyclic_convolve_reference(a: np.ndarray, b: np.ndarray, prime: int) -> np.ndarray:
    """Schoolbook negacyclic convolution, used as a test oracle."""
    n = len(a)
    out = np.zeros(n, dtype=object)
    a_list = [int(x) for x in a]
    b_list = [int(x) for x in b]
    for i in range(n):
        for j in range(n):
            k = i + j
            term = a_list[i] * b_list[j]
            if k >= n:
                out[k - n] -= term
            else:
                out[k] += term
    return np.array([int(x) % prime for x in out], dtype=UINT)
