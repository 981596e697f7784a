"""Vectorized modular arithmetic over word-sized primes.

All kernels operate on ``numpy.uint64`` arrays holding residues modulo a
prime ``p < 2**31``.  Restricting the primes to 31 bits guarantees that the
product of two residues fits in a ``uint64`` without overflow, which lets
every kernel stay in plain numpy.  This mirrors Cinnamon's word-sized RNS
limbs (the paper uses a 28-bit datapath).
"""

from __future__ import annotations

import threading

import numpy as np

#: Largest prime bit-width for which ``a * b`` cannot overflow ``uint64``.
MAX_PRIME_BITS = 31

UINT = np.uint64

_SCRATCH = threading.local()


def scratch_buffer(name: str, size: int) -> np.ndarray:
    """A reusable flat ``uint64`` scratch array of at least ``size`` elements.

    Buffers are keyed by ``name`` and grow monotonically, so the per-limb
    reference NTTs avoid per-call allocation churn.
    They are thread-local: each serving shard gets its own set.  Callers
    slice and ``reshape`` the returned array; contents are undefined.
    """
    buffers = getattr(_SCRATCH, "buffers", None)
    if buffers is None:
        buffers = _SCRATCH.buffers = {}
    buf = buffers.get(name)
    if buf is None or buf.size < size:
        buf = buffers[name] = np.empty(size, dtype=UINT)
    return buf


def _as_uint(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=UINT)


def mod_add(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Element-wise ``(a + b) mod p``."""
    return (_as_uint(a) + _as_uint(b)) % UINT(p)


def mod_sub(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Element-wise ``(a - b) mod p`` (safe for unsigned operands)."""
    return (_as_uint(a) + UINT(p) - _as_uint(b)) % UINT(p)


def mod_neg(a: np.ndarray, p: int) -> np.ndarray:
    """Element-wise ``(-a) mod p``."""
    return (UINT(p) - _as_uint(a)) % UINT(p)


def mod_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Element-wise ``(a * b) mod p``.

    Requires ``p < 2**31`` so the intermediate product fits in ``uint64``.
    """
    return (_as_uint(a) * _as_uint(b)) % UINT(p)


def mod_scalar_mul(a: np.ndarray, scalar: int, p: int) -> np.ndarray:
    """Element-wise ``(a * scalar) mod p`` for a Python-int scalar."""
    return mod_mul(a, UINT(scalar % p), p)


def mod_pow(base: int, exponent: int, p: int) -> int:
    """Scalar modular exponentiation (wraps :func:`pow`)."""
    return pow(base % p, exponent, p)


def mod_inv(a: int, m: int) -> int:
    """Scalar modular inverse of ``a`` modulo ``m``.

    ``m`` may be composite (digit products in keyswitching are); ``a`` must
    be coprime to ``m``.
    """
    a = a % m
    if a == 0:
        raise ZeroDivisionError(f"{a} has no inverse modulo {m}")
    return pow(a, -1, m)


def centered(a: np.ndarray, p: int) -> np.ndarray:
    """Map residues in ``[0, p)`` to signed representatives in ``(-p/2, p/2]``.

    Returns an ``int64`` array.
    """
    a = _as_uint(a).astype(np.int64)
    half = p // 2
    return np.where(a > half, a - p, a)


def from_signed(a: np.ndarray, p: int) -> np.ndarray:
    """Reduce a signed integer array into ``[0, p)`` as ``uint64``."""
    a = np.asarray(a)
    if a.dtype == object:
        return np.array([int(x) % p for x in a.ravel()], dtype=UINT).reshape(a.shape)
    return np.mod(a.astype(np.int64), np.int64(p)).astype(UINT)


def batch_mod(values, p: int) -> np.ndarray:
    """Reduce arbitrary-precision Python integers modulo ``p``.

    ``values`` may be a list/array of Python ints of any magnitude.
    """
    return np.array([int(v) % p for v in values], dtype=UINT)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for ``n < 3.3 * 10**24`` (covers uint64)."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True
