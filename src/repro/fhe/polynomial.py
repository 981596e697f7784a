"""RNS polynomials: the data type every FHE kernel operates on.

An :class:`RnsPolynomial` is a stack of limbs — one residue polynomial per
prime in its basis — together with a domain tag (coefficient or evaluation/
NTT domain).  Limb ``j`` is a length-``N`` ``uint64`` vector of residues
modulo ``basis[j]``.

Additions and subtractions work in either domain (element-wise in both);
multiplications require the evaluation domain; automorphisms and base
conversions require the coefficient domain.  Conversions are explicit —
silent domain coercion hides exactly the NTT traffic that dominates FHE
accelerator time, so the API makes it visible.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from . import kernels as _kernels
from .modmath import UINT

COEFF = "coeff"
EVAL = "eval"


class DomainError(ValueError):
    """Raised when an operation is applied in the wrong polynomial domain."""


class RnsPolynomial:
    """A polynomial in double-CRT (RNS x NTT) representation."""

    __slots__ = ("basis", "data", "domain")

    def __init__(self, basis: Sequence[int], data: np.ndarray, domain: str):
        basis = tuple(int(p) for p in basis)
        data = np.asarray(data, dtype=UINT)
        if data.ndim != 2 or data.shape[0] != len(basis):
            raise ValueError(
                f"data shape {data.shape} does not match basis of {len(basis)} primes"
            )
        if domain not in (COEFF, EVAL):
            raise ValueError(f"unknown domain {domain!r}")
        self.basis: Tuple[int, ...] = basis
        self.data = data
        self.domain = domain

    # ------------------------------------------------------------------ #
    # Constructors

    @classmethod
    def zero(cls, basis: Sequence[int], ring_degree: int, domain: str = EVAL):
        return cls(basis, np.zeros((len(basis), ring_degree), dtype=UINT), domain)

    @classmethod
    def from_integers(cls, values, basis: Sequence[int]):
        """Build a coefficient-domain polynomial from centered big ints."""
        from .rns import integers_to_rns

        return cls(basis, integers_to_rns(values, basis), COEFF)

    def copy(self) -> "RnsPolynomial":
        return RnsPolynomial(self.basis, self.data.copy(), self.domain)

    # ------------------------------------------------------------------ #
    # Introspection

    @property
    def ring_degree(self) -> int:
        return self.data.shape[1]

    @property
    def level(self) -> int:
        """Number of limbs (the paper calls this the polynomial's level)."""
        return len(self.basis)

    def limb(self, index: int) -> np.ndarray:
        return self.data[index]

    def __repr__(self):
        return (
            f"RnsPolynomial(limbs={self.level}, N={self.ring_degree}, "
            f"domain={self.domain})"
        )

    def _check_compatible(self, other: "RnsPolynomial"):
        if self.basis != other.basis:
            raise ValueError("basis mismatch between operands")
        if self.domain != other.domain:
            raise DomainError(
                f"domain mismatch: {self.domain} vs {other.domain}"
            )

    # ------------------------------------------------------------------ #
    # Limb-wise arithmetic (data parallel across limbs)

    def __add__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        out = _kernels.pointwise_addmod(self.data, other.data, self.basis)
        return RnsPolynomial(self.basis, out, self.domain)

    def __sub__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        out = _kernels.pointwise_submod(self.data, other.data, self.basis)
        return RnsPolynomial(self.basis, out, self.domain)

    def __neg__(self) -> "RnsPolynomial":
        out = _kernels.pointwise_negmod(self.data, self.basis)
        return RnsPolynomial(self.basis, out, self.domain)

    def __mul__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Pointwise product; both operands must be in the evaluation domain."""
        self._check_compatible(other)
        if self.domain != EVAL:
            raise DomainError("polynomial multiplication requires the evaluation domain")
        out = _kernels.pointwise_mulmod(self.data, other.data, self.basis)
        return RnsPolynomial(self.basis, out, self.domain)

    def scalar_mul(self, scalar: int) -> "RnsPolynomial":
        """Multiply by a Python-int scalar (reduced per limb); any domain."""
        return self.scalar_mul_rns([int(scalar)] * self.level)

    def scalar_mul_rns(self, residues: Sequence[int]) -> "RnsPolynomial":
        """Multiply limb ``j`` by ``residues[j]`` (per-limb scalar); any domain."""
        if len(residues) != self.level:
            raise ValueError("one residue per limb required")
        col = np.array(
            [int(r) % q for r, q in zip(residues, self.basis)], dtype=UINT
        )[:, None]
        out = _kernels.pointwise_mulmod(self.data, col, self.basis)
        return RnsPolynomial(self.basis, out, self.domain)

    # ------------------------------------------------------------------ #
    # Domain conversion

    def to_eval(self) -> "RnsPolynomial":
        if self.domain == EVAL:
            return self
        return RnsPolynomial(self.basis, _kernels.ntt_batch(self.data, self.basis), EVAL)

    def to_coeff(self) -> "RnsPolynomial":
        if self.domain == COEFF:
            return self
        return RnsPolynomial(self.basis, _kernels.intt_batch(self.data, self.basis), COEFF)

    # ------------------------------------------------------------------ #
    # Structural ops

    def automorphism(self, galois_element: int) -> "RnsPolynomial":
        """Apply ``X -> X^k`` for odd ``k`` (the paper's automorphism op).

        In the coefficient domain, coefficient ``i`` moves to position
        ``i*k mod N`` with a sign flip when ``i*k mod 2N >= N``.  In the
        evaluation domain the op is a pure slot permutation — exactly what
        accelerator automorphism units implement — and both paths agree
        bit-for-bit (tested).
        """
        k = galois_element
        n = self.ring_degree
        if k % 2 == 0:
            raise ValueError("galois element must be odd")
        if self.domain == EVAL:
            from .ntt import eval_automorphism_permutation

            perm = eval_automorphism_permutation(k % (2 * n), n)
            return RnsPolynomial(self.basis, self.data[:, perm].copy(), EVAL)
        idx = np.arange(n, dtype=np.int64)
        dest = (idx * k) % (2 * n)
        sign_flip = dest >= n
        dest = dest % n
        negated = _kernels.pointwise_negmod(self.data, self.basis)
        out = np.empty_like(self.data)
        out[:, dest] = np.where(sign_flip[None, :], negated, self.data)
        return RnsPolynomial(self.basis, out, COEFF)

    def drop_limbs(self, keep: int) -> "RnsPolynomial":
        """Truncate to the first ``keep`` limbs (used by level alignment)."""
        if not 1 <= keep <= self.level:
            raise ValueError(f"cannot keep {keep} of {self.level} limbs")
        return RnsPolynomial(self.basis[:keep], self.data[:keep].copy(), self.domain)

    def select_limbs(self, indices: Sequence[int]) -> "RnsPolynomial":
        """Extract an arbitrary subset of limbs (used by limb partitioning)."""
        indices = list(indices)
        basis = tuple(self.basis[i] for i in indices)
        return RnsPolynomial(basis, self.data[indices].copy(), self.domain)

    def equals(self, other: "RnsPolynomial") -> bool:
        """Bit-exact equality (same basis, domain, and limb data)."""
        return (
            self.basis == other.basis
            and self.domain == other.domain
            and bool(np.array_equal(self.data, other.data))
        )
