"""CKKS encoding: packing complex vectors into ring plaintexts.

CKKS batches ``N/2`` complex *slots* into one polynomial via the canonical
embedding: slot ``j`` is the evaluation of the message polynomial at
``zeta^(5^j)`` where ``zeta = exp(i*pi/N)`` is a primitive ``2N``-th root of
unity.  The powers ``{+-5^j}`` enumerate all odd exponents, so for real
(integer-coefficient) polynomials the remaining evaluations are forced to be
the complex conjugates of the slots.

Both directions are computed in ``O(N log N)`` with an FFT twist:

    m(zeta^(2t+1)) = N * ifft(m_i * zeta^i)[t]

Slot rotation corresponds to the ring automorphism ``X -> X^(5^r)`` and
conjugation to ``X -> X^(2N-1)``; :func:`rotation_galois_element` maps slot
shifts to Galois elements.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from .params import CKKSParams
from .polynomial import COEFF, RnsPolynomial
from .rns import crt_reconstruct, integers_to_rns

_GEOM_CACHE: Dict[int, "SlotGeometry"] = {}


class SlotGeometry:
    """Index bookkeeping for the canonical embedding at one ring degree."""

    def __init__(self, ring_degree: int):
        n = ring_degree
        self.ring_degree = n
        self.slot_count = n // 2
        two_n = 2 * n
        # Orbit of 5 modulo 2N: the Galois elements reachable by rotation.
        exps = np.empty(self.slot_count, dtype=np.int64)
        e = 1
        for j in range(self.slot_count):
            exps[j] = e
            e = (e * 5) % two_n
        self.rot_exponents = exps
        self.slot_fft_index = (exps - 1) // 2
        conj = (two_n - exps) % two_n
        self.conj_fft_index = (conj - 1) // 2
        i = np.arange(n)
        self.zeta_powers = np.exp(1j * np.pi * i / n)
        self.zeta_inv_powers = np.exp(-1j * np.pi * i / n)


def get_geometry(ring_degree: int) -> SlotGeometry:
    geom = _GEOM_CACHE.get(ring_degree)
    if geom is None:
        geom = SlotGeometry(ring_degree)
        _GEOM_CACHE[ring_degree] = geom
    return geom


def rotation_galois_element(rotation: int, ring_degree: int) -> int:
    """Galois element ``5^rotation mod 2N`` implementing a left slot shift."""
    two_n = 2 * ring_degree
    return pow(5, rotation % (ring_degree // 2), two_n)


def conjugation_galois_element(ring_degree: int) -> int:
    """Galois element ``2N - 1`` implementing slot-wise conjugation."""
    return 2 * ring_degree - 1


class Plaintext:
    """An encoded message: an RNS polynomial plus its scale."""

    __slots__ = ("poly", "scale")

    def __init__(self, poly: RnsPolynomial, scale: float):
        self.poly = poly
        self.scale = scale

    @property
    def level(self) -> int:
        return self.poly.level

    def __repr__(self):
        return f"Plaintext(level={self.level}, scale=2^{np.log2(self.scale):.1f})"


class CKKSEncoder:
    """Encode/decode complex vectors to/from RNS plaintexts."""

    def __init__(self, params: CKKSParams):
        self.params = params
        self.geometry = get_geometry(params.ring_degree)

    def _embed(self, values: np.ndarray, scale: float) -> np.ndarray:
        """Inverse canonical embedding: slots -> scaled integer coefficients."""
        geom = self.geometry
        n = geom.ring_degree
        values = np.asarray(values, dtype=np.complex128)
        if len(values) > geom.slot_count:
            raise ValueError(
                f"{len(values)} values exceed {geom.slot_count} slots"
            )
        bad = int(np.count_nonzero(~np.isfinite(values)))
        if bad:
            raise ValueError(
                f"cannot encode non-finite values: {bad} of {len(values)} "
                "slots are NaN or infinite")
        slots = np.zeros(geom.slot_count, dtype=np.complex128)
        slots[: len(values)] = values
        spectrum = np.zeros(n, dtype=np.complex128)
        spectrum[geom.slot_fft_index] = slots * scale
        spectrum[geom.conj_fft_index] = np.conj(slots) * scale
        twisted = np.fft.fft(spectrum) / n
        coeffs = np.real(twisted * geom.zeta_inv_powers)
        return np.round(coeffs)

    def encode(self, values, scale: float = None, level: int = None) -> Plaintext:
        """Encode a vector of numbers into a plaintext.

        ``values`` may be shorter than the slot count (zero padded).  The
        plaintext is produced at ``level`` limbs (default: the full chain).
        """
        scale = self.params.scale if scale is None else scale
        level = self.params.max_level if level is None else level
        basis = self.params.basis_at_level(level)
        coeffs = self._embed(values, scale)
        if np.max(np.abs(coeffs)) < 2**62:
            ints = coeffs.astype(np.int64)
        else:  # very large scales (e.g. Delta^2 plaintexts) need big ints
            ints = [int(c) for c in coeffs]
        poly = RnsPolynomial(basis, integers_to_rns(ints, basis), COEFF).to_eval()
        return Plaintext(poly, scale)

    def decode(self, plaintext: Plaintext, length: int = None) -> np.ndarray:
        """Decode a plaintext back to a complex vector of ``length`` slots."""
        geom = self.geometry
        poly = plaintext.poly.to_coeff()
        coeffs = np.array(
            crt_reconstruct(poly.data, poly.basis), dtype=np.float64
        )
        twisted = coeffs * geom.zeta_powers
        spectrum = np.fft.ifft(twisted) * geom.ring_degree
        slots = spectrum[geom.slot_fft_index] / plaintext.scale
        if length is not None:
            slots = slots[:length]
        return slots

    def encode_constant(self, value: complex, scale: float = None, level: int = None) -> Plaintext:
        """Encode a constant replicated across all slots."""
        full = np.full(self.geometry.slot_count, value, dtype=np.complex128)
        return self.encode(full, scale=scale, level=level)

    def rotate_reference(self, values: Sequence[complex], rotation: int) -> np.ndarray:
        """Plaintext oracle for slot rotation (left shift by ``rotation``)."""
        arr = np.asarray(values, dtype=np.complex128)
        return np.roll(arr, -rotation)
