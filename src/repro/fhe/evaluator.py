"""The CKKS evaluator: homomorphic operations on ciphertexts.

:class:`CKKSContext` bundles parameters, keys, and the encoder;
:class:`Evaluator` implements the homomorphic ops (Figure 5 of the paper):
addition, multiplication with relinearization, rotation via automorphism +
keyswitching, conjugation, rescaling, and hoisted rotation batches.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence

import numpy as np

from .ciphertext import Ciphertext
from .encoding import (
    CKKSEncoder,
    Plaintext,
    conjugation_galois_element,
    rotation_galois_element,
)
from .keys import KeyChain
from . import kernels as _kernels
from .keyswitch import hoisted_decompose, keyswitch, evalkey_accumulate, moddown_poly
from .params import CKKSParams
from .polynomial import EVAL, RnsPolynomial

# Scale drift tolerance for additions.  Chain primes sit within ~2**-12 of
# the nominal scale, so each rescale drifts the scale by ~2.4e-4; treating
# scales within 1% as equal introduces error far below the scheme noise.
_SCALE_RTOL = 1e-2


class CKKSContext:
    """Parameters + keys + encoder for one CKKS instance."""

    def __init__(self, params: CKKSParams, seed: int = 2025):
        self.params = params
        self.keychain = KeyChain(params, seed=seed)
        self.encoder = CKKSEncoder(params)
        self._rng = self.keychain.rng

    # ------------------------------------------------------------------ #

    def encode(self, values, scale: float = None, level: int = None) -> Plaintext:
        if scale is None:
            scale = self.params.scale_at_level(
                self.params.max_level if level is None else level
            )
        return self.encoder.encode(values, scale=scale, level=level)

    def decode(self, plaintext: Plaintext, length: int = None) -> np.ndarray:
        return self.encoder.decode(plaintext, length=length)

    def encrypt(self, plaintext: Plaintext) -> Ciphertext:
        params = self.params
        pk = self.keychain.public_key().at_level(plaintext.level)
        basis = plaintext.poly.basis
        n = params.ring_degree
        v = self._rng.small_poly(self._rng.ternary_secret(n), basis)
        e0 = self._rng.error_poly(basis, n, params.error_std)
        e1 = self._rng.error_poly(basis, n, params.error_std)
        c0 = v * pk.b + e0 + plaintext.poly
        c1 = v * pk.a + e1
        return Ciphertext([c0, c1], plaintext.scale)

    def decrypt(self, ct: Ciphertext) -> Plaintext:
        s = self.keychain.secret.poly(ct.basis)
        acc = ct.polys[0]
        s_power = None
        for c_k in ct.polys[1:]:
            s_power = s if s_power is None else s_power * s
            acc = acc + c_k * s_power
        return Plaintext(acc, ct.scale)

    def encrypt_values(self, values, scale: float = None, level: int = None) -> Ciphertext:
        return self.encrypt(self.encode(values, scale=scale, level=level))

    def decrypt_values(self, ct: Ciphertext, length: int = None) -> np.ndarray:
        return self.decode(self.decrypt(ct), length=length)


class Evaluator:
    """Homomorphic operations, including the keyswitch-based ones.

    With ``track_noise`` (implied by ``noise_budget_bits``) every
    operation propagates an analytic :class:`~repro.fhe.noise.
    NoiseEstimate` on the result's ``noise`` attribute.  When
    ``noise_budget_bits`` is set, any operation whose predicted slot
    error (log2) crosses it raises :class:`~repro.fhe.noise.
    NoiseBudgetExhausted` — the guardrail that stops a pipeline *before*
    it decrypts garbage (e.g. ``noise_budget_bits=-8`` demands the
    result stay accurate to better than 2^-8).
    """

    def __init__(self, context: CKKSContext, track_noise: bool = False,
                 noise_budget_bits: float = None):
        self.context = context
        self.params = context.params
        self.keychain = context.keychain
        self.encoder = context.encoder
        self.track_noise = track_noise or noise_budget_bits is not None
        self.noise_budget_bits = noise_budget_bits
        self._estimator = None
        if self.track_noise:
            # Imported here: noise.py imports this module at its top.
            from .noise import NoiseEstimator

            self._estimator = NoiseEstimator(self.params)

    # ------------------------------------------------------------------ #
    # Noise tracking

    def noise_of(self, ct: Ciphertext):
        """The tracked (or assumed-fresh) estimate for ``ct``; ``None``
        when the evaluator is not tracking."""
        if self._estimator is None:
            return None
        return self._estimator.for_ciphertext(ct)

    def _track(self, out: Ciphertext, estimate, operation: str) -> Ciphertext:
        if self._estimator is None:
            return out
        out.noise = estimate
        if self.noise_budget_bits is not None \
                and estimate.error_bits > self.noise_budget_bits:
            from .noise import NoiseBudgetExhausted

            raise NoiseBudgetExhausted(
                f"{operation} at level {out.level} pushes the expected "
                f"slot error to 2^{estimate.error_bits:.1f}, past the "
                f"budget of 2^{self.noise_budget_bits:.1f}",
                operation=operation, level=out.level,
                error_bits=estimate.error_bits,
                budget_bits=self.noise_budget_bits)
        return out

    # ------------------------------------------------------------------ #
    # Level / scale alignment

    def match_level(self, ct: Ciphertext, level: int, target_scale: float = None) -> Ciphertext:
        """Bring ``ct`` down to ``level`` with an *exact* target scale.

        Dropping limbs alone keeps the raw scale, which drifts off the
        target; instead one of the levels being dropped is spent on a
        multiplication by the constant 1 encoded at exactly the scale that
        lands the rescale on ``target_scale``.  No extra depth is consumed
        relative to a plain drop.
        """
        if target_scale is None:
            target_scale = self.params.scale_at_level(level)
        if ct.level < level:
            raise ValueError(f"cannot raise level {ct.level} -> {level}")
        if ct.level == level:
            return ct
        if math.isclose(ct.scale, target_scale, rel_tol=1e-12):
            return ct.at_level(level)
        ct = ct.at_level(level + 1)
        q = self.params.moduli[level]
        pt_scale = target_scale * q / ct.scale
        one = self._constant(1.0, pt_scale, level + 1)
        out = Ciphertext(self._times(ct.polys, one), ct.scale * pt_scale)
        return self.rescale(out)

    def _constant(self, value: complex, scale: float, level: int) -> np.ndarray:
        """A constant's plaintext residues at ``level``: the ``(level, 1)``
        column of a real one (:meth:`CKKSEncoder.constant_column`), else
        the full stack :meth:`CKKSEncoder.encode_constant` builds, its
        errors included."""
        column = self.encoder.constant_column(value, scale, level)
        if column is None:
            column = self.encoder.encode_constant(
                value, scale=scale, level=level).poly.data
        return column

    @staticmethod
    def _times(polys, residues: np.ndarray):
        """Each polynomial times a constant's residues (a column or a
        stack), in the evaluation domain: one pointwise product each."""
        out = []
        for poly in polys:
            poly = poly.to_eval()
            data = _kernels.pointwise_mulmod(poly.data, residues, poly.basis)
            out.append(RnsPolynomial._derived(poly.basis, data, EVAL))
        return out

    def _align(self, a: Ciphertext, b: Ciphertext, check_scale: bool = True):
        level = min(a.level, b.level)
        if check_scale:
            # Exact alignment for additions: spend a dropped level on a
            # scale-correcting constant multiplication where possible.
            if a.level > level:
                a = self.match_level(a, level, b.scale)
            elif b.level > level:
                b = self.match_level(b, level, a.scale)
        else:
            a = a.at_level(level)
            b = b.at_level(level)
        if check_scale and not math.isclose(a.scale, b.scale, rel_tol=_SCALE_RTOL):
            raise ValueError(
                f"scale mismatch: 2^{math.log2(a.scale):.6f} vs "
                f"2^{math.log2(b.scale):.6f}"
            )
        return a, b

    # ------------------------------------------------------------------ #
    # Linear ops

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        a, b = self._align(a, b)
        degree = max(a.degree, b.degree)
        polys = []
        for k in range(degree):
            if k < a.degree and k < b.degree:
                polys.append(a.polys[k] + b.polys[k])
            elif k < a.degree:
                polys.append(a.polys[k].copy())
            else:
                polys.append(b.polys[k].copy())
        out = Ciphertext(polys, a.scale)
        if self._estimator is not None:
            out = self._track(out, self._estimator.add(
                self.noise_of(a), self.noise_of(b)), "add")
        return out

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self.add(a, self.negate(b))

    def negate(self, a: Ciphertext) -> Ciphertext:
        out = Ciphertext([-p for p in a.polys], a.scale)
        out.noise = getattr(a, "noise", None)
        return out

    def add_plain(self, a: Ciphertext, pt: Plaintext) -> Ciphertext:
        level = min(a.level, pt.level)
        a = a.at_level(level)
        poly = pt.poly.drop_limbs(level)
        if not math.isclose(a.scale, pt.scale, rel_tol=_SCALE_RTOL):
            raise ValueError("plaintext scale must match ciphertext scale")
        polys = [a.polys[0] + poly] + [p.copy() for p in a.polys[1:]]
        return Ciphertext(polys, a.scale)

    def add_scalar(self, a: Ciphertext, value: complex) -> Ciphertext:
        """Add a constant to every slot: one pointwise sum with its
        residues, encoded at ``a``'s scale and level."""
        residues = self._constant(value, a.scale, a.level)
        c0 = a.polys[0].to_eval()
        first = RnsPolynomial._derived(c0.basis, _kernels.pointwise_addmod(
            c0.data, residues, c0.basis), EVAL)
        return Ciphertext([first] + [p.copy() for p in a.polys[1:]], a.scale)

    def mul_plain(self, a: Ciphertext, pt: Plaintext, rescale: bool = True) -> Ciphertext:
        level = min(a.level, pt.level)
        a = a.at_level(level)
        poly = pt.poly.drop_limbs(level)
        return self._scaled_by(a, [p * poly for p in a.polys], pt.scale,
                               rescale)

    def _scaled_by(self, a: Ciphertext, polys, scale: float,
                   rescale: bool) -> Ciphertext:
        """``a``'s polynomials times a plaintext at ``scale``, rescaled
        (and tracked) when asked."""
        out = Ciphertext(polys, a.scale * scale)
        if not rescale:
            return out
        estimate = (self._estimator.mul_plain(self.noise_of(a))
                    if self._estimator is not None else None)
        out = self.rescale(out)
        if estimate is not None:
            out = self._track(out, estimate, "mul_plain")
        return out

    def _invariant_plain_scale(self, ct: Ciphertext, target_scale: float = None) -> float:
        """Plaintext scale that lands ``mul_plain`` exactly on the invariant.

        Multiplying ``ct`` (scale ``s``, level ``l``) by a plaintext at
        scale ``S_{l-1} * q_{l-1} / s`` and rescaling produces exactly the
        invariant scale ``S_{l-1}``, independent of ``s``'s drift.
        """
        if ct.level <= 1:
            raise ValueError("cannot rescale below level 1")
        if target_scale is None:
            target_scale = self.params.scale_at_level(ct.level - 1)
        q = self.params.moduli[ct.level - 1]
        return target_scale * q / ct.scale

    def mul_values(self, a: Ciphertext, values, rescale: bool = True,
                   pt_scale: float = None) -> Ciphertext:
        """Multiply by a plaintext vector, staying on the scale invariant.

        ``pt_scale`` overrides the plaintext encoding scale (bootstrapping
        threads non-standard scales through its linear transforms).
        """
        if pt_scale is None:
            pt_scale = (
                self._invariant_plain_scale(a)
                if rescale
                else self.params.scale_at_level(a.level)
            )
        pt = self.encoder.encode(values, scale=pt_scale, level=a.level)
        return self.mul_plain(a, pt, rescale=rescale)

    def mul_scalar(self, a: Ciphertext, value: complex, rescale: bool = True) -> Ciphertext:
        """Multiply every slot by a constant, on the scale invariant.

        A real constant is one residue per limb
        (:meth:`CKKSEncoder.constant_column`), so the product is one
        pointwise multiply by an ``(L, 1)`` column per polynomial — no
        embedding, no NTT — and equals :meth:`mul_plain` by
        :meth:`CKKSEncoder.encode_constant` bit for bit.
        """
        scale = (self._invariant_plain_scale(a) if rescale
                 else self.params.scale_at_level(a.level))
        residues = self._constant(value, scale, a.level)
        return self._scaled_by(a, self._times(a.polys, residues), scale,
                               rescale)

    # ------------------------------------------------------------------ #
    # Multiplication

    def mul_no_relin(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Tensor product: produces a degree-3 ciphertext at scale s_a*s_b."""
        # Align levels, steering the higher operand onto the invariant so
        # the product rescales back onto it too.
        level = min(a.level, b.level)
        if a.level > level:
            a = self.match_level(a, level)
        elif b.level > level:
            b = self.match_level(b, level)
        if a.degree != 2 or b.degree != 2:
            raise ValueError("multiplication requires canonical (degree-2) inputs")
        a0, a1 = a.polys
        b0, b1 = b.polys
        d0 = a0 * b0
        d1 = a0 * b1 + a1 * b0
        d2 = a1 * b1
        return Ciphertext([d0, d1, d2], a.scale * b.scale)

    def relinearize(self, ct: Ciphertext) -> Ciphertext:
        """Fold the quadratic component back to degree 2 via keyswitching."""
        if ct.degree == 2:
            return ct
        if ct.degree != 3:
            raise ValueError(f"cannot relinearize degree-{ct.degree} ciphertext")
        evk = self.keychain.relin_key(ct.level)
        f0, f1 = keyswitch(ct.polys[2], evk, self.params)
        return Ciphertext([ct.polys[0] + f0, ct.polys[1] + f1], ct.scale)

    def mul(self, a: Ciphertext, b: Ciphertext, rescale: bool = True) -> Ciphertext:
        estimate = None
        if self._estimator is not None and rescale:
            # The analytic model covers mul + relinearize + rescale as
            # one step; track it on the final (rescaled) result only.
            estimate = self._estimator.mul(self.noise_of(a),
                                           self.noise_of(b))
        out = self.relinearize(self.mul_no_relin(a, b))
        if not rescale:
            return out
        out = self.rescale(out)
        if estimate is not None:
            out = self._track(out, estimate, "mul")
        return out

    def square(self, a: Ciphertext, rescale: bool = True) -> Ciphertext:
        return self.mul(a, a, rescale=rescale)

    # ------------------------------------------------------------------ #
    # Rescaling

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Drop the last limb, dividing the plaintext (and scale) by ``q_last``.

        RNS rescale: for each remaining limb ``j``,
        ``c'_j = (c_j - [c]_{q_last}) * q_last^{-1} mod q_j`` with the
        centered representative of the last limb.  Every polynomial of
        ``ct`` goes through one :func:`repro.fhe.kernels.rescale` call.
        """
        if ct.level <= 1:
            raise ValueError("cannot rescale a level-1 ciphertext")
        basis = ct.basis
        q_last = basis[-1]
        new_basis = basis[:-1]
        data = _kernels.rescale([p.to_eval().data for p in ct.polys], basis)
        new_polys = [RnsPolynomial._derived(new_basis, stack, EVAL)
                     for stack in data]
        out = Ciphertext(new_polys, ct.scale / q_last)
        if self._estimator is not None and getattr(ct, "noise", None) is not None:
            # Bare rescales of tracked values propagate; the composite
            # ops (mul/mul_plain) overwrite this with their own model.
            out = self._track(out, self._estimator.rescale(ct.noise),
                              "rescale")
        return out

    # ------------------------------------------------------------------ #
    # Rotation / conjugation

    def _apply_galois(self, ct: Ciphertext, galois_element: int) -> Ciphertext:
        if ct.degree != 2:
            raise ValueError("rotate/conjugate require canonical ciphertexts")
        c0 = ct.polys[0].automorphism(galois_element)
        c1 = ct.polys[1].automorphism(galois_element)
        evk = self.keychain.galois_key(galois_element, ct.level)
        f0, f1 = keyswitch(c1, evk, self.params)
        out = Ciphertext([c0 + f0, f1], ct.scale)
        if self._estimator is not None:
            out = self._track(out, self._estimator.rotate(
                self.noise_of(ct)), "rotate")
        return out

    def rotate(self, ct: Ciphertext, rotation: int) -> Ciphertext:
        """Cyclically shift slots left by ``rotation``."""
        if rotation % self.params.slot_count == 0:
            return ct.copy()
        k = rotation_galois_element(rotation, self.params.ring_degree)
        return self._apply_galois(ct, k)

    def conjugate(self, ct: Ciphertext) -> Ciphertext:
        return self._apply_galois(ct, conjugation_galois_element(self.params.ring_degree))

    def rotate_hoisted(self, ct: Ciphertext, rotations: Sequence[int]) -> Dict[int, Ciphertext]:
        """Rotate one ciphertext by many amounts, sharing the mod-up.

        This is the "multiple rotations on a single ciphertext" pattern of
        Section 4.3.1: the expensive digit decomposition + mod-up of ``c1``
        runs once; each rotation then applies a cheap automorphism to the
        decomposition and its own evaluation-key inner product.
        """
        if ct.degree != 2:
            raise ValueError("hoisted rotation requires a canonical ciphertext")
        params = self.params
        level = ct.level
        partition = params.digit_partition(level)
        active = ct.basis
        ext = params.extension_moduli
        decomposed = hoisted_decompose(ct.polys[1], partition, params)
        out: Dict[int, Ciphertext] = {}
        for rotation in rotations:
            if rotation % params.slot_count == 0:
                out[rotation] = ct.copy()
                continue
            k = rotation_galois_element(rotation, params.ring_degree)
            rotated_digits = [d.automorphism(k) for d in decomposed]
            evk = self.keychain.galois_key(k, level, partition)
            f0_ext, f1_ext = evalkey_accumulate(rotated_digits, evk)
            f0 = moddown_poly(f0_ext, active, ext)
            f1 = moddown_poly(f1_ext, active, ext)
            c0 = ct.polys[0].automorphism(k)
            rotated = Ciphertext([c0 + f0, f1], ct.scale)
            if self._estimator is not None:
                rotated = self._track(rotated, self._estimator.rotate(
                    self.noise_of(ct)), "rotate_hoisted")
            out[rotation] = rotated
        return out

    # ------------------------------------------------------------------ #
    # Aggregates

    def add_many(self, cts: Iterable[Ciphertext]) -> Ciphertext:
        cts = list(cts)
        if not cts:
            raise ValueError("add_many of empty sequence")
        acc = cts[0]
        for ct in cts[1:]:
            acc = self.add(acc, ct)
        return acc
