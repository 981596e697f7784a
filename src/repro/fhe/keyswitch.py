"""Sequential (single-chip) hybrid keyswitching — the reference algorithm.

This is Figure 4 of the paper: digit-decompose the input polynomial, mod-up
each digit to the extended basis ``Q u E``, inner-product with the
evaluation key, and mod-down back to ``Q``.

The module deliberately exposes the intermediate steps (``modup_digit``,
``evalkey_accumulate``, ``moddown_poly``) because the parallel algorithms
re-order and re-partition exactly these pieces: the compiler's limb
lowering emits one routine per step, and
``tests/core/test_keyswitch_oracle.py`` checks every compiled keyswitch
bit for bit against these functions composed in the compiled order.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .keys import EvalKey
from .params import CKKSParams
from .polynomial import COEFF, RnsPolynomial
from .rns import mod_down, mod_up


def modup_digit(
    d_coeff: RnsPolynomial,
    digit_indices: Sequence[int],
    extended_basis: Tuple[int, ...],
) -> RnsPolynomial:
    """Mod-up one digit of a coefficient-domain polynomial to ``Q u E``.

    Returns the extended digit in the **evaluation** domain, ready for the
    evaluation-key inner product.
    """
    if d_coeff.domain != COEFF:
        raise ValueError("mod-up requires the coefficient domain")
    digit_primes = tuple(d_coeff.basis[i] for i in digit_indices)
    limbs = d_coeff.data[list(digit_indices)]
    extended = mod_up(limbs, digit_primes, extended_basis)
    return RnsPolynomial(extended_basis, extended, COEFF).to_eval()


def evalkey_accumulate(
    extended_digits: List[RnsPolynomial], evk: EvalKey
) -> Tuple[RnsPolynomial, RnsPolynomial]:
    """Accumulate ``sum_i digit_i * evk_i`` for both key components."""
    if len(extended_digits) != evk.num_digits:
        raise ValueError(
            f"{len(extended_digits)} digits vs {evk.num_digits} key digits"
        )
    f0 = None
    f1 = None
    for digit_poly, (b_i, a_i) in zip(extended_digits, evk.digits):
        t0 = digit_poly * b_i
        t1 = digit_poly * a_i
        f0 = t0 if f0 is None else f0 + t0
        f1 = t1 if f1 is None else f1 + t1
    return f0, f1


def moddown_poly(
    f_ext: RnsPolynomial, active_basis: Tuple[int, ...], ext_basis: Tuple[int, ...]
) -> RnsPolynomial:
    """Mod-down one polynomial from ``Q u E`` back to ``Q`` (eval domain)."""
    coeff = f_ext.to_coeff()
    reduced = mod_down(coeff.data, active_basis, ext_basis)
    return RnsPolynomial(active_basis, reduced, COEFF).to_eval()


def keyswitch(
    d: RnsPolynomial, evk: EvalKey, params: CKKSParams
) -> Tuple[RnsPolynomial, RnsPolynomial]:
    """Switch polynomial ``d`` (multiplying ``s_src``) to key ``s``.

    Returns the pair ``(f0, f1)`` over the active basis such that
    ``f0 + f1*s ~ d*s_src`` (up to keyswitching noise).  ``evk`` must have
    been generated at ``d``'s level with the partition it carries.
    """
    active = d.basis
    if evk.level != len(active):
        raise ValueError(
            f"evaluation key level {evk.level} != polynomial level {len(active)}"
        )
    ext = params.extension_moduli
    extended_basis = active + ext
    d_coeff = d.to_coeff()
    extended_digits = [
        modup_digit(d_coeff, digit, extended_basis) for digit in evk.partition
    ]
    f0_ext, f1_ext = evalkey_accumulate(extended_digits, evk)
    return moddown_poly(f0_ext, active, ext), moddown_poly(f1_ext, active, ext)


def hoisted_decompose(
    d: RnsPolynomial, partition, params: CKKSParams
) -> List[RnsPolynomial]:
    """The shared mod-up of hoisted rotations.

    Computes the extended digits of ``d`` once; callers then apply (cheap)
    automorphisms to the decomposition per rotation instead of re-running
    the expensive mod-up.  Automorphism commutes with base conversion up to
    the mod-up representative (a bounded multiple of the digit modulus per
    coefficient), so hoisting is semantics-preserving — the difference is
    ordinary keyswitching noise.
    """
    active = d.basis
    extended_basis = active + params.extension_moduli
    d_coeff = d.to_coeff()
    return [modup_digit(d_coeff, digit, extended_basis) for digit in partition]
