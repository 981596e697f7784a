"""CKKS parameter sets.

A parameter set fixes the polynomial ring, the RNS prime chain, the
keyswitching digit count, and the encoding scale.  Two families are used in
this repository:

* **Functional parameters** (small ``N``, e.g. 1024-8192): used by the
  functional CKKS library and the ISA emulator, where real numpy data flows
  through every kernel.
* **Architectural parameters** (``N = 64K``, 28-bit datapath, ``L = 51`` at
  the top of the bootstrap chain): used *symbolically* by the compiler and
  the cycle-level simulator.  No polynomial data is materialized at this
  size; only limb counts, digit structure, and byte volumes matter.

The paper evaluates at 128-bit security with ``N = 64K``; the functional
sizes here trade security for tractability while preserving the exact
algebra (see DESIGN.md section 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

from .primes import generate_primes

#: A keyswitching digit layout: one tuple of limb *indices* per digit.
Partition = Tuple[Tuple[int, ...], ...]


def digit_partition(level: int, num_digits: int) -> Partition:
    """Split limb indices ``0..level-1`` into contiguous digits.

    The last digit may be smaller.  This is the digit layout used by
    sequential keyswitching, input broadcast and CiFHER; output aggregation
    uses :func:`modular_partition`.
    """
    size = math.ceil(level / min(num_digits, level))
    return tuple(
        tuple(range(start, min(start + size, level)))
        for start in range(0, level, size)
    )


def modular_partition(level: int, num_chips: int) -> Partition:
    """The paper's limb placement: chip ``c`` holds ``{i : i mod n == c}``.

    Output aggregation takes these resident sets as its digits, so a chip
    mods up what it already holds (chips past ``level`` hold nothing).
    """
    return tuple(
        tuple(i for i in range(level) if i % num_chips == c)
        for c in range(num_chips)
    )


def partition_from_sig(sig: str, level: int, params) -> Partition:
    """Decode the partition signature carried by evalkey symbols.

    ``"c<d>"`` is ``params.digit_partition(level, d)`` (contiguous digits),
    ``"m<n>"`` the modular partition over ``n`` chips.
    """
    kind, count = sig[:1], int(sig[1:])
    if kind == "m":
        return modular_partition(level, count)
    if kind == "c":
        return params.digit_partition(level, count)
    raise ValueError(f"unknown partition signature {sig!r}")


@dataclass(frozen=True)
class CKKSParams:
    """Immutable CKKS parameter set.

    Attributes:
        ring_degree: polynomial ring degree ``N`` (power of two).
        moduli: the ciphertext prime chain ``(q_0, ..., q_{L-1})``; a fresh
            ciphertext carries all ``L`` limbs and loses one per rescale.
        extension_moduli: the temporary extension basis ``P`` used by
            keyswitching (the paper's ``E``).
        num_digits: keyswitching digit count ``d`` (the paper's ``dnum``).
        scale: encoding scale Delta.
    """

    ring_degree: int
    moduli: Tuple[int, ...]
    extension_moduli: Tuple[int, ...]
    num_digits: int
    scale: float
    error_std: float = 3.2
    secret_hamming_weight: int = 0  # 0 = dense ternary secret
    level_scales: Tuple[float, ...] = ()

    def __post_init__(self):
        if self.ring_degree & (self.ring_degree - 1):
            raise ValueError("ring_degree must be a power of two")
        if self.num_digits < 1:
            raise ValueError("num_digits must be >= 1")
        if set(self.moduli) & set(self.extension_moduli):
            raise ValueError("ciphertext and extension moduli must be disjoint")

    @property
    def slot_count(self) -> int:
        """Number of complex plaintext slots (``N / 2``)."""
        return self.ring_degree // 2

    @property
    def max_level(self) -> int:
        """Number of limbs of a fresh ciphertext (the paper's level ``l``)."""
        return len(self.moduli)

    @property
    def limb_bytes(self) -> int:
        """Bytes of one limb at the architectural word width (4 B/coeff)."""
        return 4 * self.ring_degree

    def scale_at_level(self, level: int) -> float:
        """The exact-scale-management invariant scale for ``level`` limbs.

        A ciphertext at level ``l`` is kept at scale ``S_l`` where
        ``S_L = scale`` and ``S_{l-1} = S_l^2 / q_{l-1}`` — exactly the
        scale produced by multiplying two invariant ciphertexts and
        rescaling.  Keeping every ciphertext on the invariant makes all
        additions scale-exact (no drift error).
        """
        if not self.level_scales:
            return self.scale
        if not 1 <= level <= self.max_level:
            raise ValueError(f"level {level} out of range 1..{self.max_level}")
        return self.level_scales[level - 1]

    def basis_at_level(self, level: int) -> Tuple[int, ...]:
        """The active prime basis of a ciphertext holding ``level`` limbs."""
        if not 1 <= level <= self.max_level:
            raise ValueError(f"level {level} out of range 1..{self.max_level}")
        return self.moduli[:level]

    def digit_partition(self, level: int, num_digits: int = None) -> Partition:
        """:func:`digit_partition` with this parameter set's digit count."""
        return digit_partition(
            level, self.num_digits if num_digits is None else num_digits)


def _order_chain_greedily(pool, levels: int, scale: float):
    """Assign pool primes to chain positions to keep level scales on target.

    Walking levels top-down, the invariant scale evolves as
    ``S_{l-1} = S_l^2 / q_{l-1}``; greedily picking the pool prime closest
    to ``S_l^2 / scale`` keeps every ``S_l`` within a few ppm of ``scale``
    (the choice is self-correcting).  Returns the ordered chain primes for
    positions ``levels-1 .. 1`` and the resulting per-level scale table.
    """
    pool = list(pool)
    chain = [None] * (levels - 1)  # positions 1 .. levels-1
    scales = [0.0] * levels  # scales[l-1] = S_l
    s = scale
    scales[levels - 1] = s
    for position in range(levels - 1, 0, -1):
        target = s * s / scale
        best = min(pool, key=lambda q: abs(q - target))
        pool.remove(best)
        chain[position - 1] = best
        s = s * s / best
        scales[position - 1] = s
    return chain, scales


def make_params(
    ring_degree: int = 1024,
    levels: int = 8,
    prime_bits: int = 28,
    num_digits: int = 3,
    extension_count: int = None,
    scale_bits: int = None,
    secret_hamming_weight: int = 0,
) -> CKKSParams:
    """Construct a parameter set with freshly generated NTT-friendly primes.

    ``extension_count`` defaults to ``ceil(levels / num_digits)`` so that the
    extension product ``P`` dominates every digit product (the extension
    primes are wider than the chain primes, giving noise headroom).  Chain
    primes are assigned to levels greedily to keep the exact-scale
    invariant flat (see :func:`_order_chain_greedily`).
    """
    if extension_count is None:
        extension_count = math.ceil(levels / num_digits)
    # The first modulus and the extension primes get extra width: q_0 for
    # decryption headroom, P for keyswitching noise headroom.
    wide_bits = 31
    wide = generate_primes(1 + extension_count, wide_bits, ring_degree)
    q0, ext = wide[0], tuple(wide[1:])
    scale = 2.0 ** (scale_bits if scale_bits is not None else prime_bits)
    # Oversample the pool: half the primes from below the scale, half from
    # above, so the greedy level assignment can keep scales centered.
    slack = 8
    below = generate_primes(levels - 1 + slack, prime_bits, ring_degree,
                            exclude=tuple(wide))
    # The greedy ladder consumes above-scale primes about as often as
    # below-scale ones; a pool capped at `slack` above-scale primes loses
    # its self-correction on deep chains and S_l drifts doubly
    # exponentially (overflowing to inf by L ~ 50).  Extra candidates are
    # strictly farther from the scale than the first `slack`, so shallow
    # chains keep picking the same primes as before.
    above = generate_primes(max(slack, levels - 1), prime_bits + 1,
                            ring_degree, exclude=tuple(wide) + tuple(below),
                            descending=False)
    pool = below + [p for p in above if p < 2 * scale]
    chain, level_scales = _order_chain_greedily(pool, levels, scale)
    if max(level_scales) > 2 * scale or min(level_scales) < scale / 2:
        raise ValueError(
            f"level-scale ladder drifted off the invariant "
            f"(levels={levels}, prime_bits={prime_bits}): widen the prime pool"
        )
    return CKKSParams(
        ring_degree=ring_degree,
        moduli=(q0, *chain),
        extension_moduli=ext,
        num_digits=num_digits,
        scale=scale,
        secret_hamming_weight=secret_hamming_weight,
        level_scales=tuple(level_scales),
    )


def toy_params(levels: int = 6, ring_degree: int = 256) -> CKKSParams:
    """Tiny parameters for fast unit tests (no security)."""
    return make_params(ring_degree=ring_degree, levels=levels, prime_bits=28,
                       num_digits=2)


# Architectural parameters used symbolically by the compiler/simulator: the
# paper's N = 64K ring with the bootstrap chain topping out at L = 51 limbs
# and four-digit keyswitching (digit size <= 13, matching the BCU's 13-input
# limit).  Primes are *placeholders* (never used for arithmetic at this size).
ARCH_RING_DEGREE = 65536
ARCH_MAX_LEVEL = 51
ARCH_NUM_DIGITS = 4
ARCH_LIMB_BYTES = 4 * ARCH_RING_DEGREE  # 28-bit words stored in 4 B lanes


@dataclass(frozen=True)
class ArchParams:
    """Scheme-shape parameters for symbolic compilation at datacenter scale.

    Carries everything the compiler and simulator need (limb counts, digit
    structure, byte volumes) without materializing primes or data.
    """

    ring_degree: int = ARCH_RING_DEGREE
    max_level: int = ARCH_MAX_LEVEL
    num_digits: int = ARCH_NUM_DIGITS
    extension_count: int = field(default=13)

    @property
    def limb_bytes(self) -> int:
        return 4 * self.ring_degree

    @property
    def slot_count(self) -> int:
        return self.ring_degree // 2

    def digit_partition(self, level: int, num_digits: int = None) -> Partition:
        """:func:`digit_partition` with this parameter set's digit count."""
        return digit_partition(
            level, self.num_digits if num_digits is None else num_digits)
