"""Homomorphic linear algebra: diagonal-method matrix-vector products.

The workhorse of encrypted ML — and of bootstrapping's CoeffToSlot /
SlotToCoeff — is the square matrix-vector product over the slots:

    y = M @ x   ==>   y = sum_d diag_d(M) * rot(x, d)

The baby-step/giant-step (BSGS) variant factors the ``n`` rotations into
``n1`` inner ("baby") and ``n2`` outer ("giant") rotations with
``n = n1 * n2``, reducing the keyswitch count from ``n`` to about
``n1 + n2`` — this is the BSGS pattern whose communication the Cinnamon
keyswitch pass collapses to O(1) broadcasts/aggregations (Section 4.3.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .ciphertext import Ciphertext
from .encoding import Plaintext
from .evaluator import Evaluator


def matrix_diagonals(matrix: np.ndarray) -> Dict[int, np.ndarray]:
    """Extract the generalized diagonals ``diag_d[i] = M[i, (i+d) % n]``.

    Zero diagonals are omitted (sparse transform matrices like the
    bootstrapping DFT factors have very few nonzero diagonals).
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    diagonals: Dict[int, np.ndarray] = {}
    rows = np.arange(n)
    for d in range(n):
        diag = matrix[rows, (rows + d) % n]
        if np.any(np.abs(diag) > 1e-14):
            diagonals[d] = diag
    return diagonals


def pad_matrix_block(matrix: np.ndarray, block: int = None) -> np.ndarray:
    """Embed a (possibly rectangular) matrix into a ``block x block`` square.

    The pad-and-mask trick for non-square matvecs: zero rows beyond
    ``rows`` leave the output's tail slots at exactly zero, and zero
    columns beyond ``cols`` mask out whatever junk the input vector
    carries past its valid width — so a padded matvec composes safely
    with other padded layers without explicit mask multiplications.

    ``block`` defaults to the next power of two covering both dimensions
    (rotation amounts then stay power-of-two friendly).
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    rows, cols = matrix.shape
    if block is None:
        block = 1 << max(0, int(math.ceil(math.log2(max(rows, cols)))))
    if block < max(rows, cols):
        raise ValueError(
            f"block {block} cannot hold a {rows}x{cols} matrix")
    if matrix.shape == (block, block):
        return matrix
    padded = np.zeros((block, block), dtype=matrix.dtype)
    padded[:rows, :cols] = matrix
    return padded


def select_baby_steps(offsets, n: int) -> int:
    """Rotation-count-minimizing BSGS split for a set of diagonal offsets.

    The classic ``n1 ~ sqrt(n)`` split is optimal for dense matrices, but
    the structured matrices the :mod:`repro.nn` lowering produces (im2col
    convolutions, block-diagonal batched linears) populate only a few
    generalized diagonals.  This picks the power-of-two ``n1`` minimizing
    the keyswitch count ``|babies != 0| + |giants != 0|`` for the
    diagonals actually present.
    """
    offsets = sorted({int(d) % n for d in offsets})
    if not offsets:
        raise ValueError("no diagonal offsets given")
    best_n1, best_cost = 1, None
    n1 = 1
    while n1 <= n:
        babies = {d % n1 for d in offsets} - {0}
        giants = {d // n1 for d in offsets} - {0}
        cost = len(babies) + len(giants)
        if best_cost is None or cost < best_cost:
            best_n1, best_cost = n1, cost
        n1 <<= 1
    return best_n1


def plain_matvec_reference(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Oracle for the slot semantics of :func:`bsgs_matvec`.

    Works for rectangular matrices too: an ``m x k`` matrix against the
    first ``k`` entries of ``x`` yields the ``m`` outputs that
    :func:`bsgs_matvec` places in the leading slots of each block (the
    padded tail decodes to zero).
    """
    matrix = np.asarray(matrix)
    x = np.asarray(x)
    cols = matrix.shape[1]
    if len(x) < cols:
        raise ValueError(f"input of length {len(x)} shorter than the "
                         f"{cols} matrix columns")
    return matrix @ x[:cols]


@dataclass(frozen=True)
class EncodedMatrix:
    """A matrix's BSGS diagonals as :func:`bsgs_matvec` multiplies by them:
    each rolled by its giant step, tiled across the slots and encoded at
    ``level``.  ``giants[j][i]`` is the plaintext of diagonal
    ``j * baby_steps + i``."""

    level: int
    baby_steps: int
    giants: Dict[int, Dict[int, Plaintext]]


def encode_matrix(
    ev: Evaluator,
    level: int,
    matrix: np.ndarray = None,
    diagonals: Dict[int, np.ndarray] = None,
    baby_steps: int = None,
    pt_scale: float = None,
    block: int = None,
) -> EncodedMatrix:
    """Encode a matrix for :func:`bsgs_matvec` on ciphertexts at ``level``
    (the arguments are :func:`bsgs_matvec`'s).  Reused, it spares each
    product the encoding of every diagonal."""
    if diagonals is None:
        if matrix is None:
            raise ValueError("need a matrix or its diagonals")
        matrix = np.asarray(matrix, dtype=np.complex128)
        if block is not None or matrix.shape[0] != matrix.shape[1]:
            matrix = pad_matrix_block(matrix, block)
        diagonals = matrix_diagonals(matrix)
    if not diagonals:
        raise ValueError("matrix has no nonzero diagonals")
    n = len(next(iter(diagonals.values())))
    slots = ev.params.slot_count
    if slots % n:
        raise ValueError(f"matrix dimension {n} must divide slot count {slots}")

    if baby_steps == "auto":
        baby_steps = select_baby_steps(diagonals, n)
    elif baby_steps is None:
        baby_steps = 1 << max(0, math.ceil(math.log2(math.sqrt(n))))
    n1 = min(baby_steps, n)
    if pt_scale is None:
        pt_scale = ev.params.scale_at_level(level)

    # Group diagonals by giant step: d = j*n1 + i.
    giants: Dict[int, Dict[int, Plaintext]] = {}
    for d, diag in diagonals.items():
        j, i = divmod(d, n1)
        # Giant-step correction: rot(diag * rot(x, d), 0) decomposes as
        # rot_{j*n1}( rot_{-j*n1}(diag) * rot_i(x) ).
        tiled = np.tile(np.roll(diag, j * n1), slots // n)
        giants.setdefault(j, {})[i] = ev.encoder.encode(
            tiled, scale=pt_scale, level=level)
    return EncodedMatrix(level, n1, giants)


def bsgs_matvec(
    ev: Evaluator,
    ct: Ciphertext,
    matrix: np.ndarray = None,
    diagonals: Dict[int, np.ndarray] = None,
    baby_steps: int = None,
    pt_scale: float = None,
    rescales: int = 1,
    block: int = None,
    encoded: EncodedMatrix = None,
) -> Ciphertext:
    """Homomorphic ``y = M @ x`` over the first ``n`` slots.

    ``n`` (the matrix dimension) must divide the slot count.  The input is
    assumed to be replicated modulo ``n`` across the slots when ``n`` is
    smaller than the slot count (encrypt ``np.tile(x, slots//n)``), which
    makes plain ``np.roll``-style rotation semantics exact.

    Either a dense ``matrix``, a precomputed ``diagonals`` dict or the
    matrix already ``encoded`` at the ciphertext's level
    (:func:`encode_matrix`) may be given.  A rectangular matrix is
    padded-and-masked into a ``block``-sized square (defaulting to the
    covering power of two; see :func:`pad_matrix_block`): the result lands
    in the leading ``rows`` slots of each block with an exactly-zero tail,
    and junk in the input slots past ``cols`` is masked out by the zero pad
    columns.  Uses hoisted rotations for the baby steps — exactly the
    "multiple rotations on one ciphertext" pattern the Cinnamon compiler
    optimizes with input-broadcast keyswitching.

    ``pt_scale`` overrides the diagonal encoding scale and ``rescales``
    sets how many limbs the product consumes (bootstrapping's CoeffToSlot
    uses a wide plaintext scale with two rescales to bridge its
    non-standard ciphertext scale back onto the level invariant).
    """
    if encoded is None:
        encoded = encode_matrix(ev, ct.level, matrix, diagonals, baby_steps,
                                pt_scale, block)
    elif encoded.level != ct.level:
        raise ValueError(f"matrix encoded at level {encoded.level}, "
                         f"ciphertext at level {ct.level}")
    giants = encoded.giants
    needed_babies = sorted({i for g in giants.values() for i in g})
    rotated = ev.rotate_hoisted(ct, needed_babies)

    result = None
    for j in sorted(giants):
        inner = None
        for i, pt in giants[j].items():
            term = ev.mul_plain(rotated[i], pt, rescale=False)
            inner = term if inner is None else ev.add(inner, term)
        inner = ev.rescale(inner)
        if j:
            inner = ev.rotate(inner, j * encoded.baby_steps)
        result = inner if result is None else ev.add(result, inner)
    for _ in range(rescales - 1):
        result = ev.rescale(result)
    return result
