"""CKKS bootstrapping: refreshing the multiplicative budget.

The pipeline follows Cheon et al. / Han-Ki (the paper's [13, 30]):

1. **ModRaise** — a ciphertext at level 1 (single modulus ``q_0``) is
   re-interpreted over the full chain.  Its plaintext becomes
   ``t = m + q_0 * I`` for a small overflow polynomial ``I`` whose size is
   governed by the secret key density.
2. **CoeffToSlot** — homomorphic linear maps move the *coefficients* of
   ``t`` into the slots (two BSGS matrix-vector products with halves of the
   conjugate-transposed embedding matrix, plus conjugations), folding in a
   division by ``q_0`` so slot values land in ``[-K, K]``.
3. **EvalMod** — the modular reduction ``t mod q_0`` is approximated by
   ``q_0/(2*pi) * sin(2*pi*t/q_0)``, evaluated as a Chebyshev polynomial.
4. **SlotToCoeff** — the inverse linear map returns the slots to
   coefficient positions, yielding a high-level encryption of ``m``.

Bootstrapping consumes part of the refreshed budget itself (the paper's
Bootstrap-13 refreshes 13 usable levels); the remainder is returned to the
application.  Accuracy here is limited by the word-sized scale
(``Delta = 2^28``): expect 2-3 decimal digits, which is the documented
fidelity of this functional substrate (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .ciphertext import Ciphertext
from .encoding import get_geometry
from .evaluator import CKKSContext, Evaluator
from .linear import EncodedMatrix, bsgs_matvec, encode_matrix
from .modmath import centered
from .polyeval import ChebyshevEvaluator
from .polynomial import COEFF, RnsPolynomial
from .rns import integers_to_rns


@dataclass
class BootstrapConfig:
    """Tuning knobs for the bootstrapping pipeline.

    ``eval_mod_interval`` (the paper's ``K``) must cover the overflow
    polynomial ``I``; with a sparse secret of Hamming weight ``h`` its
    coefficients concentrate within ``~4*sqrt(h/12)``.
    """

    eval_mod_degree: int = 119
    eval_mod_interval: float = 12.0
    message_scale_bits: int = 26
    double_angles: int = 0  # Han-Ki: r cosine doublings shrink the degree

    @property
    def message_scale(self) -> float:
        return 2.0 ** self.message_scale_bits


def embedding_matrix(ring_degree: int) -> np.ndarray:
    """The canonical embedding matrix ``U[j, i] = zeta^(i * 5^j)``."""
    geom = get_geometry(ring_degree)
    exps = np.outer(geom.rot_exponents, np.arange(ring_degree))
    return np.exp(1j * np.pi * (exps % (2 * ring_degree)) / ring_degree)


class Bootstrapper:
    """Refreshes level-1 ciphertexts back to a high level."""

    def __init__(self, context: CKKSContext, config: BootstrapConfig = None):
        self.context = context
        self.params = context.params
        self.ev = Evaluator(context)
        self.cheb = ChebyshevEvaluator(self.ev)
        self.config = config or BootstrapConfig()
        if self.params.secret_hamming_weight == 0:
            raise ValueError(
                "bootstrapping requires a sparse secret "
                "(set secret_hamming_weight in the parameters)"
            )
        n = self.params.ring_degree
        half = n // 2
        u = embedding_matrix(n)
        u_h = np.conj(u.T)  # N x N/2
        q0 = self.params.moduli[0]
        s_in = self.config.message_scale
        # ModRaise declares the raised scale to be q0 * s_in — an *exact*,
        # noise-free division of the plaintext by q0 — so CoeffToSlot only
        # needs the s_in/N factor to land slot values on t_i/q0 in [-K, K].
        self._cts_lo = (s_in / n) * u_h[:half, :]
        self._cts_hi = (s_in / n) * u_h[half:, :]
        # SlotToCoeff matrices: column halves of U, scaled to undo the /q0.
        self._stc_lo = (q0 / s_in) * u[:, :half]
        self._stc_hi = (q0 / s_in) * u[:, half:]
        # Each matrix encoded for the last (level, pt_scale) it ran at:
        # every bootstrap of same-scale inputs reuses the diagonals.
        self._encoded: Dict[str, Tuple[tuple, EncodedMatrix]] = {}

    # ------------------------------------------------------------------ #

    def encrypt_for_bootstrap(self, values) -> Ciphertext:
        """Encrypt at level 1 with the bootstrap message scale.

        This mimics a ciphertext that has exhausted its multiplicative
        budget and is about to be refreshed.
        """
        pt = self.context.encoder.encode(
            values, scale=self.config.message_scale, level=1
        )
        return self.context.encrypt(pt)

    def to_bootstrap_entry(self, ct: Ciphertext) -> Ciphertext:
        """Drop a ciphertext to level 1 (budget exhausted)."""
        return ct.at_level(1)

    # ------------------------------------------------------------------ #
    # Pipeline stages (public so tests and examples can exercise them)

    def mod_raise(self, ct: Ciphertext) -> Ciphertext:
        """Re-interpret a level-1 ciphertext over the full modulus chain."""
        if ct.level != 1:
            raise ValueError("mod raise expects a level-1 ciphertext")
        params = self.params
        q0 = params.moduli[0]
        full = params.moduli
        polys = []
        for poly in ct.polys:
            coeffs = centered(poly.to_coeff().data[0], q0)
            data = integers_to_rns(coeffs, full)
            polys.append(RnsPolynomial(full, data, COEFF).to_eval())
        # Declaring the scale as q0 * s divides the plaintext t = m + q0*I
        # by q0 exactly, with zero noise — the slots now read t/q0.
        return Ciphertext(polys, ct.scale * q0)

    def coeff_to_slot(self, ct: Ciphertext) -> Tuple[Ciphertext, Ciphertext]:
        """Move coefficients into slots; outputs decode to ``t/q0`` halves.

        The input carries the non-standard ModRaise scale ``q0 * s_in``; a
        wide plaintext scale plus a double rescale bridges the output back
        onto the per-level scale invariant.
        """
        ev = self.ev
        params = self.params
        level = ct.level
        target = params.scale_at_level(level - 2)
        pt_scale = (
            target * params.moduli[level - 1] * params.moduli[level - 2] / ct.scale
        )
        w_lo = self._matvec(ct, "_cts_lo", pt_scale, rescales=2)
        w_hi = self._matvec(ct, "_cts_hi", pt_scale, rescales=2)
        t_lo = ev.add(w_lo, ev.conjugate(w_lo))
        t_hi = ev.add(w_hi, ev.conjugate(w_hi))
        return t_lo, t_hi

    def eval_mod(self, ct: Ciphertext) -> Ciphertext:
        """Approximate ``x -> (x mod 1)``-style reduction via the sine.

        With ``double_angles = r > 0`` the Han-Ki trick is used: evaluate
        ``cos(2*pi*(x - 1/4) / 2^r)`` — whose argument range, and hence the
        required Chebyshev degree, shrinks by ``2^r`` — then apply ``r``
        double-angle steps ``cos(2t) = 2cos(t)^2 - 1``, ending at
        ``cos(2*pi*x - pi/2) = sin(2*pi*x)``.  Costs ``r`` extra levels.
        """
        k = self.config.eval_mod_interval
        r = self.config.double_angles
        if r == 0:
            def reduced_sine(x):
                return np.sin(2 * np.pi * x) / (2 * np.pi)

            return self.cheb.evaluate_function(
                ct, reduced_sine, self.config.eval_mod_degree, interval=(-k, k)
            )

        scale = 2.0 ** r

        def shrunk_cosine(x):
            return np.cos(2 * np.pi * (x - 0.25) / scale)

        out = self.cheb.evaluate_function(
            ct, shrunk_cosine, self.config.eval_mod_degree, interval=(-k, k))
        ev = self.ev
        for _ in range(r):
            sq = ev.square(out)
            out = ev.add_scalar(ev.add(sq, sq), -1.0)
        return ev.mul_scalar(out, 1.0 / (2 * np.pi))

    def slot_to_coeff(self, t_lo: Ciphertext, t_hi: Ciphertext) -> Ciphertext:
        z_lo = self._matvec(t_lo, "_stc_lo")
        z_hi = self._matvec(t_hi, "_stc_hi")
        return self.ev.add(z_lo, z_hi)

    def _matvec(self, ct: Ciphertext, matrix: str, pt_scale: float = None,
                rescales: int = 1) -> Ciphertext:
        """``bsgs_matvec`` by one of the four transform matrices, its
        diagonals encoded once per ``(level, pt_scale)``."""
        key = (ct.level, pt_scale)
        cached = self._encoded.get(matrix)
        if cached is None or cached[0] != key:
            cached = self._encoded[matrix] = (key, encode_matrix(
                self.ev, ct.level, getattr(self, matrix), pt_scale=pt_scale))
        return bsgs_matvec(self.ev, ct, encoded=cached[1], rescales=rescales)

    # ------------------------------------------------------------------ #

    def bootstrap(self, ct: Ciphertext) -> Ciphertext:
        """Refresh a level-1 ciphertext to a high level.

        The output decodes to the same values as the input; its level is
        whatever the pipeline leaves (reported by ``refreshed_levels``).
        """
        raised = self.mod_raise(ct)
        t_lo, t_hi = self.coeff_to_slot(raised)
        m_lo = self.eval_mod(t_lo)
        m_hi = self.eval_mod(t_hi)
        return self.slot_to_coeff(m_lo, m_hi)

    def refreshed_levels(self) -> int:
        """Levels available to the application after one bootstrap."""
        probe = self.encrypt_for_bootstrap(np.zeros(4))
        return self.bootstrap(probe).level - 1
