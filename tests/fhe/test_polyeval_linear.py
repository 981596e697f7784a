"""Tests for Chebyshev polynomial evaluation and BSGS linear algebra."""

import numpy as np
import pytest

from repro.fhe.linear import bsgs_matvec, matrix_diagonals
from repro.fhe.polyeval import (
    ChebyshevEvaluator,
    chebyshev_coefficients,
    chebyshev_divmod,
)


class TestChebyshevMath:
    def test_divmod_identity(self, rng):
        c = rng.normal(size=24)
        for n in (3, 8, 16):
            q, r = chebyshev_divmod(c, n)
            x = np.linspace(-1, 1, 101)
            t_n = np.polynomial.chebyshev.chebval(x, [0] * n + [1])
            lhs = np.polynomial.chebyshev.chebval(x, c)
            rhs = np.polynomial.chebyshev.chebval(x, q) * t_n + \
                np.polynomial.chebyshev.chebval(x, r)
            assert np.max(np.abs(lhs - rhs)) < 1e-10
            assert len(r) <= n

    def test_divmod_low_degree_passthrough(self):
        q, r = chebyshev_divmod([1.0, 2.0], 5)
        assert q == [0.0]
        assert r == [1.0, 2.0]

    def test_coefficients_approximate_function(self):
        coeffs = chebyshev_coefficients(np.sin, 23, (-3.0, 3.0))
        x = np.linspace(-3, 3, 101)
        u = 2 * (x + 3) / 6 - 1
        approx = np.polynomial.chebyshev.chebval(u, coeffs)
        assert np.max(np.abs(approx - np.sin(x))) < 1e-8


class TestHomomorphicPolyEval:
    def test_sin(self, deep_context, deep_evaluator, rng):
        che = ChebyshevEvaluator(deep_evaluator)
        z = rng.uniform(-1, 1, deep_context.params.slot_count)
        ct = deep_context.encrypt_values(z)
        out = che.evaluate_function(ct, np.sin, degree=23)
        res = deep_context.decrypt_values(out).real
        assert np.max(np.abs(res - np.sin(z))) < 1e-3

    def test_exp_nonstandard_interval(self, deep_context, deep_evaluator, rng):
        che = ChebyshevEvaluator(deep_evaluator)
        z = rng.uniform(0, 2, deep_context.params.slot_count)
        ct = deep_context.encrypt_values(z)
        out = che.evaluate_function(ct, np.exp, degree=15, interval=(0.0, 2.0))
        res = deep_context.decrypt_values(out).real
        assert np.max(np.abs(res - np.exp(z))) < 1e-2

    def test_explicit_coefficients(self, deep_context, deep_evaluator, rng):
        che = ChebyshevEvaluator(deep_evaluator)
        coeffs = [0.5, 0.0, -0.25, 0.0, 0.125]  # T0/2 - T2/4 + T4/8
        z = rng.uniform(-1, 1, deep_context.params.slot_count)
        ct = deep_context.encrypt_values(z)
        out = che.evaluate(ct, coeffs)
        expect = np.polynomial.chebyshev.chebval(z, coeffs)
        res = deep_context.decrypt_values(out).real
        assert np.max(np.abs(res - expect)) < 1e-3

    def test_constant_polynomial(self, deep_context, deep_evaluator):
        che = ChebyshevEvaluator(deep_evaluator)
        ct = deep_context.encrypt_values([0.3, -0.7])
        out = che.evaluate(ct, [0.42])
        res = deep_context.decrypt_values(out, length=2).real
        assert np.max(np.abs(res - 0.42)) < 1e-3

    def test_linear_polynomial(self, deep_context, deep_evaluator, rng):
        che = ChebyshevEvaluator(deep_evaluator)
        z = rng.uniform(-1, 1, deep_context.params.slot_count)
        ct = deep_context.encrypt_values(z)
        out = che.evaluate(ct, [0.1, 2.0])  # 0.1 + 2 T1
        res = deep_context.decrypt_values(out).real
        assert np.max(np.abs(res - (0.1 + 2 * z))) < 1e-3

    def test_level_consumption_logarithmic(self, deep_context, deep_evaluator, rng):
        che = ChebyshevEvaluator(deep_evaluator)
        z = rng.uniform(-1, 1, deep_context.params.slot_count)
        ct = deep_context.encrypt_values(z)
        out = che.evaluate_function(ct, np.sin, degree=31)
        consumed = ct.level - out.level
        assert consumed <= 7  # ~log2(31) + baby-step depth, far below 31


class TestMatrixDiagonals:
    def test_extraction(self):
        m = np.arange(9.0).reshape(3, 3)
        diags = matrix_diagonals(m)
        assert np.allclose(diags[0], [0, 4, 8])
        assert np.allclose(diags[1], [1, 5, 6])
        assert np.allclose(diags[2], [2, 3, 7])

    def test_sparse_matrix_skips_zero_diagonals(self):
        m = np.eye(4)
        diags = matrix_diagonals(m)
        assert list(diags.keys()) == [0]

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            matrix_diagonals(np.zeros((2, 3)))


class TestBsgsMatvec:
    def test_full_slot_matrix(self, small_context, small_evaluator, rng):
        n = small_context.params.slot_count
        m = rng.normal(size=(n, n)) / np.sqrt(n)
        x = rng.uniform(-1, 1, n)
        ct = small_context.encrypt_values(x)
        out = bsgs_matvec(small_evaluator, ct, matrix=m)
        res = small_context.decrypt_values(out).real
        assert np.max(np.abs(res - m @ x)) < 1e-3

    def test_tiled_submatrix(self, small_context, small_evaluator, rng):
        slots = small_context.params.slot_count
        n = 16
        m = rng.normal(size=(n, n)) / np.sqrt(n)
        x = rng.uniform(-1, 1, n)
        ct = small_context.encrypt_values(np.tile(x, slots // n))
        out = bsgs_matvec(small_evaluator, ct, matrix=m)
        res = small_context.decrypt_values(out).real[:n]
        assert np.max(np.abs(res - m @ x)) < 1e-3

    def test_complex_matrix(self, small_context, small_evaluator, rng):
        n = 16
        slots = small_context.params.slot_count
        m = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / n
        x = rng.uniform(-1, 1, n)
        ct = small_context.encrypt_values(np.tile(x, slots // n))
        out = bsgs_matvec(small_evaluator, ct, matrix=m)
        res = small_context.decrypt_values(out)[:n]
        assert np.max(np.abs(res - m @ x)) < 1e-3

    def test_identity(self, small_context, small_evaluator, rng):
        n = small_context.params.slot_count
        x = rng.uniform(-1, 1, n)
        ct = small_context.encrypt_values(x)
        out = bsgs_matvec(small_evaluator, ct, matrix=np.eye(n))
        res = small_context.decrypt_values(out).real
        assert np.max(np.abs(res - x)) < 1e-3

    def test_consumes_one_level(self, small_context, small_evaluator, rng):
        n = small_context.params.slot_count
        ct = small_context.encrypt_values(rng.uniform(-1, 1, n))
        out = bsgs_matvec(small_evaluator, ct, matrix=np.eye(n))
        assert out.level == ct.level - 1

    def test_precomputed_diagonals(self, small_context, small_evaluator, rng):
        n = small_context.params.slot_count
        m = rng.normal(size=(n, n)) / np.sqrt(n)
        x = rng.uniform(-1, 1, n)
        ct = small_context.encrypt_values(x)
        out = bsgs_matvec(small_evaluator, ct, diagonals=matrix_diagonals(m))
        res = small_context.decrypt_values(out).real
        assert np.max(np.abs(res - m @ x)) < 1e-3

    def test_missing_inputs_raise(self, small_context, small_evaluator):
        ct = small_context.encrypt_values([1.0])
        with pytest.raises(ValueError):
            bsgs_matvec(small_evaluator, ct)

    def test_dimension_must_divide_slots(self, small_context, small_evaluator):
        ct = small_context.encrypt_values([1.0])
        with pytest.raises(ValueError):
            bsgs_matvec(small_evaluator, ct, matrix=np.eye(3))
