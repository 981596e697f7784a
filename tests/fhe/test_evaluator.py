"""Tests for encryption and homomorphic evaluation."""

import numpy as np
import pytest

from repro.fhe import Ciphertext

TOL = 5e-4


def _vec(rng, n, complex_values=False):
    v = rng.uniform(-1, 1, n)
    if complex_values:
        v = v + 1j * rng.uniform(-1, 1, n)
    return v


class TestEncryptDecrypt:
    def test_roundtrip(self, small_context, rng):
        z = _vec(rng, small_context.params.slot_count, complex_values=True)
        out = small_context.decrypt_values(small_context.encrypt_values(z))
        assert np.max(np.abs(out - z)) < TOL

    def test_encrypt_at_lower_level(self, small_context, rng):
        z = _vec(rng, 8)
        ct = small_context.encrypt_values(z, level=3)
        assert ct.level == 3
        out = small_context.decrypt_values(ct, length=8)
        assert np.max(np.abs(out.real - z)) < TOL

    def test_fresh_ciphertext_shape(self, small_context):
        ct = small_context.encrypt_values([1.0])
        assert ct.degree == 2
        assert ct.level == small_context.params.max_level

    def test_ciphertexts_randomized(self, small_context):
        a = small_context.encrypt_values([1.0])
        b = small_context.encrypt_values([1.0])
        assert not a.polys[0].equals(b.polys[0])


class TestLinearOps:
    def test_add(self, small_context, small_evaluator, rng):
        n = small_context.params.slot_count
        a, b = _vec(rng, n), _vec(rng, n)
        ca, cb = small_context.encrypt_values(a), small_context.encrypt_values(b)
        out = small_context.decrypt_values(small_evaluator.add(ca, cb))
        assert np.max(np.abs(out.real - (a + b))) < TOL

    def test_sub(self, small_context, small_evaluator, rng):
        n = small_context.params.slot_count
        a, b = _vec(rng, n), _vec(rng, n)
        ca, cb = small_context.encrypt_values(a), small_context.encrypt_values(b)
        out = small_context.decrypt_values(small_evaluator.sub(ca, cb))
        assert np.max(np.abs(out.real - (a - b))) < TOL

    def test_negate(self, small_context, small_evaluator, rng):
        n = small_context.params.slot_count
        a = _vec(rng, n)
        out = small_context.decrypt_values(
            small_evaluator.negate(small_context.encrypt_values(a))
        )
        assert np.max(np.abs(out.real + a)) < TOL

    def test_add_plain(self, small_context, small_evaluator, rng):
        n = small_context.params.slot_count
        a, b = _vec(rng, n), _vec(rng, n)
        ca = small_context.encrypt_values(a)
        pb = small_context.encode(b)
        out = small_context.decrypt_values(small_evaluator.add_plain(ca, pb))
        assert np.max(np.abs(out.real - (a + b))) < TOL

    def test_add_scalar(self, small_context, small_evaluator, rng):
        n = small_context.params.slot_count
        a = _vec(rng, n)
        ca = small_context.encrypt_values(a)
        out = small_context.decrypt_values(small_evaluator.add_scalar(ca, 0.75))
        assert np.max(np.abs(out.real - (a + 0.75))) < TOL

    def test_add_many(self, small_context, small_evaluator, rng):
        n = small_context.params.slot_count
        vs = [_vec(rng, n) for _ in range(5)]
        cts = [small_context.encrypt_values(v) for v in vs]
        out = small_context.decrypt_values(small_evaluator.add_many(cts))
        assert np.max(np.abs(out.real - sum(vs))) < 5 * TOL

    def test_add_different_levels_aligns(self, small_context, small_evaluator, rng):
        n = small_context.params.slot_count
        a, b = _vec(rng, n), _vec(rng, n)
        ca = small_context.encrypt_values(a)
        cb = small_context.encrypt_values(b)
        cb = small_evaluator.mul_scalar(cb, 1.0)  # burn one level
        out = small_evaluator.add(ca, cb)
        assert out.level == cb.level
        res = small_context.decrypt_values(out)
        assert np.max(np.abs(res.real - (a + b))) < TOL


class TestMultiplication:
    def test_ct_ct(self, small_context, small_evaluator, rng):
        n = small_context.params.slot_count
        a, b = _vec(rng, n), _vec(rng, n)
        ca, cb = small_context.encrypt_values(a), small_context.encrypt_values(b)
        out = small_evaluator.mul(ca, cb)
        assert out.level == ca.level - 1
        res = small_context.decrypt_values(out)
        assert np.max(np.abs(res.real - a * b)) < TOL

    def test_no_relin_decrypts(self, small_context, small_evaluator, rng):
        n = small_context.params.slot_count
        a, b = _vec(rng, n), _vec(rng, n)
        ca, cb = small_context.encrypt_values(a), small_context.encrypt_values(b)
        tensored = small_evaluator.mul_no_relin(ca, cb)
        assert tensored.degree == 3
        res = small_context.decrypt_values(small_evaluator.rescale(tensored))
        assert np.max(np.abs(res.real - a * b)) < TOL

    def test_square(self, small_context, small_evaluator, rng):
        n = small_context.params.slot_count
        a = _vec(rng, n)
        out = small_context.decrypt_values(
            small_evaluator.square(small_context.encrypt_values(a))
        )
        assert np.max(np.abs(out.real - a * a)) < TOL

    def test_mul_plain(self, small_context, small_evaluator, rng):
        n = small_context.params.slot_count
        a, b = _vec(rng, n), _vec(rng, n)
        ca = small_context.encrypt_values(a)
        out = small_context.decrypt_values(small_evaluator.mul_values(ca, b))
        assert np.max(np.abs(out.real - a * b)) < TOL

    def test_mul_scalar(self, small_context, small_evaluator, rng):
        n = small_context.params.slot_count
        a = _vec(rng, n)
        ca = small_context.encrypt_values(a)
        out = small_context.decrypt_values(small_evaluator.mul_scalar(ca, -1.5))
        assert np.max(np.abs(out.real + 1.5 * a)) < TOL

    def test_depth_chain(self, small_context, small_evaluator, rng):
        n = small_context.params.slot_count
        a = _vec(rng, n)
        ct = small_context.encrypt_values(a)
        expect = a.copy()
        for _ in range(4):
            ct = small_evaluator.square(ct)
            expect = expect * expect
            res = small_context.decrypt_values(ct)
            assert np.max(np.abs(res.real - expect)) < 0.01

    def test_level_exhaustion_raises(self, small_context, small_evaluator):
        ct = small_context.encrypt_values([0.5], level=1)
        with pytest.raises(ValueError):
            small_evaluator.mul(ct, ct)

    def test_mixed_level_mul(self, small_context, small_evaluator, rng):
        n = small_context.params.slot_count
        a, b = _vec(rng, n), _vec(rng, n)
        ca = small_context.encrypt_values(a)
        cb = small_evaluator.mul_scalar(small_context.encrypt_values(b), 1.0)
        res = small_context.decrypt_values(small_evaluator.mul(ca, cb))
        assert np.max(np.abs(res.real - a * b)) < TOL


class TestRotation:
    @pytest.mark.parametrize("r", [1, 2, 7, 31])
    def test_rotate(self, small_context, small_evaluator, rng, r):
        n = small_context.params.slot_count
        a = _vec(rng, n)
        out = small_context.decrypt_values(
            small_evaluator.rotate(small_context.encrypt_values(a), r)
        )
        assert np.max(np.abs(out.real - np.roll(a, -r))) < TOL

    def test_rotate_zero_copies(self, small_context, small_evaluator, rng):
        a = _vec(rng, small_context.params.slot_count)
        ct = small_context.encrypt_values(a)
        out = small_evaluator.rotate(ct, 0)
        assert out is not ct
        assert out.polys[0].equals(ct.polys[0])

    def test_conjugate(self, small_context, small_evaluator, rng):
        n = small_context.params.slot_count
        a = _vec(rng, n, complex_values=True)
        out = small_context.decrypt_values(
            small_evaluator.conjugate(small_context.encrypt_values(a))
        )
        assert np.max(np.abs(out - np.conj(a))) < TOL

    def test_hoisted_matches_individual(self, small_context, small_evaluator, rng):
        n = small_context.params.slot_count
        a = _vec(rng, n)
        ct = small_context.encrypt_values(a)
        hoisted = small_evaluator.rotate_hoisted(ct, [0, 1, 5, 9])
        for r, out in hoisted.items():
            res = small_context.decrypt_values(out)
            assert np.max(np.abs(res.real - np.roll(a, -r))) < TOL


class TestRescale:
    def test_rescale_drops_level_and_scale(self, small_context, small_evaluator, rng):
        params = small_context.params
        a = _vec(rng, params.slot_count)
        ct = small_context.encrypt_values(a)
        raw = small_evaluator.mul_no_relin(ct, ct)
        rescaled = small_evaluator.rescale(small_evaluator.relinearize(raw))
        assert rescaled.level == ct.level - 1
        q_last = params.moduli[ct.level - 1]
        assert np.isclose(rescaled.scale, raw.scale / q_last)

    def test_rescale_level_one_raises(self, small_context, small_evaluator):
        ct = small_context.encrypt_values([1.0], level=1)
        with pytest.raises(ValueError):
            small_evaluator.rescale(ct)


class TestMatchLevel:
    def test_exact_scale_landing(self, small_context, small_evaluator, rng):
        params = small_context.params
        a = _vec(rng, params.slot_count)
        ct = small_context.encrypt_values(a)
        target = params.scale_at_level(3)
        out = small_evaluator.match_level(ct, 3, target)
        assert out.level == 3
        assert np.isclose(out.scale, target, rtol=1e-12)
        res = small_context.decrypt_values(out)
        assert np.max(np.abs(res.real - a)) < TOL

    def test_raise_level_rejected(self, small_context, small_evaluator):
        ct = small_context.encrypt_values([1.0], level=2)
        with pytest.raises(ValueError):
            small_evaluator.match_level(ct, 5)
