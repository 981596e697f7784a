"""Noise-budget guardrail: tracked estimates and typed exhaustion."""

import numpy as np
import pytest

from repro.fhe import Evaluator, NoiseBudgetExhausted
from repro.fhe.noise import measured_error_bits


class TestTracking:
    def test_default_evaluator_does_not_track(self, small_context, rng):
        ev = Evaluator(small_context)
        a = small_context.encrypt_values(
            rng.uniform(-1, 1, small_context.params.slot_count))
        out = ev.mul(a, a)
        assert out.noise is None
        assert not ev.track_noise

    def test_tracked_ops_attach_estimates(self, small_context, rng):
        ev = Evaluator(small_context, track_noise=True)
        za = rng.uniform(-1, 1, small_context.params.slot_count)
        a = small_context.encrypt_values(za)
        prod = ev.mul(a, a)
        assert prod.noise is not None
        assert prod.noise.level == prod.level
        rot = ev.rotate(prod, 1)
        assert rot.noise.ring_std > 0
        total = ev.add(prod, rot)
        assert total.noise.ring_std >= prod.noise.ring_std
        assert ev.noise_of(total).error_bits == total.noise.error_bits

    def test_estimate_within_two_orders_of_measurement(self, small_context,
                                                       rng):
        ev = Evaluator(small_context, track_noise=True)
        za = rng.uniform(-1, 1, small_context.params.slot_count)
        zb = rng.uniform(-1, 1, small_context.params.slot_count)
        a = small_context.encrypt_values(za)
        b = small_context.encrypt_values(zb)
        out = ev.add(ev.mul(a, b), ev.rotate(ev.mul(a, a), 1))
        expect = za * zb + np.roll(za * za, -1)
        predicted = out.noise.error_bits
        measured = measured_error_bits(small_context, out, expect)
        # The analytic model is an average-case heuristic; hold it to the
        # ~two-orders-of-magnitude class such estimators achieve.
        assert abs(predicted - measured) < 7.0
        assert measured < -8.0        # and the result is actually usable

    def test_copies_propagate_the_estimate(self, small_context, rng):
        ev = Evaluator(small_context, track_noise=True)
        a = small_context.encrypt_values(
            rng.uniform(-1, 1, small_context.params.slot_count))
        prod = ev.mul(a, a)
        assert prod.copy().noise is prod.noise
        assert prod.at_level(prod.level).noise is prod.noise


class TestBudget:
    def test_budget_trips_with_context(self, small_context, rng):
        # Demanding 2^-60 precision from 28-bit primes is impossible: the
        # first tracked multiply must refuse instead of decrypting noise.
        ev = Evaluator(small_context, noise_budget_bits=-60)
        assert ev.track_noise
        a = small_context.encrypt_values(
            rng.uniform(-1, 1, small_context.params.slot_count))
        with pytest.raises(NoiseBudgetExhausted) as info:
            ev.mul(a, a)
        exc = info.value
        assert exc.operation == "mul"
        assert exc.level == small_context.params.max_level - 1
        assert exc.error_bits > exc.budget_bits == -60

    def test_loose_budget_never_trips(self, small_context, rng):
        ev = Evaluator(small_context, noise_budget_bits=-1)
        za = rng.uniform(-1, 1, small_context.params.slot_count)
        a = small_context.encrypt_values(za)
        out = ev.mul(ev.add(a, a), a)
        got = small_context.decrypt_values(out, 4)
        assert np.allclose(got.real, (2 * za * za)[:4], atol=1e-3)

    def test_guard_fires_before_garbage_decrypt(self, small_context, rng):
        # Walk a squaring chain with a realistic budget: every completed
        # operation must still decrypt to better accuracy than the
        # budget, so the raise happens strictly before quality is lost.
        budget = -10.0
        ev = Evaluator(small_context, noise_budget_bits=budget)
        za = rng.uniform(0.5, 0.9, small_context.params.slot_count)
        ct = small_context.encrypt_values(za)
        expect = za.copy()
        with pytest.raises(NoiseBudgetExhausted):
            for _ in range(small_context.params.max_level):
                ct = ev.mul(ct, ct)
                expect = expect * expect
                assert measured_error_bits(small_context, ct,
                                           expect) < budget


class TestPlainAdditions:
    """Adding a plaintext or a constant leaves the noise as it was: the
    result carries the ciphertext's estimate, not a fresh encryption's."""

    def test_add_scalar_and_add_plain_carry_the_estimate(self, small_context,
                                                         rng):
        ev = Evaluator(small_context, track_noise=True)
        z = rng.uniform(-1, 1, small_context.params.slot_count)
        ct = small_context.encrypt_values(z)
        prod = ev.mul(ev.mul(ct, ct), ct)
        fresh = ev.noise_of(small_context.encrypt_values(z))
        assert prod.noise.ring_std > 100 * fresh.ring_std
        plain = small_context.encoder.encode(z, scale=prod.scale,
                                             level=prod.level)
        for out in (ev.add_scalar(prod, 1.0), ev.add_plain(prod, plain)):
            assert out.noise is prod.noise
            assert ev.noise_of(out).ring_std == prod.noise.ring_std
