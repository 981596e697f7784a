"""Tests for CKKS canonical-embedding encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe.encoding import (
    CKKSEncoder,
    conjugation_galois_element,
    rotation_galois_element,
)

TOL = 1e-4


class TestRoundtrip:
    def test_real_vector(self, small_context, rng):
        enc = small_context.encoder
        z = rng.uniform(-1, 1, small_context.params.slot_count)
        out = enc.decode(enc.encode(z))
        assert np.max(np.abs(out - z)) < TOL

    def test_complex_vector(self, small_context, rng):
        enc = small_context.encoder
        n = small_context.params.slot_count
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        out = enc.decode(enc.encode(z))
        assert np.max(np.abs(out - z)) < TOL

    def test_short_vector_zero_padded(self, small_context):
        enc = small_context.encoder
        out = enc.decode(enc.encode([1.0, 2.0]))
        assert abs(out[0] - 1.0) < TOL and abs(out[1] - 2.0) < TOL
        assert np.max(np.abs(out[2:])) < TOL

    def test_too_long_raises(self, small_context):
        enc = small_context.encoder
        with pytest.raises(ValueError):
            enc.encode(np.zeros(small_context.params.slot_count + 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(0, np.nan)])
    def test_non_finite_rejected_before_embedding(self, small_context, bad):
        """One ValueError naming the bad slots, no numpy RuntimeWarning,
        and never residues of a NaN."""
        enc = small_context.encoder
        z = np.zeros(small_context.params.slot_count, dtype=np.complex128)
        z[[1, 5]] = bad
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match=r"2 of \d+ slots"):
                enc.encode(z)

    def test_constant(self, small_context):
        enc = small_context.encoder
        out = enc.decode(enc.encode_constant(0.5 + 0.25j))
        assert np.max(np.abs(out - (0.5 + 0.25j))) < TOL

    def test_decode_length(self, small_context):
        enc = small_context.encoder
        out = enc.decode(enc.encode([1.0, 2.0, 3.0]), length=3)
        assert out.shape == (3,)


class TestHomomorphicStructure:
    """Encoding is a ring homomorphism: slots add/multiply pointwise."""

    def test_plaintext_addition(self, small_context, rng):
        enc = small_context.encoder
        n = small_context.params.slot_count
        a, b = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        pa, pb = enc.encode(a), enc.encode(b)
        summed = pa.poly + pb.poly
        out = enc.decode(type(pa)(summed, pa.scale))
        assert np.max(np.abs(out - (a + b))) < TOL

    def test_plaintext_multiplication(self, small_context, rng):
        from repro.fhe.encoding import Plaintext

        enc = small_context.encoder
        n = small_context.params.slot_count
        a, b = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        pa, pb = enc.encode(a), enc.encode(b)
        prod = pa.poly * pb.poly
        out = enc.decode(Plaintext(prod, pa.scale * pb.scale))
        assert np.max(np.abs(out - a * b)) < 10 * TOL

    def test_automorphism_rotates_slots(self, small_context, rng):
        from repro.fhe.encoding import Plaintext

        enc = small_context.encoder
        params = small_context.params
        n = params.slot_count
        z = rng.uniform(-1, 1, n)
        pt = enc.encode(z)
        for r in (1, 3, n // 2):
            k = rotation_galois_element(r, params.ring_degree)
            rotated = pt.poly.automorphism(k)
            out = enc.decode(Plaintext(rotated, pt.scale))
            assert np.max(np.abs(out - np.roll(z, -r))) < TOL

    def test_conjugation_element(self, small_context, rng):
        from repro.fhe.encoding import Plaintext

        enc = small_context.encoder
        params = small_context.params
        n = params.slot_count
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        pt = enc.encode(z)
        k = conjugation_galois_element(params.ring_degree)
        out = enc.decode(Plaintext(pt.poly.automorphism(k), pt.scale))
        assert np.max(np.abs(out - np.conj(z))) < TOL


class TestGaloisElements:
    def test_rotation_element_is_odd(self):
        for r in range(1, 16):
            assert rotation_galois_element(r, 256) % 2 == 1

    def test_rotation_zero_is_identity(self):
        assert rotation_galois_element(0, 256) == 1

    def test_full_cycle(self):
        n = 256
        assert rotation_galois_element(n // 2, n) == 1

    def test_composition(self):
        n = 256
        k1 = rotation_galois_element(3, n)
        k2 = rotation_galois_element(4, n)
        assert (k1 * k2) % (2 * n) == rotation_galois_element(7, n)


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=16))
@settings(max_examples=30, deadline=None)
def test_property_encode_decode_within_tolerance(small_context, values):
    enc = small_context.encoder
    out = enc.decode(enc.encode(values), length=len(values))
    assert np.max(np.abs(out - np.array(values))) < 1e-3


def _eval_mod_coefficients():
    """The Chebyshev coefficients the bootstrap's EvalMod multiplies by."""
    from repro.fhe.bootstrap import BootstrapConfig
    from repro.fhe.polyeval import chebyshev_coefficients

    config = BootstrapConfig()
    k = config.eval_mod_interval
    return chebyshev_coefficients(
        lambda x: np.sin(2 * np.pi * x) / (2 * np.pi),
        config.eval_mod_degree, interval=(-k, k)).tolist()


class TestClosedFormConstant:
    """A real constant is encoded without the embedding or an NTT
    (``round(v * scale) mod q_j`` in every slot of limb ``j``); the
    plaintext must be the one ``encode`` of the full slot vector builds,
    bit for bit, at every scale — ``2**62`` and past it too."""

    VALUES = [0.0, 1e-9, -1e-9, 0.37, -0.37, 1.0, -1.0, 12.5, -12.5,
              -1 / (2 * np.pi)]

    @staticmethod
    def _full(enc, value, scale, level):
        slots = np.full(enc.geometry.slot_count, value, dtype=np.complex128)
        return enc.encode(slots, scale=scale, level=level)

    @pytest.mark.parametrize("where", ["bottom", "middle", "top"])
    def test_equals_encode_of_the_full_vector(self, small_context, where):
        enc, params = small_context.encoder, small_context.params
        level = {"bottom": 1, "middle": params.max_level // 2,
                 "top": params.max_level}[where]
        scales = [2.0 ** 20, 2.0 ** 28, 2.0 ** 40,
                  params.scale_at_level(level),
                  params.scale_at_level(level) ** 2, 2.0 ** 60, 2.0 ** 64]
        assert max(scales) * 12.5 >= 2 ** 62
        mismatches = []
        for value in self.VALUES + _eval_mod_coefficients():
            for scale in scales:
                got = enc.encode_constant(value, scale=scale, level=level)
                want = self._full(enc, value, scale, level)
                if not (got.poly.equals(want.poly)
                        and got.scale == want.scale):
                    mismatches.append((value, scale))
        assert mismatches == []

    def test_random_values_and_scales(self, small_context):
        enc, params = small_context.encoder, small_context.params
        rng = np.random.default_rng(49)
        values = rng.uniform(-20, 20, 300) * 10.0 ** rng.integers(-6, 1, 300)
        scales = 2.0 ** rng.uniform(10, 40, 300)
        levels = rng.integers(1, params.max_level + 1, 300)
        for value, scale, level in zip(values, scales, levels.tolist()):
            got = enc.encode_constant(value, scale=scale, level=level)
            assert got.poly.equals(self._full(enc, value, scale, level).poly)

    def test_half_way_ties_round_as_encode_does(self, small_context):
        enc = small_context.encoder
        for k in range(-40, 40):
            value = (k + 0.5) / 2 ** 20
            got = enc.encode_constant(value, scale=2.0 ** 20, level=3)
            assert got.poly.equals(self._full(enc, value, 2.0 ** 20, 3).poly)

    def test_column_is_every_slot(self, small_context):
        enc = small_context.encoder
        column = enc.constant_column(-0.37, 2.0 ** 30, 3)
        assert column.shape == (3, 1) and column.dtype == np.uint64
        pt = enc.encode_constant(-0.37, scale=2.0 ** 30, level=3)
        assert np.array_equal(pt.poly.data,
                              np.broadcast_to(column, pt.poly.data.shape))

    @pytest.mark.parametrize("value", [0.5 + 0.25j, -1j])
    def test_complex_constant_takes_the_embedding(self, small_context,
                                                  value):
        enc = small_context.encoder
        assert enc.constant_column(value, 2.0 ** 30, 4) is None
        got = enc.encode_constant(value, scale=2.0 ** 30, level=4)
        assert got.poly.equals(self._full(enc, value, 2.0 ** 30, 4).poly)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(0, np.nan)])
    def test_non_finite_constant_raises_as_encode_does(self, small_context,
                                                       bad):
        enc = small_context.encoder
        assert enc.constant_column(bad, 2.0 ** 30, 4) is None
        with pytest.raises(ValueError) as want:
            self._full(enc, bad, 2.0 ** 30, 4)
        with pytest.raises(ValueError) as got:
            enc.encode_constant(bad, scale=2.0 ** 30, level=4)
        assert str(got.value) == str(want.value)
