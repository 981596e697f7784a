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
