"""Tests for the wire format: params/ciphertext/plaintext round trips."""

import numpy as np
import pytest

from repro.fhe import CKKSContext
from repro.fhe.serialize import (
    CorruptPayloadError,
    ciphertext_wire_bytes,
    dump_ciphertext,
    dump_params,
    dump_plaintext,
    load_ciphertext,
    load_params,
    load_plaintext,
    params_fingerprint,
    unframe_payload,
)


class TestParams:
    def test_roundtrip(self, small_params):
        restored = load_params(dump_params(small_params))
        assert restored == small_params

    def test_fingerprint_stable(self, small_params):
        assert params_fingerprint(small_params) == \
            params_fingerprint(load_params(dump_params(small_params)))

    def test_fingerprint_distinguishes(self, small_params, deep_params):
        assert params_fingerprint(small_params) != \
            params_fingerprint(deep_params)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            load_params(b'{"magic": "nope"}')


class TestCiphertext:
    def test_roundtrip_decrypts(self, small_context, rng):
        z = rng.uniform(-1, 1, small_context.params.slot_count)
        ct = small_context.encrypt_values(z)
        wire = dump_ciphertext(ct, small_context.params)
        back = load_ciphertext(wire, small_context.params)
        assert back.scale == ct.scale
        assert back.level == ct.level
        got = small_context.decrypt_values(back).real
        assert np.max(np.abs(got - z)) < 1e-3

    def test_roundtrip_is_bit_exact(self, small_context):
        ct = small_context.encrypt_values([0.5, -0.5])
        back = load_ciphertext(dump_ciphertext(ct, small_context.params),
                               small_context.params)
        for a, b in zip(ct.polys, back.polys):
            assert a.equals(b)

    def test_cross_context_rejected(self, small_context, deep_context):
        ct = small_context.encrypt_values([1.0])
        wire = dump_ciphertext(ct, small_context.params)
        with pytest.raises(ValueError, match="fingerprint"):
            load_ciphertext(wire, deep_context.params)

    def test_usable_after_roundtrip(self, small_context, small_evaluator, rng):
        z = rng.uniform(-1, 1, small_context.params.slot_count)
        ct = load_ciphertext(
            dump_ciphertext(small_context.encrypt_values(z),
                            small_context.params),
            small_context.params)
        out = small_context.decrypt_values(small_evaluator.square(ct)).real
        assert np.max(np.abs(out - z * z)) < 1e-3


class TestCiphertextFraming:
    def test_round_trip_and_corruption(self, small_params, small_context):
        ct = small_context.encrypt_values([0.5, -0.25, 0.125])
        blob = dump_ciphertext(ct, small_params)
        back = load_ciphertext(blob, small_params)
        assert np.allclose(small_context.decrypt_values(back, 3),
                           small_context.decrypt_values(ct, 3))
        flipped = bytearray(blob)
        flipped[len(flipped) // 2] ^= 0x01
        with pytest.raises(CorruptPayloadError):
            load_ciphertext(bytes(flipped), small_params)

    def test_headerless_archive_is_rejected(self, small_params,
                                            small_context):
        ct = small_context.encrypt_values([1.0, 2.0])
        headerless = unframe_payload(dump_ciphertext(ct, small_params))
        assert headerless[:2] == b"PK"      # a bare, valid .npz archive
        with pytest.raises(CorruptPayloadError, match="bad magic"):
            load_ciphertext(headerless, small_params)


class TestPlaintext:
    def test_roundtrip(self, small_context, rng):
        z = rng.uniform(-1, 1, small_context.params.slot_count)
        pt = small_context.encode(z)
        back = load_plaintext(dump_plaintext(pt, small_context.params),
                              small_context.params)
        got = small_context.decode(back)
        assert np.max(np.abs(got - z)) < 1e-3


class TestWireSize:
    def test_paper_ciphertext_size(self):
        """A fresh N=64K ciphertext at L~40 is ~20 MB (Section 3.2)."""
        from repro.fhe import ArchParams

        arch = ArchParams()
        size = 2 * 40 * arch.limb_bytes
        assert 19e6 < size < 22e6

    def test_helper(self, small_params):
        assert ciphertext_wire_bytes(small_params, 4) == \
            2 * 4 * small_params.limb_bytes
