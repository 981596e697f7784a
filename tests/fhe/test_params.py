"""Tests for CKKS parameter sets and the architectural parameters."""

import numpy as np
import pytest

from repro.fhe import ArchParams, CKKSParams, make_params, toy_params
from repro.fhe.params import modular_partition, partition_from_sig


class TestMakeParams:
    def test_moduli_are_ntt_friendly(self, small_params):
        n = small_params.ring_degree
        for q in small_params.moduli + small_params.extension_moduli:
            assert q % (2 * n) == 1

    def test_disjoint_extension_basis(self, small_params):
        assert not set(small_params.moduli) & \
            set(small_params.extension_moduli)

    def test_first_modulus_wider(self, small_params):
        assert small_params.moduli[0].bit_length() > \
            small_params.moduli[1].bit_length()

    def test_extension_dominates_digits(self, small_params):
        """P >= every digit product (keyswitch noise headroom)."""
        import math

        p_total = math.prod(small_params.extension_moduli)
        for digit in small_params.digit_partition(small_params.max_level):
            q_digit = math.prod(small_params.moduli[i] for i in digit)
            assert p_total > q_digit

    def test_level_scales_near_nominal(self, small_params):
        for level in range(1, small_params.max_level + 1):
            s = small_params.scale_at_level(level)
            assert abs(np.log2(s) - np.log2(small_params.scale)) < 0.01

    def test_invariant_recurrence(self, small_params):
        """S_{l-1} == S_l^2 / q_{l-1} exactly."""
        for level in range(small_params.max_level, 1, -1):
            s = small_params.scale_at_level(level)
            expected = s * s / small_params.moduli[level - 1]
            assert small_params.scale_at_level(level - 1) == \
                pytest.approx(expected, rel=1e-12)

    def test_basis_at_level(self, small_params):
        assert small_params.basis_at_level(3) == small_params.moduli[:3]
        with pytest.raises(ValueError):
            small_params.basis_at_level(0)
        with pytest.raises(ValueError):
            small_params.basis_at_level(small_params.max_level + 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            CKKSParams(ring_degree=100, moduli=(17,), extension_moduli=(19,),
                       num_digits=1, scale=2.0**10)
        with pytest.raises(ValueError):
            CKKSParams(ring_degree=64, moduli=(17,), extension_moduli=(17,),
                       num_digits=1, scale=2.0**10)


class TestDigitPartition:
    def test_contiguous_cover(self, small_params):
        part = small_params.digit_partition(7)
        flat = [i for digit in part for i in digit]
        assert flat == list(range(7))

    def test_digit_count_capped_by_level(self, small_params):
        part = small_params.digit_partition(2, num_digits=5)
        assert len(part) == 2

    def test_explicit_digit_count(self, small_params):
        part = small_params.digit_partition(8, num_digits=4)
        assert len(part) == 4
        assert all(len(d) == 2 for d in part)

    def test_both_parameter_families_share_one_layout(self, small_params):
        arch = ArchParams(num_digits=small_params.num_digits)
        for level in range(1, small_params.max_level + 1):
            assert arch.digit_partition(level) == \
                small_params.digit_partition(level)

    def test_signatures_decode_to_the_partitions_they_name(self, small_params):
        assert partition_from_sig("c2", 7, small_params) == \
            small_params.digit_partition(7, num_digits=2)
        assert partition_from_sig("m4", 6, small_params) == \
            modular_partition(6, 4) == ((0, 4), (1, 5), (2,), (3,))
        # More chips than limbs: the surplus chips hold (and mod up) nothing.
        assert partition_from_sig("m12", 2, small_params)[2:] == ((),) * 10
        for level, n in ((10, 3), (12, 4), (6, 4), (2, 12), (1, 8)):
            part = partition_from_sig(f"m{n}", level, small_params)
            assert len(part) == n
            # Every limb exactly once, limb i in digit i mod n.
            assert sorted(i for digit in part for i in digit) == \
                list(range(level))
            assert all(i % n == c for c, digit in enumerate(part)
                       for i in digit)
        with pytest.raises(ValueError, match="partition signature"):
            partition_from_sig("x3", 6, small_params)


class TestToyParams:
    def test_fast_and_small(self):
        params = toy_params()
        assert params.ring_degree <= 512
        assert params.max_level >= 4


class TestArchParams:
    def test_paper_defaults(self):
        arch = ArchParams()
        assert arch.ring_degree == 65536
        assert arch.max_level == 51
        assert arch.num_digits == 4
        assert arch.limb_bytes == 65536 * 4
        assert arch.slot_count == 32768

    def test_digit_partition_shape(self):
        arch = ArchParams()
        part = arch.digit_partition(51)
        assert len(part) == 4
        assert max(len(d) for d in part) <= 13  # the BCU's input bound

    def test_custom_levels(self):
        arch = ArchParams(max_level=59)
        assert arch.max_level == 59
