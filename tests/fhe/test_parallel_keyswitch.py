"""Tests for the limb placement behind Cinnamon's parallel keyswitching.

Output aggregation (Section 4.3) takes each chip's resident limbs as its
keyswitch digit, so the modular partition must place every limb exactly
once, limb ``i`` on chip ``i mod n``.  The compiled keyswitch algorithms
themselves are checked bit-exact in ``tests/core/test_keyswitch_oracle.py``.
"""

from repro.fhe.params import modular_partition


class TestPartitioning:
    def test_modular_partition_covers_all_limbs(self):
        part = modular_partition(10, 3)
        flat = sorted(i for digit in part for i in digit)
        assert flat == list(range(10))

    def test_modular_partition_is_modular(self):
        part = modular_partition(12, 4)
        for c, digit in enumerate(part):
            assert all(i % 4 == c for i in digit)

    def test_chip_of_limb(self):
        part = modular_partition(6, 4)
        chip_of = {i: c for c, digit in enumerate(part) for i in digit}
        assert [chip_of[i] for i in range(6)] == [0, 1, 2, 3, 0, 1]
