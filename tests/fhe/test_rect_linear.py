"""Rectangular BSGS matvec, baby-step selection, and slot-capacity errors.

Covers the pad-and-mask contract of :func:`repro.fhe.linear
.pad_matrix_block` (zero pad-rows pin the output tail to zero, zero
pad-columns mask junk in the input tail), the rotation-count-minimizing
``baby_steps="auto"`` mode, and the typed :class:`SlotCapacityError`
raised by :func:`repro.fhe.packing.pack_lanes`.
"""

import numpy as np
import pytest

from repro.fhe.linear import (
    bsgs_matvec,
    pad_matrix_block,
    plain_matvec_reference,
    select_baby_steps,
)
from repro.fhe.packing import SlotCapacityError, pack_lanes


class TestPadMatrixBlock:
    def test_square_passthrough_and_padding(self, rng):
        m = rng.normal(size=(3, 5))
        padded = pad_matrix_block(m)
        assert padded.shape == (8, 8)
        assert np.allclose(padded[:3, :5], m)
        assert np.all(padded[3:, :] == 0)
        assert np.all(padded[:, 5:] == 0)

    def test_explicit_block(self, rng):
        m = rng.normal(size=(4, 4))
        padded = pad_matrix_block(m, block=16)
        assert padded.shape == (16, 16)
        assert np.allclose(padded[:4, :4], m)

    def test_block_too_small_rejected(self, rng):
        with pytest.raises(ValueError):
            pad_matrix_block(rng.normal(size=(8, 3)), block=4)


class TestPlainReference:
    def test_rectangular_uses_leading_columns(self, rng):
        m = rng.normal(size=(3, 6))
        x = rng.normal(size=10)
        assert np.allclose(plain_matvec_reference(m, x), m @ x[:6])

    def test_short_input_rejected(self, rng):
        with pytest.raises(ValueError, match="shorter"):
            plain_matvec_reference(rng.normal(size=(3, 6)), np.ones(4))


class TestRectBsgsMatvec:
    def test_tall_matrix_masks_input_junk(self, small_context,
                                          small_evaluator, rng):
        # 12x8 matrix in a 16-block: slots 8..15 of the input hold junk
        # that the zero pad-columns must mask out, and outputs 12..15
        # must come back (almost exactly) zero.
        slots = small_context.params.slot_count
        m = rng.normal(size=(12, 8))
        x = np.zeros(16)
        x[:8] = rng.normal(size=8)
        x[8:] = 37.0  # junk the mask must kill
        ct = small_context.encrypt_values(np.tile(x, slots // 16))
        out = bsgs_matvec(small_evaluator, ct, matrix=m)
        res = small_context.decrypt_values(out).real[:16]
        assert np.max(np.abs(res[:12] - plain_matvec_reference(m, x))) < 1e-3
        assert np.max(np.abs(res[12:])) < 1e-3

    def test_wide_matrix(self, small_context, small_evaluator, rng):
        slots = small_context.params.slot_count
        m = rng.normal(size=(3, 16))
        x = rng.normal(size=16)
        ct = small_context.encrypt_values(np.tile(x, slots // 16))
        out = bsgs_matvec(small_evaluator, ct, matrix=m)
        res = small_context.decrypt_values(out).real[:16]
        assert np.max(np.abs(res[:3] - plain_matvec_reference(m, x))) < 1e-3
        assert np.max(np.abs(res[3:])) < 1e-3

    def test_explicit_block_override(self, small_context, small_evaluator,
                                     rng):
        slots = small_context.params.slot_count
        m = rng.normal(size=(4, 4))
        x = rng.normal(size=32)
        ct = small_context.encrypt_values(np.tile(x, slots // 32))
        out = bsgs_matvec(small_evaluator, ct, matrix=m, block=32)
        res = small_context.decrypt_values(out).real[:32]
        assert np.max(np.abs(res[:4] - m @ x[:4])) < 1e-3
        assert np.max(np.abs(res[4:])) < 1e-3

    def test_auto_baby_steps_same_result(self, small_context,
                                         small_evaluator, rng):
        slots = small_context.params.slot_count
        m = rng.normal(size=(16, 16))
        x = rng.normal(size=16)
        ct = small_context.encrypt_values(np.tile(x, slots // 16))
        a = small_context.decrypt_values(
            bsgs_matvec(small_evaluator, ct, matrix=m)).real
        b = small_context.decrypt_values(
            bsgs_matvec(small_evaluator, ct, matrix=m,
                        baby_steps="auto")).real
        assert np.max(np.abs(a - b)) < 1e-3
        assert np.max(np.abs(a[:16] - m @ x)) < 1e-3


class TestSelectBabySteps:
    @staticmethod
    def cost(offsets, n, n1):
        babies = {d % n1 for d in offsets} - {0}
        giants = {d // n1 for d in offsets} - {0}
        return len(babies) + len(giants)

    def test_power_of_two_and_no_worse_than_sqrt(self, rng):
        import math
        n = 64
        for offsets in ([0, 1, 2, 3], [0, 32], [1, 17, 33, 49],
                        list(range(0, 64, 4)), [5], list(range(64))):
            n1 = select_baby_steps(offsets, n)
            assert n1 & (n1 - 1) == 0
            sqrt_default = 1 << max(0, math.ceil(math.log2(math.sqrt(n))))
            assert self.cost(offsets, n, n1) <= \
                self.cost(offsets, n, sqrt_default)

    def test_banded_matrix_beats_sqrt_split(self):
        # Offsets 0..3 in a 64-ring: n1=2 needs one baby (1) and one
        # giant (1) rotation — strictly better than the sqrt default
        # (n1=8: 3 babies).
        n1 = select_baby_steps([0, 1, 2, 3], 64)
        assert self.cost([0, 1, 2, 3], 64, n1) == 2
        assert self.cost([0, 1, 2, 3], 64, 8) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_baby_steps([], 16)


class TestSlotCapacityError:
    def test_is_value_error_with_counts(self):
        with pytest.raises(SlotCapacityError) as info:
            pack_lanes([np.ones(8)] * 8, 8, 32)
        assert isinstance(info.value, ValueError)
        assert info.value.needed == 64
        assert info.value.available == 32

    def test_pack_lanes(self):
        with pytest.raises(SlotCapacityError):
            pack_lanes([np.ones(8)] * 4, 8, 16)
        with pytest.raises(SlotCapacityError):   # wider than the block
            pack_lanes([np.ones(9)], 8, 16)

    def test_fitting_layouts_do_not_raise(self):
        pack_lanes([np.ones(8)], 8, 32)
        pack_lanes([np.ones(4)] * 2, 4, 16)
