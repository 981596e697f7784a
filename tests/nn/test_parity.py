"""Encrypted-vs-plaintext parity through the full stack.

Every test here runs the whole pipeline — model -> lowering -> compiler
-> ISA emulator on real RNS-CKKS limbs -> decrypt — and compares against
the model's numpy reference.  The references mirror the lowered
polynomials exactly, so the measured error is pure CKKS noise; the
acceptance bound is max abs error < 1e-2.
"""

import numpy as np
import pytest

from repro.nn import (
    build_bert_encoder,
    build_helr,
    build_resnet20,
    encrypted_forward,
    lower,
    nn_params,
    sample_input,
)

from ..kernel_paths import KERNEL_PATHS, kernel_path

TOLERANCE = 1e-2


def run_parity(model, levels):
    low = lower(model, nn_params(levels))
    x = sample_input(model)
    return np.abs(encrypted_forward(low, x) - model.reference(x)).max()


class TestHelrParity:
    def test_helr(self):
        assert run_parity(build_helr(), levels=8) < TOLERANCE

    @pytest.mark.parametrize("backend", KERNEL_PATHS)
    def test_helr_across_backends(self, backend):
        model = build_helr()
        low = lower(model, nn_params(8))
        x = sample_input(model)
        ref = model.reference(x)
        with kernel_path(backend):
            err = np.abs(encrypted_forward(low, x) - ref).max()
        assert err < TOLERANCE


class TestReducedModels:
    def test_mini_resnet(self):
        # Same layer kinds and depth profile as the full build, shrunk to
        # one block per stage on a 4x4 image.
        model = build_resnet20(image=4, channels=(2, 4, 4),
                               blocks_per_stage=1)
        assert run_parity(model, levels=50) < TOLERANCE

    def test_mini_bert_encoder(self):
        model = build_bert_encoder(d_model=8, seq=2, num_heads=2, d_ff=16)
        assert run_parity(model, levels=50) < TOLERANCE


@pytest.mark.slow
class TestPaperModels:
    def test_bert_encoder(self):
        assert run_parity(build_bert_encoder(), levels=48) < TOLERANCE

    def test_resnet20(self):
        assert run_parity(build_resnet20(), levels=100) < TOLERANCE
