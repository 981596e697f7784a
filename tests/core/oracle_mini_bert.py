"""The emulator oracle on the contract benchmark's mini-BERT.

329 241 instructions on 2 chips, 36 393 memory symbols; the interpreter
alone takes several seconds, so this file is deliberately not named
``test_*``: a plain ``pytest`` run does not collect it, and ``tests.yml``
runs it by name (``python -m pytest tests/core/oracle_mini_bert.py``).
"""

import pytest

from repro.nn import build_bert_encoder

from ..kernel_paths import KERNEL_PATHS, kernel_path
from .test_emulator_oracle import encrypted_model, run_both


@pytest.fixture(scope="module")
def forward():
    model = build_bert_encoder(d_model=8, seq=2, num_heads=2, d_ff=16)
    return encrypted_model(model, 50, 2, seed=7)


@pytest.mark.parametrize("backend", KERNEL_PATHS)
def test_mini_bert_matches_reference(forward, backend):
    compiled, image = forward
    assert compiled.instruction_count > 300_000
    with kernel_path(backend):
        final = run_both(compiled, image)
    assert len(final) > 30_000
