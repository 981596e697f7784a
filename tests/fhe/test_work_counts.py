"""Work counts of a warm encrypted op: a gate on work done, not seconds.

A real constant is one residue per limb (no embedding, no NTT) and a
rescale is one C call for every polynomial of a ciphertext, so a warm
ring-256 bootstrap — the ``encrypted_exec`` benchmark's parameters —
encodes nothing and makes a pinned number of calls into the C kernels,
and a warm mini-BERT forward encodes only its non-constant plaintexts.
Calls are counted at the library boundary: every ``repro_*`` function
the kernels reach through :func:`repro.fhe.native.load_library`.
"""

from collections import Counter

import numpy as np
import pytest

from repro.fhe import CKKSContext, make_params, native
from repro.fhe.bootstrap import Bootstrapper
from repro.fhe.encoding import CKKSEncoder
from repro.fhe.evaluator import Evaluator

#: C calls of one warm bootstrap: 884 NTT/INTT, 2 968 pointwise products,
#: 522 base conversions (two calls each) and 406 rescales.  Each constant
#: cost an NTT and each rescale eight calls before: 7 692 in all.
BOOTSTRAP_C_CALLS = 5_302
#: A warm mini-BERT forward: the emulator's replay, an NTT per vector
#: plaintext, and encryption's and decryption's transforms and products.
BERT_C_CALLS = 129
BERT_VECTOR_PLAINTEXTS = 121


class _CountingLibrary:
    """The C library, counting each call by function name."""

    def __init__(self, lib):
        self._lib = lib
        self.calls = Counter()

    def __getattr__(self, name):
        function = getattr(self._lib, name)

        def call(*args):
            self.calls[name] += 1
            return function(*args)
        return call


@pytest.fixture
def counted(monkeypatch):
    """``(C calls, encoder and rescale calls)`` of what runs after it."""
    calls = Counter()
    for owner, name in ((CKKSEncoder, "encode"), (Evaluator, "rescale")):
        method = getattr(owner, name)

        def spy(*args, _method=method, _name=name, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
    lib = native.load_library()
    library = None
    if lib is not None:
        library = _CountingLibrary(lib)
        monkeypatch.setattr(native, "load_library", lambda: library)
    return library, calls


def _warm(run, counted):
    """Run once to generate keys and caches, then count a second run."""
    run()
    library, calls = counted
    calls.clear()
    if library is not None:
        library.calls.clear()
    run()
    return library, calls


@pytest.fixture(scope="module")
def bootstrap_run():
    params = make_params(ring_degree=256, levels=18, prime_bits=28,
                         num_digits=3, secret_hamming_weight=32)
    boot = Bootstrapper(CKKSContext(params, seed=1))
    z = np.random.default_rng(1).uniform(-0.5, 0.5, params.slot_count)
    ct = boot.encrypt_for_bootstrap(z)
    return lambda: boot.bootstrap(ct)


@pytest.fixture(scope="module")
def bert_run():
    from repro.nn import (build_bert_encoder, encrypted_forward, lower,
                          nn_params, sample_input)
    from repro.runtime import CinnamonSession

    model = build_bert_encoder(d_model=8, seq=2, num_heads=2, d_ff=16)
    params = nn_params(50)
    lowered = lower(model, params)
    context = CKKSContext(params, seed=1)
    x = sample_input(model, seed=1)
    session = CinnamonSession()
    return lambda: encrypted_forward(lowered, x, context, machine=2,
                                     session=session)


def test_warm_bootstrap_encodes_no_constant(bootstrap_run, counted):
    _, calls = _warm(bootstrap_run, counted)
    assert calls["encode"] == 0
    assert calls["rescale"] == 406


def test_warm_bootstrap_c_calls(bootstrap_run, counted):
    library, calls = _warm(bootstrap_run, counted)
    if library is None:
        pytest.skip(f"no C kernels: {native.build_error()}")
    total = sum(library.calls.values())
    assert library.calls["repro_rescale"] == calls["rescale"]
    assert total <= BOOTSTRAP_C_CALLS * 1.02, dict(library.calls)


def test_warm_mini_bert_encodes_only_vector_plaintexts(bert_run, counted):
    library, calls = _warm(bert_run, counted)
    assert calls["encode"] == BERT_VECTOR_PLAINTEXTS
    if library is not None:
        assert library.calls["repro_replay"] == 1
        assert sum(library.calls.values()) <= BERT_C_CALLS * 1.02, \
            dict(library.calls)
