"""Golden parity of the two kernel paths.

:mod:`repro.fhe.kernels` runs the C loops of :mod:`repro.fhe.native` when
that library builds and its numpy code otherwise.  Both must produce
*bit-identical* limbs to the per-limb reference kernels — they are
alternative evaluation strategies, never alternative semantics — and
refuse the same malformed calls.  Every test here runs on both paths
(``tests/kernel_paths.py``; the C leg skips without a C toolchain).
"""

import numpy as np
import pytest

from repro.fhe import get_backend, kernels, make_params, native
from repro.nn import nn_params
from repro.fhe.ntt import (
    intt_reference,
    negacyclic_convolve_reference,
    ntt_reference,
)
from repro.fhe.primes import generate_primes
from repro.fhe.rns import mod_down_reference, mod_up_reference

from ..kernel_paths import KERNEL_PATHS, kernel_path


def _wide(count, n):
    return generate_primes(count, 31, n)


def _narrow(count, n):
    return generate_primes(count, 28, n) + generate_primes(1, 30, n)


#: Prime stacks around the wide bound, by ring degree.
WIDE_STACKS = {
    "wide": lambda n: _wide(3, n),
    "mixed": lambda n: _wide(1, n) + _narrow(2, n) + _wide(3, n)[1:],
    "single-wide": lambda n: _wide(1, n),
    "single-narrow": lambda n: _narrow(1, n)[:1],
    "repeated": lambda n: (_wide(2, n) * 3 + _narrow(2, n)[1:] * 2
                           + _wide(2, n)[:1]),
}


def seeded_stack(primes, n, seed=0):
    rng = np.random.default_rng(seed)
    bound = np.array(primes, dtype=np.uint64)[:, None]
    return rng.integers(0, bound, size=(len(primes), n), dtype=np.uint64)


def reference_ntt_stack(stack, primes, inverse=False):
    fn = intt_reference if inverse else ntt_reference
    return np.stack([fn(stack[i], int(q)) for i, q in enumerate(primes)])


@pytest.mark.parametrize("name", KERNEL_PATHS)
class TestGoldenParity:
    """Bit-identity of both kernel paths vs the reference kernels."""

    @pytest.mark.parametrize("limbs,n", [(1, 64), (2, 64), (24, 64),
                                         (1, 8192), (2, 8192), (24, 8192)])
    def test_ntt_roundtrip_bit_identical(self, name, limbs, n):
        primes = generate_primes(limbs, 28, n)
        stack = seeded_stack(primes, n, seed=limbs * n)
        with kernel_path(name):
            forward = kernels.ntt_batch(stack, primes)
            back = kernels.intt_batch(forward, primes)
        assert np.array_equal(forward, reference_ntt_stack(stack, primes))
        assert np.array_equal(
            back, reference_ntt_stack(forward, primes, inverse=True))
        assert np.array_equal(back, stack)

    def test_negacyclic_convolution_vs_schoolbook(self, name):
        n = 64
        primes = generate_primes(2, 28, n)
        a = seeded_stack(primes, n, seed=11)
        b = seeded_stack(primes, n, seed=22)
        with kernel_path(name):
            prod = kernels.intt_batch(
                kernels.pointwise_mulmod(
                    kernels.ntt_batch(a, primes),
                    kernels.ntt_batch(b, primes), primes),
                primes)
        for i, q in enumerate(primes):
            want = negacyclic_convolve_reference(a[i], b[i], int(q))
            assert np.array_equal(prod[i], want)

    def test_mod_up_down_roundtrip_at_paper_params(self, name):
        params = make_params(ring_degree=64, levels=8, prime_bits=28,
                             num_digits=3)
        base = params.moduli
        ext = params.extension_moduli
        stack = seeded_stack(base, params.ring_degree, seed=33)
        with kernel_path(name):
            up = kernels.mod_up(stack, base, base + ext)
            down = kernels.mod_down(up, base, ext)
        # Golden parity: both directions bit-identical to the per-limb
        # reference (mod_down divides by the extension product, so the
        # round-trip is x/P — correctness of that rounding is pinned by
        # tests/fhe/test_rns.py; here we pin backend bit-identity).
        assert np.array_equal(up, mod_up_reference(stack, base, base + ext))
        assert np.array_equal(down, mod_down_reference(up, base, ext))
        assert np.array_equal(up[:len(base)], stack)

    def test_base_convert_matches_reference(self, name):
        n = 64
        primes = generate_primes(8, 28, n)
        source, target = primes[:3], primes[3:]
        stack = seeded_stack(source, n, seed=44)
        from repro.fhe.rns import get_conversion_plan

        want = get_conversion_plan(source, target).convert(stack)
        with kernel_path(name):
            got = kernels.base_convert(stack, source, target)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("sources,targets", [(6, 18), (6, 8), (4, 14)])
    def test_base_convert_at_bootstrap_shapes(self, name, sources, targets,
                                              monkeypatch):
        """The bootstrap's mod-up / mod-down shapes, 28- and 31-bit primes
        on both sides; the C path never reaches the float64 GEMMs."""
        from repro.fhe.rns import get_conversion_plan

        n = 256
        primes = (generate_primes(sources + targets - 6, 28, n)
                  + generate_primes(6, 31, n))
        rng = np.random.default_rng(sources * targets)
        order = rng.permutation(len(primes))
        source = [primes[i] for i in order[:sources]]
        target = [primes[i] for i in order[sources:]]
        stack = seeded_stack(source, n, seed=sources + targets)
        want = get_conversion_plan(source, target).convert(stack)
        if name == "native":
            monkeypatch.setattr(kernels.BatchedConversionPlan, "convert",
                                None)
        with kernel_path(name):
            got = kernels.base_convert(stack, source, target)
        assert got.dtype == np.uint64
        assert np.array_equal(got, want)

    def test_pointwise_mulmod_matches_reference(self, name):
        n = 256
        primes = generate_primes(3, 28, n)
        a = seeded_stack(primes, n, seed=55)
        b = seeded_stack(primes, n, seed=66)
        want = np.stack([(a[i] * b[i]) % np.uint64(q)
                         for i, q in enumerate(primes)])
        with kernel_path(name):
            got = kernels.pointwise_mulmod(a, b, primes)
        assert np.array_equal(got, want)

    def test_pointwise_mulmod_column_and_wide_primes(self, name):
        """A per-limb scalar column (how rescale and ``scalar_mul_rns``
        call it) and a strided view, over mixed 28/31-bit rows."""
        n = 128
        primes = WIDE_STACKS["mixed"](n)
        a = seeded_stack(primes, n, seed=88)
        b = seeded_stack(primes, 2 * n, seed=99)
        for other in (b[:, :1], b[:, ::2]):
            want = np.stack([(a[i] * other[i]) % np.uint64(q)
                             for i, q in enumerate(primes)])
            with kernel_path(name):
                got = kernels.pointwise_mulmod(a, other, primes)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [64, 256, 8192])
    @pytest.mark.parametrize("shape", sorted(WIDE_STACKS))
    def test_wide_and_mixed_stacks_bit_identical(self, name, shape, n):
        """Primes in [2**30, 2**31) take the wide path, chosen per row:
        alone, mixed with narrow rows, as a single row, and repeated
        within one call (what an ISA emulator group looks like) — through
        the per-tuple entry point and through the row-indexed one."""
        primes = WIDE_STACKS[shape](n)
        stack = seeded_stack(primes, n, seed=77 + n)
        want = reference_ntt_stack(stack, primes)
        table = tuple(dict.fromkeys(primes))[::-1]    # not in stack order
        rows = np.array([table.index(q) for q in primes], dtype=np.uint8)
        with kernel_path(name):
            forward = kernels.ntt_batch(stack, primes)
            back = kernels.intt_batch(forward, primes)
            forward_rows = kernels.ntt_batch(stack, table, rows)
            back_rows = kernels.intt_batch(forward, table, rows)
        assert np.array_equal(forward, want)
        assert np.array_equal(
            back, reference_ntt_stack(want, primes, inverse=True))
        assert np.array_equal(back, stack)
        assert np.array_equal(forward_rows, want)
        assert np.array_equal(back_rows, stack)


def group_oracle(op, store, srcs, primes, rows, constants):
    """:func:`repro.fhe.kernels.limb_group`'s expressions one instruction
    at a time (uint64 wrap-around included)."""
    out = np.empty((srcs.shape[1], store.shape[1]), dtype=np.uint64)
    for i in range(srcs.shape[1]):
        p = np.uint64(primes[rows[i]])
        a, *rest = (store[srcs[j, i]] for j in range(len(srcs)))
        if op == "add":
            out[i] = (a + rest[0]) % p
        elif op == "sub":
            out[i] = (a + p - rest[0]) % p
        elif op == "neg":
            out[i] = (p - a) % p
        elif op == "mul":
            out[i] = (a * rest[0]) % p
        elif op == "mulc":
            out[i] = (a * constants[i]) % p
        elif op == "bcv":
            acc = a * constants[i, 0]
            for j, limb in enumerate(rest, start=1):
                if j % 3 == 0:
                    acc %= p
                acc += limb * constants[i, j]
            out[i] = acc % p
        elif op == "sum":
            out[i] = (a + sum(rest, np.zeros_like(a))) % p
        else:                                   # rsv
            source = np.int64(constants[i])
            signed = a.astype(np.int64)
            signed = np.where(signed > source // 2, signed - source, signed)
            out[i] = np.mod(signed, np.int64(p))
    return out


#: Operand count per group op; ``bcv`` and ``sum`` take several widths.
GROUP_ARITIES = {"add": [2], "sub": [2], "neg": [1], "mul": [2],
                 "mulc": [1], "bcv": list(range(1, 27)), "sum": [2, 3, 7],
                 "rsv": [1]}


@pytest.mark.parametrize("name", KERNEL_PATHS)
class TestLimbGroupParity:
    """The ISA emulator's pointwise groups: both paths equal the numpy
    expressions on any uint64 operands — not just canonical residues, as
    random cross-ring instruction streams feed them."""

    n = 64
    #: Mixed 28/31-bit table, not in the order the rows name it.
    table = tuple(generate_primes(2, 31, 64) + generate_primes(3, 28, 64))

    def _case(self, op, arity, seed, count=6, slots=40):
        rng = np.random.default_rng(seed)
        store = rng.integers(0, 1 << 32, size=(slots, self.n),
                             dtype=np.uint64)
        srcs = rng.integers(0, slots, size=(arity, count)).astype(np.int32)
        rows = rng.integers(0, len(self.table), size=count).astype(np.uint8)
        constants = {
            "mulc": rng.integers(0, 1 << 31, size=count, dtype=np.uint64),
            "bcv": rng.integers(0, 1 << 31, size=(count, 26),
                                dtype=np.uint64),
            "rsv": np.array(self.table, dtype=np.uint64)[
                rng.integers(0, len(self.table), size=count)],
        }.get(op)
        if op == "rsv":
            # Both sides of the centering threshold, and int64-negative
            # values, one a multiple of the target prime.
            srcs[0] = rng.permutation(slots)[:count]
            for row, source, target in zip(srcs[0], constants, rows):
                store[row, :4] = (int(source) // 2, int(source) // 2 + 1,
                                  2**63 + 5, 2**64 - 3 * self.table[target])
        return store, srcs, rows, constants

    @pytest.mark.parametrize("op,arity", [
        (op, arity) for op, arities in GROUP_ARITIES.items()
        for arity in arities])
    def test_group_matches_numpy_expressions(self, name, op, arity):
        store, srcs, rows, constants = self._case(op, arity, seed=arity)
        want = group_oracle(op, store, srcs, self.table, rows, constants)
        with kernel_path(name):
            got = kernels.limb_group(op, store, srcs, self.table, rows,
                                     constants)
        assert got.dtype == np.uint64
        assert np.array_equal(got, want)

    def test_sub_wraps_below_zero(self, name):
        """``b > a + p``: the uint64 difference wraps, verbatim."""
        store, srcs, rows, _ = self._case("sub", 2, seed=5)
        p = np.array(self.table, dtype=np.uint64)[rows]
        store[srcs[1]] = store[srcs[0]] + p[:, None] + np.uint64(1)
        want = group_oracle("sub", store, srcs, self.table, rows, None)
        with kernel_path(name):
            got = kernels.limb_group("sub", store, srcs, self.table, rows)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("op", ["add", "mul", "bcv", "sum"])
    def test_destination_aliases_a_source(self, name, op):
        """Written back as the emulator does (``store[dst] = out``) with a
        destination that is an operand of the same group, and one operand
        read twice by one instruction."""
        arity = 4 if op in ("bcv", "sum") else 2
        store, srcs, rows, constants = self._case(op, arity, seed=9)
        srcs[1, 0] = srcs[0, 0]
        dst = np.roll(srcs[arity - 1], 1)
        want = store.copy()
        want[dst] = group_oracle(op, store, srcs, self.table, rows,
                                 constants)
        with kernel_path(name):
            store[dst] = kernels.limb_group(op, store, srcs, self.table,
                                            rows, constants)
        assert np.array_equal(store, want)


class TestIntegersToRns:
    """The int64 fast path equals the big-int path it replaces."""

    @pytest.mark.parametrize("bits", [28, 31])
    def test_int64_matches_python_ints(self, bits):
        from repro.fhe.rns import integers_to_rns

        primes = generate_primes(4, bits, 64)
        edge = [0, 1, -1, 2**62 - 1, -(2**62 - 1), -(2**63), 2**63 - 1]
        rng = np.random.default_rng(bits)
        values = np.concatenate([
            np.array(edge, dtype=np.int64),
            rng.integers(-(2**62), 2**62, size=57, dtype=np.int64)])
        fast = integers_to_rns(values, primes)
        slow = integers_to_rns([int(v) for v in values], primes)
        assert fast.dtype == slow.dtype == np.uint64
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast[:, 0], np.zeros(4, dtype=np.uint64))
        assert np.array_equal(fast[:, 2],
                              np.array(primes, dtype=np.uint64) - 1)

    def test_delta_squared_encode_takes_the_big_int_path(self, monkeypatch):
        """Coefficients past 2**62 (a Delta^2-scale plaintext) must stay
        Python ints: an int64 cast would wrap them."""
        from repro.fhe import CKKSContext
        from repro.fhe import encoding

        params = make_params(ring_degree=64, levels=6, prime_bits=28,
                             num_digits=3)
        encoder = CKKSContext(params, seed=1).encoder
        seen = []
        real = encoding.integers_to_rns

        def spy(values, primes):
            seen.append(type(values))
            return real(values, primes)

        monkeypatch.setattr(encoding, "integers_to_rns", spy)
        z = np.full(params.slot_count, 0.75)    # one coefficient: 0.75 scale
        scale = float(params.scale) ** 2 * 2**8
        assert 0.75 * scale > 2**62
        decoded = encoder.decode(encoder.encode(z, scale=scale))
        assert seen == [list]
        assert np.max(np.abs(decoded.real - z)) < 1e-6
        encoder.encode(z)
        assert seen == [list, np.ndarray]


@pytest.mark.parametrize("name", KERNEL_PATHS)
class TestNoPerLimbFallback:
    """Every basis ``make_params`` / ``nn_params`` builds carries a 31-bit
    ``q_0`` and 31-bit extension primes.  Both kernel paths must transform
    them without the per-limb reference loop: a silent return to it costs
    4x on every keyswitch and fails here, not in a benchmark."""

    @pytest.mark.parametrize("make", [
        lambda: make_params(ring_degree=256, levels=6, prime_bits=28,
                            num_digits=3),
        lambda: nn_params(50),
    ], ids=["make_params", "nn_params_50"])
    def test_keyswitch_rescale_to_eval(self, name, make, monkeypatch):
        from repro.fhe import CKKSContext, Evaluator, ntt

        params = make()
        assert max(params.moduli + params.extension_moduli) >= 1 << 30
        with kernel_path(name):
            ctx = CKKSContext(params, seed=3)
            ev = Evaluator(ctx)
            ct = ctx.encrypt_values(
                np.linspace(-1, 1, params.slot_count))
            ev.rotate(ct, 1)                  # generates the key

            def fail(*args, **kwargs):
                raise AssertionError("per-limb reference NTT reached")

            monkeypatch.setattr(ntt, "ntt_reference", fail)
            monkeypatch.setattr(ntt, "intt_reference", fail)
            rotated = ev.rotate(ct, 1)                        # keyswitch
            scaled = ev.rescale(ev.mul(ct, ct, rescale=False))
            round_trip = rotated.polys[0].to_coeff().to_eval()
        assert np.array_equal(round_trip.data, rotated.polys[0].to_eval().data)
        assert scaled.level == ct.level - 1


@pytest.mark.parametrize("name", KERNEL_PATHS)
def test_moduli_must_match_the_stack(name):
    """The compiled kernel indexes tables by row: a stack with more limbs
    than moduli named, or a row index past the table, is refused in
    Python."""
    n = 64
    primes = generate_primes(2, 28, n)
    stack = seeded_stack(primes + primes[:1], n)
    with kernel_path(name):
        with pytest.raises(ValueError, match="3 limbs but 2 moduli"):
            kernels.ntt_batch(stack, primes)
        with pytest.raises(IndexError):
            kernels.intt_batch(stack, primes, rows=[0, 1, 2])


@pytest.mark.parametrize("name", KERNEL_PATHS)
def test_limb_count_mismatch_is_refused_alike(name):
    """One modulus per limb (per instruction of a group) on both paths:
    the numpy fallback raises the C path's error rather than reducing
    every row by the first prime or returning fewer limbs."""
    n = 64
    primes = generate_primes(3, 28, n)
    stack = seeded_stack(primes, n)
    with kernel_path(name):
        with pytest.raises(ValueError, match="^3 limbs but 1 moduli named$"):
            kernels.pointwise_mulmod(stack, stack, primes[:1])
        with pytest.raises(ValueError, match="^3 limbs but 1 moduli named$"):
            kernels.pointwise_mulmod(stack, stack[:, :1], primes[:1])
        for transform in (kernels.ntt_batch, kernels.intt_batch):
            with pytest.raises(ValueError,
                               match="^3 limbs but 2 moduli named$"):
                transform(stack, primes[:2])
        srcs = np.array([[0, 1, 2], [1, 2, 0]])
        with pytest.raises(ValueError,
                           match="^3 instructions but 1 moduli named$"):
            kernels.limb_group("add", stack, srcs, primes, np.array([0]))
        with pytest.raises(ValueError, match="^1 limbs but 2 moduli named$"):
            kernels.base_convert(stack[:1], primes[:2], primes[2:])


def test_native_group_refuses_what_c_would_read_out_of_bounds():
    """Operand rows, prime rows and constants are checked in Python."""
    n = 64
    primes = tuple(generate_primes(2, 28, n))
    store = seeded_stack(primes * 2, n)
    srcs = np.array([[0, 1], [2, 3]])
    rows = np.array([0, 1])
    with kernel_path("native"):
        with pytest.raises(IndexError):
            kernels.limb_group("add", store, srcs + 3, primes, rows)
        with pytest.raises(IndexError):
            kernels.limb_group("add", store, srcs, primes, rows + 1)
        with pytest.raises(ValueError, match="constants of shape"):
            kernels.limb_group("bcv", store, srcs, primes, rows,
                               np.ones((2, 1), dtype=np.uint64))
        with pytest.raises(ValueError, match="constants of shape"):
            kernels.limb_group("mulc", store, srcs[:1], primes, rows,
                               np.ones(3, dtype=np.uint64))
        with pytest.raises(ValueError, match="unknown limb group op"):
            kernels.limb_group("div", store, srcs, primes, rows)


@pytest.mark.parametrize("name", KERNEL_PATHS)
def test_concurrent_first_use_of_primes_shares_one_plan(name):
    """The per-ring-degree plan grows a row per new prime; threads meeting
    new primes at the same time must each still see their own rows."""
    import sys
    import threading

    n = 128
    primes = generate_primes(12, 27, n) + generate_primes(12, 31, n)
    failures = []

    def transform(worker):
        mine = primes[worker::4] + primes[:2]
        stack = seeded_stack(mine, n, seed=worker)
        for _ in range(5):
            if not np.array_equal(kernels.ntt_batch(stack, mine),
                                  reference_ntt_stack(stack, mine)):
                failures.append(worker)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with kernel_path(name):
            threads = [threading.Thread(target=transform, args=(w,))
                       for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures


class TestDefaultPath:
    """C whenever the library builds, numpy otherwise, and the report says
    which."""

    def test_default_backend_prefers_native(self):
        if native.load_library() is not None:
            assert get_backend().name == "native"
            assert native.build_error() is None
        else:
            assert get_backend().name == "numpy-batched"
            assert native.build_error()
        with kernel_path("numpy-batched"):
            assert get_backend().name == "numpy-batched"
