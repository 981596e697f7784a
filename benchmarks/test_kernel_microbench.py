"""Microbenchmarks of the functional FHE kernels (pytest-benchmark).

Not a paper figure — these time this repository's own numpy kernels (NTT,
base conversion, keyswitching, rotation) so regressions in the substrate
are visible.  They also ground the CPU-baseline story: even at N = 4096 a
single keyswitch costs milliseconds on a CPU, versus the ~microseconds an
accelerator-class design spends.
"""

import time

import numpy as np
import pytest

from repro.fhe import CKKSContext, make_params
from repro.fhe.backend import available_backends, use_backend
from repro.fhe.keyswitch import keyswitch
from repro.fhe.ntt import intt, ntt, ntt_batch
from repro.fhe.primes import generate_primes
from repro.fhe.rns import base_convert


@pytest.fixture(scope="module")
def ctx():
    params = make_params(ring_degree=4096, levels=8, prime_bits=28,
                         num_digits=3)
    return CKKSContext(params, seed=1)


class TestNttBench:
    @pytest.mark.parametrize("n", [1024, 4096])
    def test_forward_ntt(self, benchmark, n):
        p = generate_primes(1, 28, n)[0]
        a = np.random.default_rng(0).integers(0, p, n, dtype=np.uint64)
        ntt(a, p)  # warm the table cache
        out = benchmark(ntt, a, p)
        assert np.array_equal(intt(out, p), a)


class TestBatchedBackendSpeedup:
    """The limb-batched backends vs the seed per-limb loop.

    Acceptance gate for the kernel overhaul: at the paper shape
    ``(L=24, N=8192)`` the best batched backend must transform the whole
    limb stack at least 3x faster than the ``"numpy"`` backend's per-limb
    reference loop — and the same for 31-bit primes, which ``q_0`` and the
    extension basis of every functional parameter set are.  Comparators
    are interleaved in one process and the per-comparator minimum over
    several rounds is used, so machine noise hits both sides equally.
    """

    LIMBS = 24
    ROUNDS = 5

    def _speedups(self, bits, n):
        """Speedup of each backend over the seed loop, printed."""
        primes = tuple(generate_primes(self.LIMBS, bits, n))
        rng = np.random.default_rng(0)
        stack = rng.integers(
            0, np.array(primes, dtype=np.uint64)[:, None],
            size=(self.LIMBS, n), dtype=np.uint64)
        backends = available_backends()
        for name in backends:              # warm tables and plan caches
            with use_backend(name):
                ntt_batch(stack, primes)
        best = {name: float("inf") for name in backends}
        for _ in range(self.ROUNDS * (8 if n < 1024 else 1)):
            for name in backends:
                with use_backend(name):
                    start = time.perf_counter()
                    ntt_batch(stack, primes)
                    elapsed = time.perf_counter() - start
                if elapsed < best[name]:
                    best[name] = elapsed
        ratios = {name: best["numpy"] / t for name, t in sorted(best.items())}
        print(f"\nNTT ({bits}-bit, L={self.LIMBS}, N={n}) speedup vs seed "
              "per-limb loop: "
              + "  ".join(f"{name}={r:.2f}x ({1e6 * best[name] / self.LIMBS:.1f} "
                          "us/limb)" for name, r in ratios.items()))
        return ratios

    def test_batched_backend_3x_over_seed_loop(self):
        ratios = self._speedups(28, 8192)
        assert "numpy" in ratios and "numpy-batched" in ratios
        # The portable batched kernels must always win outright ...
        assert ratios["numpy-batched"] > 1.2
        # ... and the best batched backend clears the 3x acceptance bar
        # (the compiled "native" backend where a toolchain exists).
        if "native" not in ratios:
            pytest.skip(
                "native backend unavailable (no C toolchain); "
                f"numpy-batched is {ratios['numpy-batched']:.2f}x")
        assert max(r for name, r in ratios.items() if name != "numpy") >= 3

    @pytest.mark.parametrize("n,native_bar,batched_bar",
                             [(8192, 4.0, 1.0), (256, 10.0, 2.0)])
    def test_wide_primes_beat_the_seed_loop(self, n, native_bar, batched_bar):
        """31-bit primes run the wide path, not the per-limb fallback.
        On small rings the call overhead of the loop dominates and both
        backends win big; at N=8192 the stacked numpy butterflies are
        memory-bound and only have to not lose."""
        ratios = self._speedups(31, n)
        assert ratios["numpy-batched"] >= batched_bar
        if "native" in ratios:
            assert ratios["native"] >= native_bar


class TestBaseConversionBench:
    def test_bconv_4096(self, benchmark):
        n = 4096
        primes = generate_primes(8, 28, n)
        source, target = primes[:3], primes[3:]
        rng = np.random.default_rng(1)
        limbs = np.stack([rng.integers(0, q, n, dtype=np.uint64)
                          for q in source])
        base_convert(limbs, source, target)  # warm the plan cache
        out = benchmark(base_convert, limbs, source, target)
        assert out.shape == (5, n)


class TestKeyswitchBench:
    def test_keyswitch_4096(self, benchmark, ctx):
        params = ctx.params
        d = ctx.keychain.rng.uniform_poly(params.moduli, params.ring_degree)
        evk = ctx.keychain.relin_key(params.max_level)
        f0, f1 = benchmark(keyswitch, d, evk, params)
        assert f0.level == params.max_level


class TestHomomorphicOpBench:
    def test_rotation(self, benchmark, ctx):
        from repro.fhe import Evaluator

        ev = Evaluator(ctx)
        z = np.linspace(-1, 1, ctx.params.slot_count)
        ct = ctx.encrypt_values(z)
        out = benchmark(ev.rotate, ct, 5)
        res = ctx.decrypt_values(out).real
        assert np.max(np.abs(res - np.roll(z, -5))) < 1e-3

    def test_multiplication(self, benchmark, ctx):
        from repro.fhe import Evaluator

        ev = Evaluator(ctx)
        z = np.linspace(-1, 1, ctx.params.slot_count)
        ct = ctx.encrypt_values(z)
        out = benchmark(ev.mul, ct, ct)
        res = ctx.decrypt_values(out).real
        assert np.max(np.abs(res - z * z)) < 1e-3
