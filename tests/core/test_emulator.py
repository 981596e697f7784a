"""Emulator validation: compiled ISA reproduces evaluator semantics.

This is the paper's own correctness methodology (Section 6.2): run every
compiled program on a functional CPU emulator of the Cinnamon ISA and
check the decrypted outputs.
"""

import numpy as np
import pytest

from repro.core import CompilerDriver, CinnamonProgram, CompilerOptions
from repro.core.dsl import StreamPool
from repro.core.isa.emulator import build_memory_image, emulate, IsaEmulator
from repro.fhe import CKKSContext, make_params

TOL = 1e-3


@pytest.fixture(scope="module")
def env():
    params = make_params(ring_degree=128, levels=6, prime_bits=28,
                         num_digits=2)
    return params, CKKSContext(params, seed=77)


def _run(env, build, inputs, plaintexts=None, chips=2, **opts):
    params, ctx = env
    prog = build()
    compiled = CompilerDriver(
        params, CompilerOptions(num_chips=chips, **opts)).compile(prog)
    bound = {name: ctx.encrypt_values(vec) for name, vec in inputs.items()}
    outs = emulate(compiled, ctx, bound, plaintexts)
    return {name: ctx.decrypt_values(ct) for name, ct in outs.items()}


class TestArithmetic:
    def test_add_mul_chain(self, env, rng):
        params, ctx = env
        za = rng.uniform(-1, 1, params.slot_count)
        zb = rng.uniform(-1, 1, params.slot_count)

        def build():
            prog = CinnamonProgram("chain", level=6)
            a, b = prog.input("a"), prog.input("b")
            prog.output("y", (a + b) * (a - b))
            return prog

        out = _run(env, build, {"a": za, "b": zb})
        assert np.max(np.abs(out["y"].real - (za + zb) * (za - zb))) < TOL

    def test_scalar_and_plain_ops(self, env, rng):
        params, ctx = env
        za = rng.uniform(-1, 1, params.slot_count)
        w = rng.uniform(-1, 1, params.slot_count)

        def build():
            prog = CinnamonProgram("plain", level=6)
            a = prog.input("a")
            y = a * prog.plaintext("w") + 0.25
            prog.output("y", y * 2.0)
            return prog

        out = _run(env, build, {"a": za}, plaintexts={"w": w})
        assert np.max(np.abs(out["y"].real - 2 * (za * w + 0.25))) < TOL

    def test_negate(self, env, rng):
        params, ctx = env
        za = rng.uniform(-1, 1, params.slot_count)

        def build():
            prog = CinnamonProgram("neg", level=6)
            prog.output("y", -prog.input("a"))
            return prog

        out = _run(env, build, {"a": za})
        assert np.max(np.abs(out["y"].real + za)) < TOL


class TestRotations:
    @pytest.mark.parametrize("policy", ["cinnamon", "input_broadcast", "cifher"])
    def test_rotation_policies(self, env, rng, policy):
        params, ctx = env
        za = rng.uniform(-1, 1, params.slot_count)

        def build():
            prog = CinnamonProgram("rot", level=6)
            a = prog.input("a")
            prog.output("y", a.rotate(3))
            return prog

        out = _run(env, build, {"a": za}, chips=4, keyswitch_policy=policy)
        assert np.max(np.abs(out["y"].real - np.roll(za, -3))) < TOL

    def test_hoisted_batch(self, env, rng):
        params, ctx = env
        za = rng.uniform(-1, 1, params.slot_count)
        zb = rng.uniform(-1, 1, params.slot_count)

        def build():
            prog = CinnamonProgram("hoist", level=6)
            a, b = prog.input("a"), prog.input("b")
            terms = [a.rotate(i) * b for i in (1, 2, 5)]
            prog.output("y", (terms[0] + terms[1]) + terms[2])
            return prog

        out = _run(env, build, {"a": za, "b": zb}, chips=4)
        expect = sum(np.roll(za, -i) * zb for i in (1, 2, 5))
        assert np.max(np.abs(out["y"].real - expect)) < TOL

    def test_rotate_sum_fusion(self, env, rng):
        params, ctx = env
        za = rng.uniform(-1, 1, params.slot_count)
        zb = rng.uniform(-1, 1, params.slot_count)

        def build():
            prog = CinnamonProgram("rs", level=6)
            a, b = prog.input("a"), prog.input("b")
            c = a * b
            prog.output("y", c.rotate(1) + c.rotate(2) + c.rotate(4))
            return prog

        out = _run(env, build, {"a": za, "b": zb}, chips=4)
        zc = za * zb
        expect = np.roll(zc, -1) + np.roll(zc, -2) + np.roll(zc, -4)
        assert np.max(np.abs(out["y"].real - expect)) < TOL

    def test_conjugate(self, env, rng):
        params, ctx = env
        za = rng.uniform(-1, 1, params.slot_count) \
            + 1j * rng.uniform(-1, 1, params.slot_count)

        def build():
            prog = CinnamonProgram("conj", level=6)
            prog.output("y", prog.input("a").conjugate())
            return prog

        out = _run(env, build, {"a": za})
        assert np.max(np.abs(out["y"] - np.conj(za))) < TOL


class TestParallelMachines:
    @pytest.mark.parametrize("chips", [1, 2, 3, 4])
    def test_chip_counts_agree(self, env, rng, chips):
        params, ctx = env
        za = rng.uniform(-1, 1, params.slot_count)
        zb = rng.uniform(-1, 1, params.slot_count)

        def build():
            prog = CinnamonProgram("n", level=6)
            a, b = prog.input("a"), prog.input("b")
            prog.output("y", (a * b).rotate(2) + a)
            return prog

        out = _run(env, build, {"a": za, "b": zb}, chips=chips)
        expect = np.roll(za * zb, -2) + za
        assert np.max(np.abs(out["y"].real - expect)) < TOL

    def test_streams_independent(self, env, rng):
        params, ctx = env
        vals = {f"x{s}": rng.uniform(-1, 1, params.slot_count)
                for s in range(2)}

        def build():
            prog = CinnamonProgram("st", level=6)

            def fn(sid):
                x = prog.input(f"x{sid}")
                prog.output(f"y{sid}", (x * x).rotate(1))

            StreamPool(prog, 2, fn)
            return prog

        out = _run(env, build, vals, chips=4)
        for s in range(2):
            v = vals[f"x{s}"]
            assert np.max(np.abs(out[f"y{s}"].real
                                 - np.roll(v * v, -1))) < TOL


class TestMemoryImage:
    def test_missing_input_raises(self, env):
        params, ctx = env
        prog = CinnamonProgram("m", level=6)
        prog.output("y", prog.input("a") * 1.0)
        compiled = CompilerDriver(
            params, CompilerOptions(num_chips=1)).compile(prog)
        with pytest.raises(KeyError):
            build_memory_image(compiled, ctx, {})

    def test_missing_plaintext_raises(self, env):
        params, ctx = env
        prog = CinnamonProgram("m2", level=6)
        a = prog.input("a")
        prog.output("y", a * prog.plaintext("w"))
        compiled = CompilerDriver(
            params, CompilerOptions(num_chips=1)).compile(prog)
        with pytest.raises(KeyError):
            build_memory_image(compiled, ctx,
                               {"a": ctx.encrypt_values([1.0])})

    def test_context_of_another_prime_chain_is_refused(self):
        """HELR compiled for ``nn_params(8)`` and emulated with a context
        of ``nn_params(9)`` used to decrypt with a max error of 43 and
        raise nothing: its limbs were reduced by the other chain's
        primes.  A fresh context of the same chain is accepted."""
        from repro.nn import (build_helr, lower, nn_params, pack_input,
                              sample_input)

        model = build_helr()
        lowered = lower(model, nn_params(8))
        compiled = CompilerDriver(nn_params(8), CompilerOptions(
            machine=4)).compile(lowered.program)
        x = sample_input(model, seed=3)
        for levels in (8, 9):
            ctx = CKKSContext(nn_params(levels), seed=3)
            slots = ctx.params.slot_count
            ct = ctx.encrypt_values(pack_input(x, lowered.spec, slots),
                                    level=lowered.plan.input_level)
            build = lambda: build_memory_image(  # noqa: E731
                compiled, ctx, {lowered.input_name: ct},
                lowered.bind_plaintexts(slots))
            if levels == 8:
                build()
            else:
                with pytest.raises(ValueError, match="prime chain"):
                    build()

    def test_unknown_output_raises(self, env):
        params, ctx = env
        prog = CinnamonProgram("m3", level=6)
        prog.output("y", prog.input("a") * 1.0)
        compiled = CompilerDriver(
            params, CompilerOptions(num_chips=1)).compile(prog)
        memory = build_memory_image(
            compiled, ctx, {"a": ctx.encrypt_values([1.0])})
        emulator = IsaEmulator(compiled, memory)
        emulator.run()
        with pytest.raises(KeyError):
            emulator.output_ciphertext("nope", params)
