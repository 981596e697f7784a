"""Bit-exact oracle: every compiled keyswitch equals ``fhe/keyswitch.py``.

The compiled path — keyswitch pass, limb lowering, ISA, batch-scheduled
emulator — must store, in every output limb, exactly what the functional
math computes: RNS arithmetic is exact, so a single differing residue is a
bug, never noise.  Every program runs under every keyswitch policy, on 1,
2, 4 and 8 chips, with batching on and off, on every kernel backend.

Which math applies depends on the form the keyswitch pass chose, read back
from ``compiled.pass_stats``:

==========================  ================================================
compiled form               oracle
==========================  ================================================
un-hoisted keyswitch        ``Evaluator.mul`` / ``rotate`` / ``conjugate``
member of a hoisted batch   :func:`hoisted` — one ``hoisted_decompose`` of
                            the source, then per member the automorphism of
                            every digit, ``evalkey_accumulate`` and
                            ``moddown_poly`` (by galois element: the pass
                            hoists the conjugation with the rotations)
fused ``rotate_sum``        :func:`fused` — every digit's evalkey product
(cinnamon + batching)       mod-downed on its own, then summed over digits
                            and members; the digits are the partition the
                            compiled evalkey signature names
==========================  ================================================

Each case asserts that the pattern it relies on fired, so no case passes
without running the form it claims.  The rotation-only programs also pin
``summarize_comm()`` to the closed forms of the paper's algorithmic
analysis (Sections 4.3 and 7.4).
"""

import numpy as np
import pytest

from repro.core import CinnamonProgram, CompilerDriver, CompilerOptions
from repro.core.ir.verifier import verify_limb_program
from repro.fhe import CKKSContext, Evaluator, make_params
from repro.fhe.backend import available_backends, use_backend
from repro.fhe.ciphertext import Ciphertext
from repro.fhe.encoding import (conjugation_galois_element,
                                rotation_galois_element)
from repro.fhe.keyswitch import (evalkey_accumulate, hoisted_decompose,
                                 moddown_poly, modup_digit)
from repro.fhe.params import partition_from_sig

LEVEL = 6
POLICIES = ("sequential", "cinnamon", "input_broadcast", "cifher")
CHIPS = (1, 2, 4, 8)
BACKENDS = available_backends()
ROTATIONS = (1, 2, 5)
CONJUGATE = "conj"


# ---------------------------------------------------------------------- #
# Programs: name -> (inputs, {output: spec}).  A spec is ("mul", a, b),
# ("galois", x, rotation or CONJUGATE) or ("sum", ((x, rotation), ...)),
# where a sum member with rotation None is x itself.

PROGRAMS = {
    "relin": (("a", "b"), {"y": ("mul", "a", "b")}),
    "rotate": (("a",), {"y": ("galois", "a", 3)}),
    "galois": (("a",), {
        CONJUGATE: ("galois", "a", CONJUGATE),
        **{f"r{r}": ("galois", "a", r) for r in ROTATIONS}}),
    "rotate_sum": (("x0", "x1", "x2"), {
        "y": ("sum", (("x0", None), ("x1", 1), ("x2", 3)))}),
    # Every member a zero rotation: the pass fuses it all the same.
    "identity_sum": (("x0", "x1", "x2"), {
        "y": ("sum", (("x0", 0), ("x1", 0), ("x2", 0)))}),
}


def build(name: str) -> CinnamonProgram:
    inputs, outputs = PROGRAMS[name]
    prog = CinnamonProgram(name, level=LEVEL)
    handles = {x: prog.input(x) for x in inputs}

    def galois(x, rotation):
        h = handles[x]
        if rotation is None:
            return h
        return h.conjugate() if rotation == CONJUGATE else h.rotate(rotation)

    for out, spec in outputs.items():
        if spec[0] == "mul":
            value = handles[spec[1]] * handles[spec[2]]
        elif spec[0] == "galois":
            value = galois(*spec[1:])
        else:
            members = [galois(x, r) for x, r in spec[1]]
            value = members[0]
            for member in members[1:]:
                value = value + member
        prog.output(out, value)
    return prog


def expected_patterns(name: str, policy: str, batching: bool):
    """``(pattern1_batches, pattern2_batches)`` the pass must report."""
    hoists = batching and policy != "sequential" and name == "galois"
    fuses = batching and policy == "cinnamon" and name.endswith("_sum")
    return int(hoists), int(fuses)


# ---------------------------------------------------------------------- #
# The oracles


def galois_element(rotation, ring_degree: int) -> int:
    if rotation == CONJUGATE:
        return conjugation_galois_element(ring_degree)
    return rotation_galois_element(rotation, ring_degree)


def un_hoisted(ev: Evaluator, ct: Ciphertext, rotation) -> Ciphertext:
    if rotation is None:
        return ct
    if rotation == CONJUGATE:
        return ev.conjugate(ct)
    if rotation % ev.params.slot_count == 0:
        # Outside a fused rotate_sum a zero rotation still compiles to a
        # keyswitch, by galois element 1; Evaluator.rotate skips it.
        return ev._apply_galois(ct, 1)
    return ev.rotate(ct, rotation)


def hoisted(ctx: CKKSContext, ct: Ciphertext, k: int) -> Ciphertext:
    """One member of a hoisted batch: ``rotate_hoisted`` by galois
    element ``k``."""
    params = ctx.params
    partition = params.digit_partition(ct.level)
    digits = [d.automorphism(k)
              for d in hoisted_decompose(ct.polys[1], partition, params)]
    evk = ctx.keychain.galois_key(k, ct.level, partition)
    f0, f1 = evalkey_accumulate(digits, evk)
    ext = params.extension_moduli
    return Ciphertext([ct.polys[0].automorphism(k)
                       + moddown_poly(f0, ct.basis, ext),
                       moddown_poly(f1, ct.basis, ext)], ct.scale)


def fused(ctx: CKKSContext, members, partition) -> Ciphertext:
    """A fused rotate_sum: ``sum_i rotate(ct_i, r_i)`` where every
    keyswitch is mod-downed digit by digit over ``partition`` and members
    with no or a zero rotation pass through."""
    params = ctx.params
    ext = params.extension_moduli
    out0 = out1 = None
    for ct, rotation in members:
        c0, c1 = ct.polys
        if rotation:
            k = rotation_galois_element(rotation, params.ring_degree)
            c0, d = c0.automorphism(k), c1.automorphism(k).to_coeff()
            evk = ctx.keychain.galois_key(k, ct.level, partition)
            c1 = None
            for digit, (b, a) in zip(partition, evk.digits):
                if not digit:
                    continue
                up = modup_digit(d, digit, ct.basis + ext)
                c0 = c0 + moddown_poly(up * b, ct.basis, ext)
                f1 = moddown_poly(up * a, ct.basis, ext)
                c1 = f1 if c1 is None else c1 + f1
        out0 = c0 if out0 is None else out0 + c0
        out1 = c1 if out1 is None else out1 + c1
    return Ciphertext([out0, out1], members[0][0].scale)


def oracle(env, name: str, compiled) -> dict:
    """The functional result of every output of ``compiled``."""
    ctx, ev, cts = env
    stats = compiled.pass_stats
    _, outputs = PROGRAMS[name]
    want = {}
    for out, spec in outputs.items():
        if spec[0] == "mul":
            want[out] = ev.mul(cts[spec[1]], cts[spec[2]])
        elif spec[0] == "galois" and stats.pattern1_batches:
            want[out] = hoisted(ctx, cts[spec[1]],
                                galois_element(spec[2], ev.params.ring_degree))
        elif spec[0] == "galois":
            want[out] = un_hoisted(ev, cts[spec[1]], spec[2])
        elif stats.pattern2_batches:
            # ``m<n>`` on n > 1 chips.  On one chip the fused form keeps
            # its per-digit mod-downs over the contiguous ``c2`` digits —
            # num_digits mod-downs per member where a sequential keyswitch
            # has one, saving no communication.  A fix that lowers it as
            # plain keyswitches shows up here as a deliberate oracle change.
            chips = compiled.options.num_chips
            sig = f"m{chips}" if chips > 1 else f"c{ev.params.num_digits}"
            assert {s for _, _, s in compiled.limb_program.evalkeys} <= {sig}
            want[out] = fused(ctx, [(cts[x], r) for x, r in spec[1]],
                              partition_from_sig(sig, LEVEL, ev.params))
        else:
            total = None
            for x, r in spec[1]:
                term = un_hoisted(ev, cts[x], r)
                total = term if total is None else ev.add(total, term)
            want[out] = total
    return want


# ---------------------------------------------------------------------- #
# Communication closed forms


def expected_comm(name: str, policy: str, batching: bool, chips: int,
                  ext: int):
    """``(broadcasts, aggregations, limbs moved)`` of a rotation-only
    program; ``ext`` is the extension basis size."""
    n, level = chips, LEVEL
    if n == 1:
        return 0, 0, 0
    single = (3, 0, (level + 2 * ext) * (n - 1)) if policy == "cifher" \
        else (1, 0, level * (n - 1))
    hoists, fuses = expected_patterns(name, policy, batching)
    if name == "galois":
        r = len(PROGRAMS[name][1])
        if not hoists:
            return tuple(r * x for x in single)
        if policy == "cifher":
            # One shared input broadcast; every member still broadcasts
            # the extension limbs of both accumulators.
            return 1 + 2 * r, 0, (level + 2 * r * ext) * (n - 1)
        return 1, 0, level * (n - 1)
    if name.endswith("_sum"):
        rotations = [r for _, r in PROGRAMS[name][1]["y"][1]]
        if fuses:
            return (0, 2, 2 * level * (n - 1)) if any(rotations) \
                else (0, 0, 0)
        keyswitches = sum(r is not None for r in rotations)
        return tuple(keyswitches * x for x in single)
    assert name == "rotate"
    return single


# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def env():
    params = make_params(ring_degree=128, levels=LEVEL, prime_bits=28,
                         num_digits=2)
    ctx = CKKSContext(params, seed=77)
    rng = np.random.default_rng(27)
    cts = {x: ctx.encrypt_values(rng.uniform(-1, 1, params.slot_count))
           for x in ("a", "b", "x0", "x1", "x2")}
    return ctx, Evaluator(ctx), cts


@pytest.mark.parametrize("batching", [True, False],
                         ids=["batched", "unbatched"])
@pytest.mark.parametrize("chips", CHIPS)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", list(PROGRAMS))
def test_bit_exact(env, name, policy, chips, batching):
    ctx, _, cts = env
    compiled = CompilerDriver(ctx.params, CompilerOptions(
        num_chips=chips, keyswitch_policy=policy,
        enable_batching=batching)).compile(build(name))
    verify_limb_program(compiled.limb_program)
    stats = compiled.pass_stats
    assert (stats.pattern1_batches, stats.pattern2_batches) == \
        expected_patterns(name, policy, batching)

    want = oracle(env, name, compiled)
    inputs = {x: cts[x] for x in PROGRAMS[name][0]}
    for backend in BACKENDS:
        with use_backend(backend):
            got = compiled.emulate(inputs, context=ctx)
        assert set(got) == set(want)
        for out, ct in want.items():
            assert all(g.equals(w) for g, w in zip(got[out].polys, ct.polys)), \
                f"{out} differs on {backend}"

    if name != "relin":
        summary = compiled.summarize_comm()
        assert (summary.broadcast_events, summary.aggregate_events,
                summary.comm_limbs) == expected_comm(
                    name, policy, batching, chips,
                    len(ctx.params.extension_moduli))
