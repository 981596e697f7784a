#!/usr/bin/env python
"""Cinnamon's parallel keyswitching algorithms, compiled and emulated.

Compiles three programs — one rotation, a hoisted batch of six rotations
of one ciphertext, and a rotate-sum — under every keyswitch policy for a
4-chip machine, runs each on the ISA emulator, and checks every output
limb against the functional keyswitching steps of ``repro.fhe.keyswitch``.
Prints each compile's collectives and the limbs they move: the
algorithmic content of Figure 8 and Section 7.4 in one script.

Run:  python examples/keyswitch_comparison.py
"""

import numpy as np

from repro.core import CinnamonProgram, CompilerDriver, CompilerOptions
from repro.fhe import CKKSContext, Evaluator, make_params
from repro.fhe.ciphertext import Ciphertext
from repro.fhe.encoding import rotation_galois_element
from repro.fhe.keyswitch import moddown_poly, modup_digit
from repro.fhe.params import modular_partition

CHIPS = 4
LEVEL = 8
BATCH = (1, 2, 3, 4, 5, 6)
SUM = ((0, "x0"), (1, "x1"), (3, "x2"))  # (rotation, input)


def rotate_program():
    prog = CinnamonProgram("rotate", level=LEVEL)
    prog.output("y", prog.input("x0").rotate(3))
    return prog


def batch_program():
    prog = CinnamonProgram("batch", level=LEVEL)
    x = prog.input("x0")
    for r in BATCH:
        prog.output(f"r{r}", x.rotate(r))
    return prog


def rotate_sum_program():
    prog = CinnamonProgram("rotate_sum", level=LEVEL)
    total = None
    for r, name in SUM:
        x = prog.input(name)
        term = x.rotate(r) if r else x
        total = term if total is None else total + term
    prog.output("y", total)
    return prog


def fused_rotate_sum(context, cts):
    """The math of a fused rotate-sum on CHIPS chips: chip ``g`` mods up
    its resident digit ``g`` of every rotated member, multiplies by its
    evalkey digit and mods down on its own; the partials are summed."""
    params = context.params
    ext = params.extension_moduli
    partition = modular_partition(LEVEL, CHIPS)
    out0 = out1 = None
    for r, name in SUM:
        c0, c1 = cts[name].polys
        if r:
            k = rotation_galois_element(r, params.ring_degree)
            c0, d = c0.automorphism(k), c1.automorphism(k).to_coeff()
            evk = context.keychain.galois_key(k, LEVEL, partition)
            c1 = None
            for digit, (b, a) in zip(partition, evk.digits):
                up = modup_digit(d, digit, d.basis + ext)
                c0 = c0 + moddown_poly(up * b, d.basis, ext)
                f1 = moddown_poly(up * a, d.basis, ext)
                c1 = f1 if c1 is None else c1 + f1
        out0 = c0 if out0 is None else out0 + c0
        out1 = c1 if out1 is None else out1 + c1
    return Ciphertext([out0, out1], cts["x0"].scale)


def expected(context, evaluator, cts, compiled):
    """The functional result of each output, in the form the compiler
    chose (read from the keyswitch pass's statistics)."""
    stats = compiled.pass_stats
    x0 = cts["x0"]
    if compiled.name == "rotate":
        return {"y": evaluator.rotate(x0, 3)}
    if compiled.name == "batch":
        if stats.pattern1_batches:
            outs = evaluator.rotate_hoisted(x0, BATCH)
        else:
            outs = {r: evaluator.rotate(x0, r) for r in BATCH}
        return {f"r{r}": ct for r, ct in outs.items()}
    if stats.pattern2_batches:
        return {"y": fused_rotate_sum(context, cts)}
    return {"y": evaluator.add_many(evaluator.rotate(cts[name], r)
                                    for r, name in SUM)}


def main():
    params = make_params(ring_degree=128, levels=LEVEL, prime_bits=28,
                         num_digits=2)
    context = CKKSContext(params, seed=3)
    evaluator = Evaluator(context)
    rng = np.random.default_rng(3)
    cts = {name: context.encrypt_values(rng.uniform(-1, 1, params.slot_count))
           for _, name in SUM}

    print(f"Keyswitching at level {LEVEL} on {CHIPS} chips "
          f"({len(params.extension_moduli)} extension limbs)\n")
    print(f"{'policy':16s} {'program':12s} {'result':>9s} {'bcasts':>7s} "
          f"{'aggrs':>6s} {'limbs moved':>12s}")
    differing = 0
    for policy in ("sequential", "cinnamon", "input_broadcast", "cifher"):
        for build in (rotate_program, batch_program, rotate_sum_program):
            compiled = CompilerDriver(params, CompilerOptions(
                num_chips=CHIPS, keyswitch_policy=policy)).compile(build())
            inputs = {name: cts[name] for name in compiled.ct_program.inputs}
            got = compiled.emulate(inputs, context=context)
            want = expected(context, evaluator, cts, compiled)
            exact = all(g.equals(w)
                        for out, ct in want.items()
                        for g, w in zip(got[out].polys, ct.polys))
            differing += not exact
            comm = compiled.summarize_comm()
            print(f"{policy:16s} {compiled.name:12s} "
                  f"{'bit-exact' if exact else 'DIFFERS':>9s} "
                  f"{comm.broadcast_events:>7d} {comm.aggregate_events:>6d} "
                  f"{comm.comm_limbs:>12d}")
        print()
    if differing:
        raise SystemExit(f"{differing} compiled programs differ from the math")


if __name__ == "__main__":
    main()
