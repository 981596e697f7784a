#!/usr/bin/env python
"""Private database analytics on encrypted data.

The paper's other headline use case (Section 1): a client uploads an
encrypted column of salaries; the server answers aggregate queries —
mean, variance, and "how many earn above the threshold?" — without ever
seeing a single value.

The three queries are one Cinnamon DSL program: rotate-and-sum
reductions (``DslLowering.segment_sum``) and a Chebyshev soft threshold
(``chebyshev_lower``).  It is compiled for Cinnamon-4, cycle-simulated,
run on the ISA emulator over real RNS-CKKS limbs, and decrypted.  The
script exits non-zero when a decrypted aggregate misses its plaintext
reference by more than ``TOLERANCE``.

Run:  python examples/private_analytics.py
"""

import numpy as np

import repro
from repro.core import CinnamonProgram
from repro.fhe import CKKSContext
from repro.fhe.packing import pack_lanes
from repro.fhe.polyeval import chebyshev_coefficients
from repro.nn import cheb_reference, nn_params
from repro.nn.lower import DslLowering, PackingSpec, chebyshev_lower

ROWS = 64            # one frame: the column fills it, so no padding
THRESHOLD = 0.5
SHARPNESS = 12.0
DEGREE = 15
LEVELS = 10
TOLERANCE = 1e-3


def soft_indicator(x):
    """``sigmoid(SHARPNESS * (x - THRESHOLD))``: a smooth ``x > t``."""
    return 1.0 / (1.0 + np.exp(-SHARPNESS * (x - THRESHOLD)))


def analytics_program(coeffs) -> CinnamonProgram:
    """AVG, VAR and a soft COUNT(* WHERE x > t) over one encrypted
    column, each replicated into every slot of the frame."""
    prog = CinnamonProgram("private-analytics", level=LEVELS)
    ctx = DslLowering(PackingSpec(lanes=1, block=ROWS), prog)
    x = prog.input("salaries")
    mean = ctx.mul_const(ctx.segment_sum(x, ROWS), 1.0 / ROWS)
    second_moment = ctx.mul_const(ctx.segment_sum(ctx.mul(x, x), ROWS),
                                  1.0 / ROWS)
    prog.output("mean", mean)
    prog.output("variance", ctx.sub(second_moment, ctx.mul(mean, mean)))
    prog.output("count", ctx.segment_sum(chebyshev_lower(ctx, x, coeffs),
                                         ROWS))
    return prog


def main():
    params = nn_params(LEVELS, num_digits=3)
    context = CKKSContext(params, seed=17)

    rng = np.random.default_rng(4)
    salaries = rng.lognormal(mean=0.0, sigma=0.3, size=ROWS)
    salaries = salaries / salaries.max()  # normalize into CKKS range

    # --- server side: compile the queries for a 4-chip Cinnamon -------- #
    coeffs = chebyshev_coefficients(soft_indicator, DEGREE)
    compiled = repro.compile(analytics_program(coeffs), params, machine=4)
    result = compiled.simulate()
    print(f"[server] compiled 3 queries: {result.cycles} cycles "
          f"({result.milliseconds:.3f} ms) on Cinnamon-4")

    # --- client side: encrypt the column ------------------------------- #
    column = context.encrypt_values(
        pack_lanes([salaries], ROWS, params.slot_count), level=LEVELS)
    print(f"[client] encrypted {ROWS} salary records "
          f"({column.level}-level ciphertext)")

    # --- server side: run the program on the ciphertext ---------------- #
    outputs = compiled.emulate({"salaries": column}, context=context)

    # --- client side: decrypt the three aggregate results -------------- #
    queries = {
        "mean": ("SELECT AVG(salary)", salaries.mean()),
        "variance": ("SELECT VAR(salary)", np.var(salaries)),
        "count": (f"SELECT COUNT(*) WHERE > {THRESHOLD}",
                  cheb_reference(salaries, coeffs).sum()),
    }
    missed = []
    for name, (query, want) in queries.items():
        got = context.decrypt_values(outputs[name]).real[0]
        err = abs(got - want)
        print(f"[client] {query:30s} -> {got:8.4f} "
              f"(plaintext {want:.4f}, |err| {err:.1e})")
        if err > TOLERANCE:
            missed.append(name)
    print(f"[client] (exact count above {THRESHOLD}: "
          f"{np.sum(salaries > THRESHOLD)})")
    if missed:
        raise SystemExit(f"decrypted {', '.join(missed)} missed the "
                         f"plaintext reference by more than {TOLERANCE}")


if __name__ == "__main__":
    main()
