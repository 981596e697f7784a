#!/usr/bin/env python
"""Cinnamon's parallel keyswitching algorithms, functionally.

Runs the four keyswitching algorithms of Section 4.3 on real data across
four virtual chips, verifying correctness against the sequential reference
and printing each algorithm's communication ledger — the algorithmic
content of Figure 8 and Section 7.4 in one script.

Run:  python examples/keyswitch_comparison.py
"""

import numpy as np

from repro.fhe import CKKSContext, make_params
from repro.fhe.keyswitch import keyswitch
from repro.fhe.parallel import (
    ParallelKeyswitcher,
    batched_rotations_input_broadcast,
)
from repro.fhe.params import modular_partition
from repro.fhe.rns import crt_reconstruct


def main():
    params = make_params(ring_degree=128, levels=8, prime_bits=28,
                         num_digits=2)
    context = CKKSContext(params, seed=3)
    keychain = context.keychain
    chips = 4
    level = 8

    d = keychain.rng.uniform_poly(params.basis_at_level(level),
                                  params.ring_degree)
    evk = keychain.relin_key(level)
    reference = keyswitch(d, evk, params)

    print(f"Keyswitching one level-{level} polynomial across {chips} chips\n")
    header = f"{'algorithm':20s} {'correct':>9s} {'bcasts':>7s} " \
             f"{'aggrs':>6s} {'limbs moved':>12s}"
    print(header)

    # Input broadcast: bit-exact.
    sw = ParallelKeyswitcher(params, chips)
    f0, f1 = sw.input_broadcast(d, evk)
    exact = f0.equals(reference[0]) and f1.equals(reference[1])
    print(f"{'input broadcast':20s} {'bit-exact' if exact else 'NO':>9s} "
          f"{sw.stats.broadcasts:>7d} {sw.stats.aggregations:>6d} "
          f"{sw.stats.limbs_broadcast + sw.stats.limbs_aggregated:>12d}")

    # CiFHER baseline: bit-exact but 3 broadcasts.
    sw = ParallelKeyswitcher(params, chips)
    f0, f1 = sw.cifher(d, evk)
    exact = f0.equals(reference[0]) and f1.equals(reference[1])
    print(f"{'cifher':20s} {'bit-exact' if exact else 'NO':>9s} "
          f"{sw.stats.broadcasts:>7d} {sw.stats.aggregations:>6d} "
          f"{sw.stats.limbs_broadcast + sw.stats.limbs_aggregated:>12d}")

    # Output aggregation: noise-equivalent (bounded rounding difference).
    partition = modular_partition(level, chips)
    evk_mod = keychain.switching_key("relin", level, partition)
    seq = keyswitch(d, evk_mod, params)
    sw = ParallelKeyswitcher(params, chips)
    f0, f1 = sw.output_aggregation(d, evk_mod)
    diff = (seq[0] - f0).to_coeff()
    bound = max(abs(v) for v in crt_reconstruct(diff.data, diff.basis))
    print(f"{'output aggregation':20s} {f'|diff|<={bound}':>9s} "
          f"{sw.stats.broadcasts:>7d} {sw.stats.aggregations:>6d} "
          f"{sw.stats.limbs_broadcast + sw.stats.limbs_aggregated:>12d}")

    # The batched pattern: r rotations, ONE broadcast (Section 4.3.1).
    print("\nBatched pattern: 6 rotations of one ciphertext")
    z = np.linspace(-1, 1, params.slot_count)
    ct = context.encrypt_values(z)
    sw = ParallelKeyswitcher(params, chips)
    rotations = [1, 2, 3, 4, 5, 6]
    outs = batched_rotations_input_broadcast(sw, keychain, ct, rotations)
    worst = max(
        np.max(np.abs(context.decrypt_values(outs[r]).real - np.roll(z, -r)))
        for r in rotations
    )
    print(f"  {len(rotations)} rotations -> {sw.stats.broadcasts} broadcast "
          f"(CiFHER would need {3 * len(rotations)}), max error {worst:.2e}")


if __name__ == "__main__":
    main()
