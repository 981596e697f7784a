"""Scale-out parallel keyswitching (Section 4.3 of the paper), functionally.

This module executes keyswitching the way a Cinnamon *machine* would: the
limbs of every polynomial are partitioned across ``n`` virtual chips
(``limb i`` lives on ``chip i mod n``), every chip computes only on limbs it
holds, and any limb that crosses a chip boundary is charged to an explicit
communication ledger.  Four algorithms are implemented:

* ``sequential``          — single chip, no communication (the reference).
* ``cifher``              — CiFHER-style: broadcast the input limbs at
                            mod-up and the extension limbs at mod-down
                            (3 broadcasts per keyswitch).
* ``input_broadcast``     — Cinnamon #1: broadcast the input limbs once;
                            every chip duplicates the *extension* limbs so
                            the mod-down needs no communication.
* ``output_aggregation``  — Cinnamon #2: digits = the resident limb
                            partitions, so mod-up needs no communication;
                            the per-chip evalkey products are mod-downed
                            locally and then aggregate+scattered
                            (2 aggregations per keyswitch).

Exactness contract (what the tests pin down): ``cifher`` and
``input_broadcast`` are **bit-exact** against the sequential algorithm run
with the same digit partition — they only re-partition limb-wise-exact
arithmetic.  ``output_aggregation`` commutes the mod-down with the final
aggregation; because mod-down uses *approximate* base conversion, per-digit
rounding differs from summed rounding by a small integer per coefficient
(bounded by ``num_chips * |E| / 2``), which CKKS absorbs as keyswitching
noise — this is precisely the sense in which the paper calls the reordering
"valid" (Section 4.3.1: no effect on noise budget or levels).  The
batched-pattern entry points at the bottom implement the two program
patterns the Cinnamon keyswitch compiler pass targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .ciphertext import Ciphertext
from .keys import EvalKey, KeyChain
from .keyswitch import evalkey_accumulate, keyswitch, moddown_poly, modup_digit
from .params import CKKSParams, modular_partition
from .polynomial import COEFF, RnsPolynomial
from .rns import mod_down, mod_up


# --------------------------------------------------------------------------- #
# Communication ledger


@dataclass
class CommStats:
    """Network traffic ledger for one or more parallel keyswitches.

    ``limb_bytes`` is fixed by the ring degree (4 bytes per coefficient at
    the architectural word width).  ``broadcasts``/``aggregations`` count
    *events* (what the paper's algorithmic analysis counts); ``bytes_moved``
    counts the limb payloads that actually crossed chip boundaries.
    """

    limb_bytes: int
    broadcasts: int = 0
    aggregations: int = 0
    limbs_broadcast: int = 0
    limbs_aggregated: int = 0

    @property
    def events(self) -> int:
        return self.broadcasts + self.aggregations

    @property
    def bytes_moved(self) -> int:
        return (self.limbs_broadcast + self.limbs_aggregated) * self.limb_bytes

    def record_broadcast(self, num_limbs: int, num_chips: int):
        """Broadcast ``num_limbs`` distributed limbs so all chips hold all.

        Each chip must receive the ``num_limbs * (n-1)/n`` limbs it does not
        already hold; the ring/switch moves ``num_limbs * (n-1)`` limb
        payloads in total.
        """
        self.broadcasts += 1
        self.limbs_broadcast += num_limbs * (num_chips - 1)

    def record_aggregation(self, num_limbs: int, num_chips: int):
        """Aggregate+scatter ``num_limbs``-limb partial sums from all chips.

        A reduce-scatter of an ``num_limbs``-limb polynomial replicated as
        partials on ``n`` chips moves ``num_limbs * (n-1)`` limb payloads.
        """
        self.aggregations += 1
        self.limbs_aggregated += num_limbs * (num_chips - 1)


# --------------------------------------------------------------------------- #
# Limb partitioning


def chip_of_limb(limb_index: int, num_chips: int) -> int:
    return limb_index % num_chips


# --------------------------------------------------------------------------- #
# The parallel algorithms


class ParallelKeyswitcher:
    """Runs keyswitching as ``num_chips`` cooperating virtual chips."""

    def __init__(self, params: CKKSParams, num_chips: int):
        if num_chips < 1:
            raise ValueError("need at least one chip")
        self.params = params
        self.num_chips = num_chips
        self.stats = CommStats(limb_bytes=params.limb_bytes)

    def reset_stats(self):
        self.stats = CommStats(limb_bytes=self.params.limb_bytes)

    # ------------------------------------------------------------------ #

    def sequential(self, d: RnsPolynomial, evk: EvalKey):
        """Single-chip reference (Figure 8a). No communication."""
        return keyswitch(d, evk, self.params)

    # ------------------------------------------------------------------ #

    def cifher(self, d: RnsPolynomial, evk: EvalKey):
        """CiFHER-style parallel keyswitch (3 broadcasts, Figure 8 context).

        Limbs (including the extension limbs of the inner product) stay
        modularly distributed; cross-limb dependencies are resolved by
        broadcasting the inputs of *every* base conversion: the input limbs
        at mod-up, and the extension limbs of both accumulators at mod-down.
        """
        params = self.params
        n = self.num_chips
        active = d.basis
        level = len(active)
        ext = params.extension_moduli
        extended_basis = active + ext

        # Broadcast 1: input limbs to all chips for the digit mod-ups.
        self.stats.record_broadcast(level, n)
        d_coeff = d.to_coeff()

        # Every chip computes the extended-digit limbs it owns; since the
        # arithmetic per output limb is independent, the union of the
        # per-chip rows equals the sequential mod-up exactly.  We compute
        # the full mod-up once and slice per chip to model this.
        extended_digits = [
            modup_digit(d_coeff, digit, extended_basis) for digit in evk.partition
        ]
        f0_ext, f1_ext = evalkey_accumulate(extended_digits, evk)

        # Broadcasts 2 and 3: the extension limbs of both accumulators are
        # distributed across chips and must be gathered everywhere before
        # each chip can mod-down its own share of the active limbs.
        self.stats.record_broadcast(len(ext), n)
        self.stats.record_broadcast(len(ext), n)
        return (
            moddown_poly(f0_ext, active, ext),
            moddown_poly(f1_ext, active, ext),
        )

    # ------------------------------------------------------------------ #

    def input_broadcast(self, d: RnsPolynomial, evk: EvalKey,
                        already_broadcast: bool = False):
        """Cinnamon's input-broadcast keyswitching (Figure 8b).

        One broadcast of the input limbs; afterwards every chip holds all
        input limbs, computes its share ``Q_c`` of the initial-basis outputs
        but **all** extension limbs (duplicated compute), and finishes the
        mod-down locally.  ``already_broadcast`` suppresses the ledger entry
        when the broadcast was batched across several keyswitches.
        """
        params = self.params
        n = self.num_chips
        active = d.basis
        level = len(active)
        ext = params.extension_moduli

        if not already_broadcast:
            self.stats.record_broadcast(level, n)
        d_coeff = d.to_coeff()

        chip_outputs: List[Tuple[Tuple[int, ...], np.ndarray, np.ndarray]] = []
        partition_chips = modular_partition(level, n)
        for chip, owned in enumerate(partition_chips):
            owned_primes = tuple(active[i] for i in owned)
            chip_basis = owned_primes + ext
            # Per-digit mod-up restricted to this chip's output limbs plus
            # the (duplicated) extension limbs.
            f0 = None
            f1 = None
            for digit, (b_i, a_i) in zip(evk.partition, evk.digits):
                digit_primes = tuple(active[i] for i in digit)
                up = mod_up(d_coeff.data[list(digit)], digit_primes, chip_basis)
                up_poly = RnsPolynomial(chip_basis, up, COEFF).to_eval()
                key_rows = [active.index(p) if p in active else level + ext.index(p)
                            for p in chip_basis]
                b_sel = b_i.select_limbs(key_rows)
                a_sel = a_i.select_limbs(key_rows)
                t0 = up_poly * b_sel
                t1 = up_poly * a_sel
                f0 = t0 if f0 is None else f0 + t0
                f1 = t1 if f1 is None else f1 + t1
            # Local mod-down: all extension limbs are resident (duplicated),
            # so no communication is needed (the algorithm's key property).
            out0 = mod_down(f0.to_coeff().data, owned_primes, ext)
            out1 = mod_down(f1.to_coeff().data, owned_primes, ext)
            chip_outputs.append((owned, out0, out1))

        return (
            _reassemble(chip_outputs, 1, active, d.ring_degree),
            _reassemble(chip_outputs, 2, active, d.ring_degree),
        )

    # ------------------------------------------------------------------ #

    def output_aggregation(self, d: RnsPolynomial, evk: EvalKey,
                           defer_aggregation: bool = False):
        """Cinnamon's output-aggregation keyswitching (Figure 8c).

        The resident modular partition *is* the digit partition, so mod-up
        needs no communication.  Each chip mod-downs its own evalkey
        products, then the partial sums are aggregate+scattered.  Mod-down
        commutes with the sum up to approximate-base-conversion rounding (a
        small integer per coefficient), so the result is noise-equivalent —
        not bit-identical — to the sequential keyswitch (see module doc).

        ``evk`` must carry the modular partition for this chip count.  With
        ``defer_aggregation`` the per-chip partials are returned unsummed so
        a caller can batch the aggregation across many keyswitches.
        """
        params = self.params
        n = self.num_chips
        active = d.basis
        level = len(active)
        ext = params.extension_moduli
        extended_basis = active + ext
        expected = modular_partition(level, n)
        if evk.partition != expected:
            raise ValueError(
                "output aggregation requires an evaluation key generated for "
                f"the modular partition {expected}, got {evk.partition}"
            )

        d_coeff = d.to_coeff()
        partials: List[Tuple[RnsPolynomial, RnsPolynomial]] = []
        for chip, (digit, (b_i, a_i)) in enumerate(zip(evk.partition, evk.digits)):
            up_poly = modup_digit(d_coeff, digit, extended_basis)
            f0_ext = up_poly * b_i
            f1_ext = up_poly * a_i
            partials.append(
                (moddown_poly(f0_ext, active, ext), moddown_poly(f1_ext, active, ext))
            )
        if defer_aggregation:
            return partials
        # Two aggregations: one reduce-scatter per output polynomial.
        self.stats.record_aggregation(level, n)
        self.stats.record_aggregation(level, n)
        return _sum_partials(partials)


def _reassemble(chip_outputs, slot: int, active, ring_degree) -> RnsPolynomial:
    """Stitch per-chip limb rows back into a full polynomial (eval domain)."""
    data = np.zeros((len(active), ring_degree), dtype=np.uint64)
    for owned, out0, out1 in chip_outputs:
        rows = out0 if slot == 1 else out1
        for local, limb_index in enumerate(owned):
            data[limb_index] = rows[local]
    return RnsPolynomial(active, data, COEFF).to_eval()


def _sum_partials(partials) -> Tuple[RnsPolynomial, RnsPolynomial]:
    f0 = partials[0][0]
    f1 = partials[0][1]
    for p0, p1 in partials[1:]:
        f0 = f0 + p0
        f1 = f1 + p1
    return f0, f1


# --------------------------------------------------------------------------- #
# Batched program patterns (what the Cinnamon keyswitch pass emits)


def batched_rotations_input_broadcast(
    switcher: ParallelKeyswitcher,
    keychain: KeyChain,
    ct: Ciphertext,
    rotations: Sequence[int],
) -> Dict[int, Ciphertext]:
    """Pattern 1: many rotations of one ciphertext — 1 broadcast total.

    The broadcast of ``c1``'s limbs is hoisted out of the rotation batch;
    every chip then rotates/keyswitches locally via input-broadcast
    keyswitching.  (Automorphisms are limb-parallel, so ``c0`` needs no
    communication at all.)
    """
    from .encoding import rotation_galois_element

    params = switcher.params
    level = ct.level
    switcher.stats.record_broadcast(level, switcher.num_chips)
    out: Dict[int, Ciphertext] = {}
    for rotation in rotations:
        if rotation % params.slot_count == 0:
            out[rotation] = ct.copy()
            continue
        k = rotation_galois_element(rotation, params.ring_degree)
        c0 = ct.polys[0].automorphism(k)
        c1 = ct.polys[1].automorphism(k)
        evk = keychain.galois_key(k, level)
        f0, f1 = switcher.input_broadcast(c1, evk, already_broadcast=True)
        out[rotation] = Ciphertext([c0 + f0, f1], ct.scale)
    return out


def batched_rotate_sum_output_aggregation(
    switcher: ParallelKeyswitcher,
    keychain: KeyChain,
    cts: Sequence[Ciphertext],
    rotations: Sequence[int],
) -> Ciphertext:
    """Pattern 2: rotate ``r`` ciphertexts and sum — 2 aggregations total.

    Every chip accumulates the partial keyswitch outputs of all rotations
    locally; one aggregate+scatter per output polynomial finishes the batch.
    """
    from .encoding import rotation_galois_element

    if len(cts) != len(rotations):
        raise ValueError("one rotation per ciphertext")
    params = switcher.params
    level = min(ct.level for ct in cts)
    partition = modular_partition(level, switcher.num_chips)

    sum_c0 = None
    passthrough_c1 = None  # identity rotations need no keyswitch at all
    partial_acc: List[List[RnsPolynomial]] = None  # one (f0, f1) per chip
    scale = cts[0].scale
    for ct, rotation in zip(cts, rotations):
        ct = ct.at_level(level)
        if rotation % params.slot_count == 0:
            c0, c1 = ct.polys[0], ct.polys[1]
            sum_c0 = c0 if sum_c0 is None else sum_c0 + c0
            passthrough_c1 = c1 if passthrough_c1 is None else passthrough_c1 + c1
            continue
        k = rotation_galois_element(rotation, params.ring_degree)
        c0 = ct.polys[0].automorphism(k)
        c1 = ct.polys[1].automorphism(k)
        evk = keychain.galois_key(k, level, partition)
        partials = switcher.output_aggregation(c1, evk, defer_aggregation=True)
        sum_c0 = c0 if sum_c0 is None else sum_c0 + c0
        if partial_acc is None:
            partial_acc = [list(pair) for pair in partials]
        else:
            for acc, pair in zip(partial_acc, partials):
                acc[0] = acc[0] + pair[0]
                acc[1] = acc[1] + pair[1]

    if partial_acc is None:
        return Ciphertext([sum_c0, passthrough_c1], scale)
    switcher.stats.record_aggregation(level, switcher.num_chips)
    switcher.stats.record_aggregation(level, switcher.num_chips)
    f0, f1 = _sum_partials([tuple(pair) for pair in partial_acc])
    if passthrough_c1 is not None:
        f1 = f1 + passthrough_c1
    return Ciphertext([sum_c0 + f0, f1], scale)
