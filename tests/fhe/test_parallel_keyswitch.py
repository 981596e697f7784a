"""Tests for Cinnamon's parallel keyswitching algorithms (Section 4.3).

These pin down the paper's central algorithmic claims:
* input-broadcast and CiFHER keyswitching are bit-exact re-partitions of
  sequential keyswitching;
* output-aggregation keyswitching is noise-equivalent (bounded integer
  rounding difference);
* the batched program patterns need 1 broadcast / 2 aggregations total,
  versus O(r) broadcasts for CiFHER.
"""

import numpy as np
import pytest

from repro.fhe.keyswitch import keyswitch
from repro.fhe.parallel import (
    CommStats,
    ParallelKeyswitcher,
    batched_rotate_sum_output_aggregation,
    batched_rotations_input_broadcast,
    chip_of_limb,
)
from repro.fhe.params import modular_partition
from repro.fhe.rns import crt_reconstruct

LEVEL = 6
CHIPS = 4


@pytest.fixture(scope="module")
def setup(small_context):
    params = small_context.params
    kc = small_context.keychain
    d = kc.rng.uniform_poly(params.basis_at_level(LEVEL), params.ring_degree)
    return params, kc, d


class TestPartitioning:
    def test_modular_partition_covers_all_limbs(self):
        part = modular_partition(10, 3)
        flat = sorted(i for digit in part for i in digit)
        assert flat == list(range(10))

    def test_modular_partition_is_modular(self):
        part = modular_partition(12, 4)
        for c, digit in enumerate(part):
            assert all(i % 4 == c for i in digit)

    def test_chip_of_limb(self):
        assert [chip_of_limb(i, 4) for i in range(6)] == [0, 1, 2, 3, 0, 1]


class TestAlgorithms:
    def test_input_broadcast_bit_exact(self, setup):
        params, kc, d = setup
        evk = kc.relin_key(LEVEL)
        sw = ParallelKeyswitcher(params, CHIPS)
        f0s, f1s = keyswitch(d, evk, params)
        f0p, f1p = sw.input_broadcast(d, evk)
        assert f0s.equals(f0p) and f1s.equals(f1p)

    def test_cifher_bit_exact(self, setup):
        params, kc, d = setup
        evk = kc.relin_key(LEVEL)
        sw = ParallelKeyswitcher(params, CHIPS)
        f0s, f1s = keyswitch(d, evk, params)
        f0c, f1c = sw.cifher(d, evk)
        assert f0s.equals(f0c) and f1s.equals(f1c)

    def test_output_aggregation_noise_equivalent(self, setup):
        params, kc, d = setup
        partition = modular_partition(LEVEL, CHIPS)
        evk = kc.switching_key("relin", LEVEL, partition)
        sw = ParallelKeyswitcher(params, CHIPS)
        f0s, f1s = keyswitch(d, evk, params)
        f0o, f1o = sw.output_aggregation(d, evk)
        bound = CHIPS * (len(params.extension_moduli) + 1)
        for seq, par in ((f0s, f0o), (f1s, f1o)):
            diff = (seq - par).to_coeff()
            vals = crt_reconstruct(diff.data, diff.basis)
            assert max(abs(v) for v in vals) <= bound

    def test_output_aggregation_requires_modular_partition(self, setup):
        params, kc, d = setup
        evk = kc.relin_key(LEVEL)  # contiguous partition
        sw = ParallelKeyswitcher(params, CHIPS)
        with pytest.raises(ValueError):
            sw.output_aggregation(d, evk)

    @pytest.mark.parametrize("chips", [1, 2, 3, 4])
    def test_input_broadcast_any_chip_count(self, setup, chips):
        params, kc, d = setup
        evk = kc.relin_key(LEVEL)
        sw = ParallelKeyswitcher(params, chips)
        f0s, f1s = keyswitch(d, evk, params)
        f0p, f1p = sw.input_broadcast(d, evk)
        assert f0s.equals(f0p) and f1s.equals(f1p)


class TestCommunicationLedger:
    def test_input_broadcast_single_event(self, setup):
        params, kc, d = setup
        sw = ParallelKeyswitcher(params, CHIPS)
        sw.input_broadcast(d, kc.relin_key(LEVEL))
        assert sw.stats.broadcasts == 1
        assert sw.stats.aggregations == 0
        assert sw.stats.limbs_broadcast == LEVEL * (CHIPS - 1)

    def test_cifher_three_events(self, setup):
        params, kc, d = setup
        sw = ParallelKeyswitcher(params, CHIPS)
        sw.cifher(d, kc.relin_key(LEVEL))
        assert sw.stats.broadcasts == 3

    def test_output_aggregation_two_events(self, setup):
        params, kc, d = setup
        partition = modular_partition(LEVEL, CHIPS)
        evk = kc.switching_key("relin", LEVEL, partition)
        sw = ParallelKeyswitcher(params, CHIPS)
        sw.output_aggregation(d, evk)
        assert sw.stats.aggregations == 2
        assert sw.stats.broadcasts == 0

    def test_bytes_accounting(self, setup):
        params, _, _ = setup
        stats = CommStats(limb_bytes=params.limb_bytes)
        stats.record_broadcast(10, 4)
        assert stats.limbs_broadcast == 30
        assert stats.bytes_moved == 30 * params.limb_bytes

    def test_reset(self, setup):
        params, kc, d = setup
        sw = ParallelKeyswitcher(params, CHIPS)
        sw.input_broadcast(d, kc.relin_key(LEVEL))
        sw.reset_stats()
        assert sw.stats.events == 0


class TestBatchedPatterns:
    """The paper's two program patterns (Section 4.3.1 / 7.4)."""

    def test_pattern1_one_broadcast_for_r_rotations(self, small_context, rng):
        params = small_context.params
        kc = small_context.keychain
        sw = ParallelKeyswitcher(params, CHIPS)
        z = rng.uniform(-1, 1, params.slot_count)
        ct = small_context.encrypt_values(z)
        rotations = [1, 2, 3, 5, 8]
        outs = batched_rotations_input_broadcast(sw, kc, ct, rotations)
        assert sw.stats.broadcasts == 1  # not O(r)
        for r in rotations:
            res = small_context.decrypt_values(outs[r])
            assert np.max(np.abs(res.real - np.roll(z, -r))) < 1e-3

    def test_pattern2_two_aggregations_for_r_rotations(self, small_context, rng):
        params = small_context.params
        kc = small_context.keychain
        sw = ParallelKeyswitcher(params, CHIPS)
        rotations = [0, 1, 2, 3]
        vals = [rng.uniform(-1, 1, params.slot_count) for _ in rotations]
        cts = [small_context.encrypt_values(v) for v in vals]
        out = batched_rotate_sum_output_aggregation(sw, kc, cts, rotations)
        assert sw.stats.aggregations == 2  # not O(r)
        expect = sum(np.roll(v, -r) for v, r in zip(vals, rotations))
        res = small_context.decrypt_values(out)
        assert np.max(np.abs(res.real - expect)) < 1e-3

    def test_pattern2_all_identity(self, small_context, rng):
        params = small_context.params
        kc = small_context.keychain
        sw = ParallelKeyswitcher(params, CHIPS)
        vals = [rng.uniform(-1, 1, params.slot_count) for _ in range(3)]
        cts = [small_context.encrypt_values(v) for v in vals]
        out = batched_rotate_sum_output_aggregation(sw, kc, cts, [0, 0, 0])
        assert sw.stats.events == 0
        res = small_context.decrypt_values(out)
        assert np.max(np.abs(res.real - sum(vals))) < 1e-3

    def test_pattern2_length_mismatch_raises(self, small_context):
        params = small_context.params
        sw = ParallelKeyswitcher(params, CHIPS)
        ct = small_context.encrypt_values([1.0])
        with pytest.raises(ValueError):
            batched_rotate_sum_output_aggregation(
                sw, small_context.keychain, [ct], [1, 2]
            )


class TestAlgorithmicAnalysis:
    """Section 7.4: communication comparison, Cinnamon vs CiFHER."""

    def test_cinnamon_vs_cifher_event_counts(self, setup):
        params, kc, d = setup
        r = 8
        evk = kc.relin_key(LEVEL)
        cif = ParallelKeyswitcher(params, CHIPS)
        for _ in range(r):
            cif.cifher(d, evk)
        # CiFHER with mod-up batching still pays 2 broadcasts per keyswitch.
        cifher_batched = 1 + 2 * r
        assert cif.stats.broadcasts == 3 * r
        cin = ParallelKeyswitcher(params, CHIPS)
        for i in range(r):
            cin.input_broadcast(d, evk, already_broadcast=(i > 0))
        assert cin.stats.broadcasts == 1
        assert cin.stats.broadcasts < cifher_batched
