"""Lowering invariants: packing, level budgets, bootstrap placement.

These pin the contract between :func:`repro.nn.lower.lower`'s analytic
depth plan and the program it emits:

* no emitted op ever sits above ``max_level`` or below level 1;
* the number of ``bootstrap`` ops in the program equals the plan's
  analytic ``bootstrap_count`` (the dry-run trace is exact);
* models that cannot fit raise the typed errors instead of emitting
  broken programs;
* the builder's reductions and polynomials (``segment_sum``,
  ``chebyshev_lower``) compute what their numpy mirrors say once
  compiled, emulated on 1 and 4 chips, and decrypted.
"""

import numpy as np
import pytest

import repro
from repro.core import CinnamonProgram
from repro.core.ir.bootstrap_graph import BOOTSTRAP_13
from repro.fhe import CKKSContext, SlotCapacityError, make_params
from repro.fhe.params import ArchParams
from repro.fhe.polyeval import chebyshev_coefficients
from repro.nn import (
    DepthBudgetError,
    Linear,
    Model,
    PackingSpec,
    build_bert_encoder,
    build_helr,
    cheb_reference,
    lower,
    nn_params,
    relu,
    select_packing,
)
from repro.nn.lower import DslLowering, chebyshev_lower


@pytest.fixture(scope="module")
def helr():
    return build_helr()


@pytest.fixture(scope="module")
def bert():
    return build_bert_encoder()


class TestPackingSelection:
    def test_block_covers_widest_layer(self, helr):
        spec = select_packing(helr, slot_count=256)
        assert spec.block >= max(helr.widths())
        assert spec.block & (spec.block - 1) == 0
        assert spec.lanes == helr.lanes
        assert spec.layout == "batched"
        assert spec.frame == spec.lanes * spec.block

    def test_single_lane_is_tiled(self, rng):
        m = Model("t", [Linear(rng.normal(size=(4, 4))), relu(4)], lanes=1)
        assert select_packing(m, 64).layout == "tiled"

    def test_overflow_raises_typed_error(self, helr):
        with pytest.raises(SlotCapacityError):
            select_packing(helr, slot_count=32)

    def test_lane_starts(self):
        spec = PackingSpec(lanes=4, block=8)
        assert spec.lane_starts() == [0, 8, 16, 24]


class TestBootstrapFreeLowering:
    def test_helr_fits_small_chain(self, helr):
        params = make_params(ring_degree=256, levels=8)
        low = lower(helr, params)
        assert low.plan.bootstrap_count == 0
        assert low.program.count("bootstrap") == 0
        assert low.plan.input_level <= params.max_level
        levels = [op.level for op in low.program.ops]
        assert max(levels) <= params.max_level
        assert min(levels) >= 1

    def test_depth_budget_error_when_too_shallow(self, bert):
        params = make_params(ring_degree=256, levels=8)
        with pytest.raises(DepthBudgetError, match="bootstrap_plan"):
            lower(bert, params)

    def test_deterministic(self, helr):
        params = make_params(ring_degree=256, levels=8)
        a = lower(helr, params)
        b = lower(helr, params)
        assert len(a.program.ops) == len(b.program.ops)
        assert a.rotations == b.rotations
        assert a.plan.total_depth == b.plan.total_depth
        for name, base in a.plaintext_values.items():
            assert np.array_equal(base, b.plaintext_values[name])


class TestPlannedBootstraps:
    def test_bert_under_bootstrap_13(self, bert):
        low = lower(bert, ArchParams(), bootstrap_plan=BOOTSTRAP_13)
        assert low.plan.bootstrap_count > 0
        assert low.program.count("bootstrap") == low.plan.bootstrap_count
        assert low.plan.input_level == BOOTSTRAP_13.output_level
        levels = [op.level for op in low.program.ops]
        assert max(levels) <= ArchParams().max_level
        assert min(levels) >= 1

    def test_bootstraps_were_necessary(self, bert):
        # The model's total depth exceeds the steady-state budget, so the
        # refreshes the plan schedules are not gratuitous; and the
        # program honours the floor everywhere despite them.
        low = lower(bert, ArchParams(), bootstrap_plan=BOOTSTRAP_13)
        assert low.plan.total_depth > BOOTSTRAP_13.output_level - 1
        assert min(op.level for op in low.program.ops) >= 1

    def test_plan_too_tall_for_chain(self, bert):
        params = make_params(ring_degree=256, levels=8)
        with pytest.raises(DepthBudgetError, match="raises to level"):
            lower(bert, params, bootstrap_plan=BOOTSTRAP_13)


class TestLoweredModel:
    def test_bind_plaintexts_tiles_frames(self, helr):
        params = make_params(ring_degree=256, levels=8)
        low = lower(helr, params)
        bound = low.bind_plaintexts(params.slot_count)
        frame = low.spec.frame
        for name, values in bound.items():
            assert len(values) == params.slot_count
            base = low.plaintext_values[name]
            assert np.array_equal(values[:frame], base)
            assert np.array_equal(values, np.tile(base,
                                                  params.slot_count // frame))

    def test_bind_rejects_non_multiple(self, helr):
        params = make_params(ring_degree=256, levels=8)
        low = lower(helr, params)
        with pytest.raises(ValueError, match="divide"):
            low.bind_plaintexts(low.spec.frame * 3 // 2)


class TestCompiledReductions:
    """``segment_sum`` and ``chebyshev_lower`` through the whole stack:
    DSL program -> compile -> ISA emulator -> decrypt."""

    FRAME = 32
    SPANS = (2, 8, FRAME)
    LEVELS = 8

    @pytest.fixture(scope="class")
    def context(self):
        return CKKSContext(nn_params(self.LEVELS, num_digits=3), seed=5)

    @pytest.fixture(scope="class")
    def coeffs(self):
        return chebyshev_coefficients(
            lambda x: 1.0 / (1.0 + np.exp(-12.0 * (x - 0.25))), 15)

    @pytest.mark.parametrize("chips", [1, 4])
    def test_sums_and_soft_threshold_decrypt_to_numpy(self, context,
                                                      coeffs, chips, rng):
        prog = CinnamonProgram("reductions", level=self.LEVELS)
        ctx = DslLowering(PackingSpec(lanes=1, block=self.FRAME), prog)
        x = prog.input("x")
        for span in self.SPANS:
            prog.output(f"sum{span}", ctx.segment_sum(x, span))
        prog.output("soft", chebyshev_lower(ctx, x, coeffs))
        compiled = repro.compile(prog, context.params, machine=chips)

        values = rng.uniform(-1, 1, self.FRAME)
        slots = context.params.slot_count
        ct = context.encrypt_values(np.tile(values, slots // self.FRAME),
                                    level=self.LEVELS)
        outputs = compiled.emulate({"x": ct}, context=context)

        def decrypted(name):
            return context.decrypt_values(outputs[name]).real[:self.FRAME]

        for span in self.SPANS:
            want = sum(np.roll(values, -t) for t in range(span))
            assert np.max(np.abs(decrypted(f"sum{span}") - want)) < 1e-3
        want = cheb_reference(values, coeffs)
        assert np.max(np.abs(decrypted("soft") - want)) < 1e-3

    def test_non_power_of_two_span_rejected(self):
        prog = CinnamonProgram("bad-span", level=self.LEVELS)
        ctx = DslLowering(PackingSpec(lanes=1, block=self.FRAME), prog)
        with pytest.raises(ValueError, match="power of two"):
            ctx.segment_sum(prog.input("x"), 6)
