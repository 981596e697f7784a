"""Tests for the experiment harness (cheap experiments run in full; the
simulation-heavy ones are exercised structurally or via tiny probes —
their full runs live in benchmarks/)."""

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    fig1_scaling,
    fig12_perf_per_dollar,
    table1_area,
    table3_yield,
)
from repro.experiments.common import compile_bootstrap, geomean, simulate, \
    workload_timer
from repro.sim.config import CINNAMON_4


class TestRegistry:
    def test_all_experiments_registered(self):
        expected = {"fig1", "fig6", "fig11", "fig12", "fig13", "fig14",
                    "fig15", "fig16", "table1", "table2", "table3"}
        assert set(ALL_EXPERIMENTS) == expected

    def test_star_import_binds_every_experiment(self):
        namespace = {}
        exec("from repro.experiments import *", namespace)
        assert namespace["ALL_EXPERIMENTS"] is ALL_EXPERIMENTS
        for module in ALL_EXPERIMENTS.values():
            assert namespace[module.__name__.rpartition(".")[2]] is module

    def test_every_module_has_interface(self):
        for name, module in ALL_EXPERIMENTS.items():
            assert hasattr(module, "run"), name
            assert hasattr(module, "format_result"), name


class TestCheapExperiments:
    def test_fig1(self):
        result = fig1_scaling.run()
        assert "BERT-Base" in result["models"]
        text = fig1_scaling.format_result(result)
        assert "Cinnamon" in text

    def test_table1(self):
        result = table1_area.run()
        assert abs(result["total_mm2"] - 223.18) < 0.5
        assert "ntt" in table1_area.format_result(result)

    def test_table3(self):
        result = table3_yield.run()
        assert result["Cinnamon"]["yield_pct"] > result["Cinnamon-M"]["yield_pct"]
        assert "ARK" in table3_yield.format_result(result)


class TestCommonInfra:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_compile_cache_hits(self):
        from repro.core.ir.bootstrap_graph import BootstrapPlan

        # A deliberately tiny plan keeps this test fast.
        plan = BootstrapPlan("test-mini", top_level=12, output_level=2,
                             cts_stages=1, cts_radix=2,
                             eval_mod_degree=3, eval_mod_doublings=0)
        a = compile_bootstrap(2, plan=plan)
        b = compile_bootstrap(2, plan=plan)
        assert a is b

    def test_comm_summary_attached_and_ir_released(self):
        from repro.core.ir.bootstrap_graph import BootstrapPlan

        plan = BootstrapPlan("test-mini2", top_level=12, output_level=2,
                             cts_stages=1, cts_radix=2,
                             eval_mod_degree=3, eval_mod_doublings=0)
        compiled = compile_bootstrap(2, plan=plan)
        assert compiled.comm_summary.limb_ops > 0
        assert compiled.limb_program.ops == []

    def test_simulate_cached(self):
        from repro.core.ir.bootstrap_graph import BootstrapPlan

        plan = BootstrapPlan("test-mini3", top_level=12, output_level=2,
                             cts_stages=1, cts_radix=2,
                             eval_mod_degree=3, eval_mod_doublings=0)
        compiled = compile_bootstrap(4, plan=plan)
        r1 = simulate(compiled, CINNAMON_4)
        r2 = simulate(compiled, CINNAMON_4)
        assert r1 is r2

    def test_workload_timer_singleton(self):
        assert workload_timer() is workload_timer()


class TestPerfPerDollarPlumbing:
    def test_cost_multipliers(self):
        from repro.experiments.fig12_perf_per_dollar import COST_KEY

        assert COST_KEY["Cinnamon-8"][1] == 2.0
        assert COST_KEY["Cinnamon-12"][1] == 3.0
        assert COST_KEY["CraterLake"][1] == 1.0
