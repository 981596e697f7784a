"""Experiment harnesses: one module per table/figure of the paper.

Every module exposes ``run(fast=True)`` returning the rows/series of its
table or figure, and ``format_result(result)`` rendering them as text.
``fast=True`` trims sweep points so the whole suite stays tractable on a
laptop; ``fast=False`` runs the full published grid.  The benchmark
harnesses under ``benchmarks/`` call these entry points.
"""

from . import (
    fig1_scaling,
    fig6_motivation,
    table1_area,
    table2_performance,
    table3_yield,
    fig11_speedup,
    fig12_perf_per_dollar,
    fig13_keyswitch,
    fig14_bootstrap_scaling,
    fig15_utilization,
    fig16_sensitivity,
)

ALL_EXPERIMENTS = {
    "fig1": fig1_scaling,
    "fig6": fig6_motivation,
    "table1": table1_area,
    "table2": table2_performance,
    "table3": table3_yield,
    "fig11": fig11_speedup,
    "fig12": fig12_perf_per_dollar,
    "fig13": fig13_keyswitch,
    "fig14": fig14_bootstrap_scaling,
    "fig15": fig15_utilization,
    "fig16": fig16_sensitivity,
}

__all__ = ["ALL_EXPERIMENTS"] + [module.__name__.rpartition(".")[2]
                                 for module in ALL_EXPERIMENTS.values()]
