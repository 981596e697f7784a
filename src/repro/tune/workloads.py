"""Named tunable workloads.

The CLI's ``--workload`` names resolve here: one per class of the
serving mix (:func:`repro.workloads.serving.serving_mix` with
``include_nn=True``), each building a ``(program, params, base_options)``
triple at one of two scales:

* ``"paper"`` — the architectural scale the paper evaluates (the real
  BOOTSTRAP_13 plan, N = 64K-equivalent parameters).  A single compile
  takes tens of seconds; tuning budgets amortize through the compile
  cache.
* ``"small"`` — structurally identical miniatures (the serving layer's
  CI mix) that compile in well under a second, for smoke runs, tests,
  and the tuning CI gate.

Every entry builds the serving mix's own program and params, so a DB
entry tuned here matches the key the serving layer computes.  The one
override is the paper bootstrap, which is
:func:`repro.experiments.common.compile_bootstrap`'s program so that
fig16's ``--tuned`` mode finds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from ..core.compiler import CompilerOptions
from ..core.dsl.program import CinnamonProgram
from ..core.ir.bootstrap_graph import BOOTSTRAP_13
from ..fhe.params import ArchParams
from ..workloads.bootstrap import bootstrap_program
from ..workloads.serving import serving_mix

SCALES = ("small", "paper")

#: Paper-scale models the lowering refreshes via BOOTSTRAP_13: their
#: options name that plan so the oracle's options fingerprint matches
#: the plan the lowering scheduled against.
_BOOTSTRAPPED = {("nn-resnet20", "paper"), ("nn-bert-encoder", "paper")}


@dataclass(frozen=True)
class TunableWorkload:
    """One named tuning target at one scale."""

    name: str
    scale: str
    build: Callable[[], Tuple[CinnamonProgram, object, CompilerOptions]]

    def materialize(self) -> Tuple[CinnamonProgram, object, CompilerOptions]:
        """``(program, params, base_options)`` for the oracle."""
        return self.build()


def _paper_bootstrap():
    # Matches experiments.common.compile_bootstrap: same program shape,
    # same params, same plan -> same tuning key as fig16's --tuned mode.
    params = ArchParams(max_level=BOOTSTRAP_13.top_level)
    program = bootstrap_program(BOOTSTRAP_13, num_streams=1)
    return program, params, CompilerOptions(bootstrap_plan=BOOTSTRAP_13)


def _from_mix(entry, plan) -> Callable:
    def build():
        return (entry.build(), entry.params,
                CompilerOptions(bootstrap_plan=plan))
    return build


_BUILDERS: Dict[Tuple[str, str], Callable] = {
    (name, scale): _from_mix(
        entry, BOOTSTRAP_13 if (name, scale) in _BOOTSTRAPPED else None)
    for scale in SCALES
    for name, entry in serving_mix(scale, include_nn=True).items()
}
_BUILDERS[("bootstrap", "paper")] = _paper_bootstrap

WORKLOAD_NAMES = tuple(sorted({name for name, _ in _BUILDERS}))


def get_workload(name: str, scale: str = "small") -> TunableWorkload:
    """Resolve a named workload at a scale; raises with the valid names."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; valid choices: "
                         + ", ".join(repr(s) for s in SCALES))
    try:
        build = _BUILDERS[(name, scale)]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; valid choices: "
            + ", ".join(repr(n) for n in WORKLOAD_NAMES)) from None
    return TunableWorkload(name=name, scale=scale, build=build)
