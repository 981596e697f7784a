"""Figure 16: sensitivity to halving/doubling machine resources.

For each resource (register file, link bandwidth, memory bandwidth, vector
width), the bootstrap benchmark is re-run on Cinnamon-4 with that resource
halved and doubled; Figure 16 reports the speedup relative to the default
configuration.  (The paper sweeps Cinnamon-4 over the geomean of all four
benchmarks and 8/12 over BERT; since all workload kernels are bootstrap-
dominated, the bootstrap sweep carries the shape.  ``fast=False`` also
sweeps Cinnamon-8/12.)

``tuned=True`` (CLI: ``--tuned``) re-runs the sweep from the autotuned
baseline instead of the stock configuration: the best Cinnamon-4
bootstrap config persisted in the :class:`repro.tune.TuningDB` (a quick
budget-8 search fills the DB on a miss).  The report then also shows
default vs tuned cycles, and every speedup is relative to the *tuned*
baseline.

Expected shape: halving any resource costs ~20-40%, doubling buys only
~2-20% — the chips are balanced (Section 7.6).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim.config import CINNAMON_4, config_for, machine_with
from .common import compile_bootstrap, session, simulate

RESOURCES = ("register_file", "link_bandwidth", "memory_bandwidth",
             "vector_width")
FACTORS = (0.5, 2.0)


def _tuned_config(machine_name: str) -> Optional[dict]:
    """The tuning DB's best bootstrap config for ``machine_name``.

    Quick-tunes (budget 8, each candidate simulated in full) through the
    shared experiment session to fill the DB on a Cinnamon-4 miss; other
    machines just fall back to the stock configuration.
    """
    from ..tune import QUICK_BUDGET, Tuner, TuningDB, default_db_path, \
        get_workload, tuning_key

    workload = get_workload("bootstrap", "paper")
    program, params, base_options = workload.materialize()
    db = TuningDB(default_db_path())
    key = tuning_key(program, params, machine_name)
    entry = db.get(key)
    if entry is None:
        if machine_name != CINNAMON_4.name:
            return None
        tuner = Tuner(session=session(), db=db)
        report = tuner.tune_program(
            program, params, machine_name, base_options=base_options,
            workload_name=workload.name, budget=QUICK_BUDGET)
        entry = db.get(report.db_key)
    return entry


def run(fast: bool = True, tuned: bool = False
        ) -> Dict[str, Dict[str, Dict[float, float]]]:
    machines = {"Cinnamon-4": CINNAMON_4}
    if not fast:
        machines["Cinnamon-8"] = config_for(8)
        machines["Cinnamon-12"] = config_for(12)
    out: Dict[str, Dict[str, Dict[float, float]]] = {}
    for name, machine in machines.items():
        streams = max(1, machine.num_chips // 4)
        layout = dict(num_streams=streams,
                      chips_per_stream=min(4, machine.num_chips))
        registers = 224
        if tuned:
            entry = _tuned_config(name)
            if entry is not None:
                cfg = dict(entry["assignment"])
                layout.update(
                    chips_per_stream=cfg.get("chips_per_stream",
                                             layout["chips_per_stream"]),
                    keyswitch_policy=cfg.get("keyswitch_policy",
                                             "cinnamon"),
                    enable_batching=cfg.get("enable_batching", True),
                    num_digits=cfg.get("num_digits"),
                )
                registers = cfg.get("registers_per_chip", registers)
                layout["registers_per_chip"] = registers
                baseline = out.setdefault("__tuning__", {})
                baseline[name] = {
                    "default_cycles": entry["default_cycles"],
                    "tuned_cycles": entry["cycles"],
                    "config": cfg,
                }
        compiled = compile_bootstrap(machine.num_chips, **layout)
        base = simulate(compiled, machine,
                        tag="tuned" if tuned else "")
        rows: Dict[str, Dict[float, float]] = {}
        for resource in RESOURCES:
            rows[resource] = {}
            for factor in FACTORS:
                scaled_machine = machine_with(machine, resource, factor)
                if resource == "register_file":
                    # Register-file size changes what the compiler can hold
                    # resident: recompile with the scaled register count.
                    scaled_layout = dict(
                        layout,
                        registers_per_chip=max(32, int(registers * factor)))
                    scaled_compiled = compile_bootstrap(machine.num_chips,
                                                        **scaled_layout)
                    result = simulate(scaled_compiled, scaled_machine,
                                      tag=f"rf{factor}")
                else:
                    result = simulate(compiled, scaled_machine,
                                      tag=f"{resource}{factor}")
                rows[resource][factor] = base.cycles / result.cycles
        out[name] = rows
    return out


def format_result(result) -> str:
    tuning = result.get("__tuning__")
    title = "Figure 16: sensitivity (speedup vs {} config; 1.0 = no change)"
    lines = [title.format("tuned" if tuning else "default"), ""]
    if tuning:
        for machine, info in tuning.items():
            ratio = info["default_cycles"] / max(1, info["tuned_cycles"])
            cfg = "  ".join(f"{k}={v}" for k, v in
                            sorted(info["config"].items()))
            lines.append(
                f"{machine} tuned baseline: {info['tuned_cycles']:,.0f} "
                f"cycles vs default {info['default_cycles']:,.0f} "
                f"({ratio:.2f}x)")
            lines.append(f"  config: {cfg}")
        lines.append("")
    for machine, rows in result.items():
        if machine == "__tuning__":
            continue
        lines.append(machine)
        for resource, by_factor in rows.items():
            cells = "  ".join(f"x{f}: {s:.2f}" for f, s in sorted(by_factor.items()))
            lines.append(f"  {resource:18s} {cells}")
    return "\n".join(lines)
