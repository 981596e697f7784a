"""The tuning orchestrator: space x oracle -> best config.

:class:`Tuner` wires the pieces together: it builds (or accepts) a
search space, runs :func:`search` through the session's cached compile +
simulate oracle — the stock-default configuration plus ``budget`` seeded
samples, each simulated to completion, so the reported best can never be
worse than the default — persists the winner to the
:class:`~repro.tune.db.TuningDB`, and appends a ``kind: "tune"`` entry
to the session trace.

The module-level :func:`apply_tuning` is the integration hook behind
``repro.compile(..., tune=...)``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import List, Optional

from ..core.compiler import CompilerOptions
from ..runtime.session import CinnamonSession
from .db import TuningDB, default_db_path, tuning_key
from .oracle import SimulationOracle, Trial
from .space import Candidate, MachineVariant, SearchSpace, \
    default_candidate, default_space
from .workloads import TunableWorkload, get_workload

#: Candidate budgets of the two facade modes.
QUICK_BUDGET = 8
FULL_BUDGET = 32


def search(space: SearchSpace, oracle, default: Candidate, budget: int,
           seed: int = 0) -> List[Trial]:
    """One tuning search: every trial, fastest first.

    Evaluates ``default`` and ``budget`` candidates sampled from
    ``space`` with a ``seed``-ed RNG (all of them when the space is
    smaller), each exactly once, through ``oracle.evaluate_many``.  Ties
    break on the candidate's canonical key, so the ranking — and its
    head, the winner — is deterministic.
    """
    default_key = default.key()
    sample = space.sample(budget, random.Random(seed))
    trials = oracle.evaluate_many(
        [default] + [c for c in sample if c.key() != default_key])
    return sorted(trials, key=lambda t: (t.cycles, t.candidate.key()))


@dataclass
class TuningReport:
    """Everything one tuning run produced."""

    workload: str
    machine: str                 # machine label (resolved name)
    budget: int
    default_cycles: int
    best_cycles: int
    best: Candidate
    default: Candidate
    trials: List[Trial] = field(default_factory=list)  # fastest first
    cache_hits: int = 0
    cache_misses: int = 0
    seconds: float = 0.0
    db_path: Optional[str] = None
    db_key: Optional[str] = None

    @property
    def speedup(self) -> float:
        """Default cycles over best cycles (>= 1.0 by construction)."""
        return self.default_cycles / max(1, self.best_cycles)

    @property
    def candidates_tried(self) -> int:
        return len(self.trials)

    def leaderboard(self, limit: int = 10) -> str:
        """A printable ranking table."""
        lines = [
            f"Tuning leaderboard — {self.workload} on {self.machine} "
            f"(budget {self.budget})",
            f"{'rank':>4}  {'cycles':>12}  {'vs default':>10}  config",
        ]
        default_key = self.default.key()
        for rank, trial in enumerate(self.trials[:limit], start=1):
            marker = " *default*" if trial.candidate.key() == default_key \
                else ""
            lines.append(
                f"{rank:>4}  {trial.cycles:>12}  "
                f"{self.default_cycles / max(1, trial.cycles):>9.2f}x  "
                f"{trial.candidate.describe()}{marker}")
        lines.append(
            f"best: {self.best_cycles} cycles "
            f"({self.speedup:.2f}x vs default {self.default_cycles}); "
            f"{self.candidates_tried} candidates, "
            f"compile cache {self.cache_hits} hits / "
            f"{self.cache_misses} misses, {self.seconds:.1f}s")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "machine": self.machine,
            "budget": self.budget,
            "default_cycles": self.default_cycles,
            "best_cycles": self.best_cycles,
            "speedup": self.speedup,
            "best_config": self.best.as_dict(),
            "default_config": self.default.as_dict(),
            "candidates_tried": self.candidates_tried,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "seconds": self.seconds,
            "db_path": self.db_path,
            "db_key": self.db_key,
            "trials": [t.as_dict() for t in self.trials],
        }


class Tuner:
    """Simulator-guided autotuning of compiler & machine configuration."""

    def __init__(self, session: Optional[CinnamonSession] = None,
                 cache_dir=None, db: Optional[TuningDB] = None,
                 seed: int = 0, max_workers: Optional[int] = None):
        self.session = session or CinnamonSession(cache_dir=cache_dir,
                                                  capacity=4)
        # `db or ...` would discard an *empty* TuningDB (len() == 0 makes
        # it falsy) and silently retarget the default path.
        self.db = db if db is not None else TuningDB(
            default_db_path(cache_dir))
        self.seed = seed
        self.max_workers = max_workers

    # ------------------------------------------------------------------ #

    def tune(self, workload="bootstrap", machine="cinnamon_4", *,
             scale: str = "small", budget: int = 16,
             space: Optional[SearchSpace] = None,
             tune_machine: bool = False,
             persist: bool = True) -> TuningReport:
        """Tune a named workload (see :mod:`repro.tune.workloads`)."""
        if isinstance(workload, TunableWorkload):
            target = workload
        else:
            target = get_workload(workload, scale)
        program, params, base_options = target.materialize()
        return self.tune_program(
            program, params, machine, base_options=base_options,
            workload_name=target.name, budget=budget, space=space,
            tune_machine=tune_machine, persist=persist)

    def tune_program(self, program, params, machine, *,
                     base_options: Optional[CompilerOptions] = None,
                     workload_name: Optional[str] = None,
                     budget: int = 16,
                     space: Optional[SearchSpace] = None,
                     tune_machine: bool = False,
                     persist: bool = True) -> TuningReport:
        """Tune an arbitrary program against the simulator."""
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        variant = MachineVariant.of(machine)
        label = variant.label
        workload_name = workload_name or program.name
        space = space or default_space(variant, params=params,
                                       tune_machine=tune_machine)
        oracle = SimulationOracle(self.session, program, params,
                                  base_options=base_options,
                                  job_prefix=f"tune-{workload_name}",
                                  max_workers=self.max_workers)

        stats0 = self.session.cache_stats.as_dict()
        started = time.perf_counter()
        baseline = default_candidate(variant, base_options, params)
        trials = search(space, oracle, baseline, budget, self.seed)
        elapsed = time.perf_counter() - started
        stats1 = self.session.cache_stats.as_dict()

        best_trial = trials[0]
        default_cycles = next(t.cycles for t in trials
                              if t.candidate.key() == baseline.key())
        report = TuningReport(
            workload=workload_name,
            machine=label,
            budget=budget,
            default_cycles=default_cycles,
            best_cycles=best_trial.cycles,
            best=best_trial.candidate,
            default=baseline,
            trials=trials,
            cache_hits=(stats1["memory_hits"] + stats1["disk_hits"]
                        - stats0["memory_hits"] - stats0["disk_hits"]),
            cache_misses=stats1["misses"] - stats0["misses"],
            seconds=elapsed,
        )

        key = tuning_key(program, params, label)
        report.db_key = key
        if persist:
            self.db.put(key, {
                "workload": workload_name,
                "machine": label,
                "assignment": best_trial.candidate.as_dict(),
                "cycles": best_trial.cycles,
                "default_cycles": default_cycles,
                "budget": budget,
            })
            report.db_path = str(self.db.path)

        self.session.record(
            "tune", job=f"tune-{workload_name}",
            workload=workload_name,
            machine=label,
            budget=budget,
            candidates=report.candidates_tried,
            default_cycles=default_cycles,
            best_cycles=best_trial.cycles,
            best_config=best_trial.candidate.as_dict(),
            cache_hits=report.cache_hits,
            seconds=elapsed,
            trials=[t.as_dict() for t in trials],
        )
        return report


# ---------------------------------------------------------------------- #
# Facade integration: repro.compile(tune=...)

def apply_tuning(program, params, machine, options, mode, *,
                 session: Optional[CinnamonSession] = None,
                 db: Optional[TuningDB] = None) -> Optional[CompilerOptions]:
    """Resolve the tuned options for a compile request.

    ``mode`` is ``repro.compile``'s ``tune=`` argument: ``"db"`` (or
    ``True``) only applies an existing DB entry; ``"quick"`` and
    ``"full"`` run an on-the-spot tune (budget 8 / 32) when the DB has
    no entry yet.  Returns ``None`` when nothing applies (no entry,
    ``mode`` falsy), so callers fall through to their stock options.
    """
    if not mode:
        return None
    if mode is True:
        mode = "db"
    if mode not in ("db", "quick", "full"):
        raise ValueError(
            f"unknown tune mode {mode!r}; valid choices: 'quick', 'full', "
            "'db' (or True)")
    db = db if db is not None else TuningDB(default_db_path())
    variant = MachineVariant.of(
        machine if machine is not None
        else (options.machine or options.num_chips if options is not None
              else 4))
    label = variant.label
    tuned = db.tuned_options(program, params, label, options)
    if tuned is not None or mode == "db":
        return tuned
    tuner = Tuner(session=session, db=db)
    budget = QUICK_BUDGET if mode == "quick" else FULL_BUDGET
    report = tuner.tune_program(program, params, variant,
                                base_options=options, budget=budget)
    return report.best.options(options)
