"""The simulator-backed cost function of the autotuner.

One :class:`SimulationOracle` owns a workload (program + params + base
options) and a :class:`~repro.runtime.CinnamonSession`.  Evaluating a
candidate compiles it through the session (content-addressed, so config
re-visits and re-tunes hit the cache) and cycle-simulates the result to
completion on the candidate's machine — fanned out through
``run_batch``'s worker pool.  The artifacts stay as the session cached
them: a tuned program compiled later in the same session is the very
artifact the oracle measured.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.compiler import CompilerOptions
from ..runtime.session import CinnamonSession, CompileJob
from .space import Candidate


@dataclass
class Trial:
    """One candidate evaluation: its simulated cycles, run to completion."""

    candidate: Candidate
    cycles: int
    cache: str = ""               # where the compile came from
    seconds: float = 0.0          # wall time of this evaluation

    def as_dict(self) -> dict:
        return {
            "config": self.candidate.as_dict(),
            "cycles": self.cycles,
            "cache": self.cache,
            "seconds": self.seconds,
        }


class SimulationOracle:
    """compile + cycle-simulate as a (cached, parallel) cost function."""

    def __init__(self, session: CinnamonSession, program, params,
                 base_options: Optional[CompilerOptions] = None,
                 job_prefix: str = "tune",
                 max_workers: Optional[int] = None):
        self.session = session
        self.program = program
        self.params = params
        self.base_options = base_options or CompilerOptions()
        self.job_prefix = job_prefix
        self.max_workers = max_workers

    def evaluate_many(self, candidates: Sequence[Candidate]) -> List[Trial]:
        """Evaluate candidates concurrently, one trial each, in order."""
        jobs = [CompileJob(
            program=self.program,
            params=self.params,
            options=cand.options(self.base_options),
            sim_machine=cand.machine.resolve(),
            name=f"{self.job_prefix}:{self.program.name}",
        ) for cand in candidates]
        started = time.perf_counter()
        results = self.session.run_batch(jobs, max_workers=self.max_workers)
        seconds = (time.perf_counter() - started) / max(1, len(candidates))
        return [Trial(candidate=cand, cycles=run.result.cycles,
                      cache=run.cache, seconds=seconds)
                for cand, run in zip(candidates, results)]
