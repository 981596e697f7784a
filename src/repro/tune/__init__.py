"""``repro.tune`` — simulator-guided autotuning of compiler & machine
configuration.

The paper sweeps Cinnamon's configuration knobs by hand (keyswitch
policy, batching, digit count, stream layout, machine resources); this
subsystem searches that space automatically, using the cycle-accurate
simulator as the cost oracle, the content-addressed compile cache to
make config re-visits nearly free, and the session worker pool to fan
evaluations out.

Pieces:

* :mod:`~repro.tune.space` — the typed :class:`SearchSpace` /
  :class:`Candidate` model with per-workload validity constraints;
* :mod:`~repro.tune.oracle` — the cached compile + simulate cost
  function and its :class:`Trial` records;
* :mod:`~repro.tune.db` — the persisted, versioned :class:`TuningDB`
  (tuned configs survive processes and ship as defaults);
* :mod:`~repro.tune.tuner` — the one :func:`search` (the stock config
  plus ``budget`` seeded samples, each simulated to completion, fastest
  wins), the :class:`Tuner` orchestrator and the :func:`apply_tuning`
  hook behind ``repro.compile(tune=...)`` and
  ``CinnamonServer(tuned=True)``;
* ``python -m repro.tune`` — the CLI (tune a named workload, print a
  leaderboard, persist the winner).

Typical use::

    from repro.tune import Tuner

    report = Tuner(cache_dir=".cinnamon-cache").tune(
        "bootstrap", "cinnamon_4", budget=8)
    print(report.leaderboard())
"""

from .db import TUNING_DB_SCHEMA, TuningDB, default_db_path, tuning_key
from .oracle import SimulationOracle, Trial
from .space import (
    Axis,
    Candidate,
    MachineVariant,
    SearchSpace,
    default_candidate,
    default_space,
)
from .tuner import FULL_BUDGET, QUICK_BUDGET, Tuner, TuningReport, \
    apply_tuning, search
from .workloads import (
    SCALES,
    WORKLOAD_NAMES,
    TunableWorkload,
    get_workload,
)

__all__ = [
    "Axis",
    "Candidate",
    "MachineVariant",
    "SearchSpace",
    "default_candidate",
    "default_space",
    "search",
    "Trial",
    "SimulationOracle",
    "TuningDB",
    "TUNING_DB_SCHEMA",
    "tuning_key",
    "default_db_path",
    "Tuner",
    "TuningReport",
    "apply_tuning",
    "QUICK_BUDGET",
    "FULL_BUDGET",
    "TunableWorkload",
    "get_workload",
    "WORKLOAD_NAMES",
    "SCALES",
]
