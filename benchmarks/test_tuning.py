"""Autotuner benchmark: search quality and cache-amortized re-tunes.

Not a paper figure — this benchmarks the `repro.tune` subsystem in the
regime it exists for: a moderate candidate budget over the small
bootstrap workload, where the content-addressed compile cache makes the
second tune of the same target mostly cache hits.

Asserts the acceptance shape: the tuned config is no worse than the
stock configuration (the default is always in the pool), the winner
persists to the tuning DB, and a re-tune against a warm cache reports
cache hits and no recompiles.
"""

import pytest

from repro.tune import Tuner

BUDGET = 8


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tune-cache")


def test_tuner_finds_no_worse_config(once, cache_dir):
    tuner = Tuner(cache_dir=cache_dir, seed=0)
    report = once(tuner.tune, "bootstrap", "cinnamon_4", scale="small",
                  budget=BUDGET)
    print(report.leaderboard())
    assert report.best_cycles <= report.default_cycles
    assert report.speedup >= 1.0
    assert report.candidates_tried >= BUDGET
    assert tuner.db.get(report.db_key)["cycles"] == report.best_cycles


def test_retune_amortizes_through_cache(once, cache_dir):
    # Depends on the warm cache the previous benchmark left behind.
    tuner = Tuner(cache_dir=cache_dir, seed=0)
    report = once(tuner.tune, "bootstrap", "cinnamon_4", scale="small",
                  budget=BUDGET)
    print(f"re-tune: {report.cache_hits} compile cache hits, "
          f"{report.cache_misses} misses, {report.seconds:.1f}s")
    assert report.cache_hits > 0
    assert report.cache_misses == 0
