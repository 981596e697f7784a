"""The tuner's one search, against a fake oracle (a lookup table of costs)
so the sampling and ranking run without a compiler or simulator."""

import random

from repro.tune.oracle import Trial
from repro.tune.space import Axis, Candidate, SearchSpace
from repro.tune.tuner import search


class FakeOracle:
    """Cost = the candidate's 'a' value; records every evaluation."""

    def __init__(self):
        self.evaluated = []

    def evaluate_many(self, candidates):
        self.evaluated += [c.key() for c in candidates]
        return [Trial(candidate=c, cycles=c.config["a"]) for c in candidates]


def test_search_evaluates_sample_and_default_once_and_ranks_them():
    space = SearchSpace(axes=[Axis("a", tuple(range(16)))])
    default = Candidate.of(a=9)
    runs = []
    for seed in (3, 3, 4):
        oracle = FakeOracle()
        trials = search(space, oracle, default, budget=6, seed=seed)
        sample = {c.key() for c in space.sample(6, random.Random(seed))}
        # Every sampled candidate plus the default, each exactly once.
        assert sorted(oracle.evaluated) == sorted(sample | {default.key()})
        assert [t.cycles for t in trials] == sorted(t.cycles for t in trials)
        assert trials[0].cycles == min(c.config["a"] for c in
                                       space.enumerate()
                                       if c.key() in sample | {default.key()})
        runs.append([t.candidate.key() for t in trials])
    assert runs[0] == runs[1]          # deterministic per seed
    assert runs[0] != runs[2]

    # A budget past the space's size evaluates all of it, default included.
    oracle = FakeOracle()
    trials = search(space, oracle, default, budget=100)
    assert len(oracle.evaluated) == len(set(oracle.evaluated)) == 16
    assert trials[0].cycles == 0
