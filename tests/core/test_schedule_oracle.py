"""Differential oracle: the emulator's schedule builder vs its Python twin.

``emulator._build_schedule`` reads the streams' typed columns with numpy
(the attrs once per distinct dict, the memory symbols once per distinct
string) and walks the issue order in one C call (``repro_issue_order`` in
``fhe/_native.c``).  ``emulator._build_schedule_python`` reads a row per
instruction and walks the issue order in Python; it is the oracle, and
what runs where the C library does not load.  The two must build the same
:class:`~repro.core.isa.emulator._Schedule`, field by field (values,
dtypes, shapes, table order), and refuse the same streams with the same
exception and message.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core import CinnamonProgram, CompilerDriver, CompilerOptions
from repro.core.ir.bootstrap_graph import BootstrapPlan
from repro.core.isa import emulator
from repro.core.isa.instructions import (COL, LD, MOV, RCV, SND, ST, VADD,
                                         Instruction)
from repro.fhe import make_params, native

from .test_emulator_oracle import _chain, _rotations, module_of, random_streams

#: Every field of a schedule the emulator reads.
FIELDS = ("groups", "dst", "src", "p0", "p1", "load_ids", "load_names",
          "load_index", "load_prefix", "load_row", "prefixes", "store_names",
          "primes", "prime_column", "scalars", "galois", "factors",
          "ntt_primes", "replayable", "slots", "instructions")


@pytest.fixture(autouse=True)
def c_library():
    if native.load_library() is None:
        pytest.skip(f"no C kernels: {native.build_error()}")


def assert_same_schedule(isa):
    """Build ``isa``'s schedule both ways; assert they agree."""
    got = emulator._build_schedule(isa)
    want = emulator._build_schedule_python(isa)
    for field in FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), field
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field
            assert np.array_equal(a, b), field
        else:
            assert type(a) is type(b), field
            assert a == b, field
            if isinstance(b, dict):
                assert list(a) == list(b), field
    return got


# ---------------------------------------------------------------------- #
# Streams that build


@pytest.mark.parametrize("chips", [1, 2, 4])
@pytest.mark.parametrize("seed", range(4))
def test_random_streams(chips, seed):
    compiled, _ = random_streams(seed, chips, steps=500)
    schedule = assert_same_schedule(compiled.isa)
    assert len(schedule.groups) and schedule.store_names


@pytest.mark.parametrize("seed,chips", [(99, 2), (7, 4)])
def test_long_streams_slide_the_window(seed, chips):
    compiled, _ = random_streams(seed, chips, steps=6000 * chips // 2)
    assert any(len(stream) > 2 * emulator._WINDOW
               for stream in compiled.isa.streams.values())
    assert_same_schedule(compiled.isa)


@pytest.fixture(scope="module")
def params():
    return make_params(ring_degree=128, levels=6, prime_bits=28,
                       num_digits=2)


@pytest.mark.parametrize("policy", ["cinnamon", "input_broadcast", "cifher"])
@pytest.mark.parametrize("chips", [1, 2, 4])
@pytest.mark.parametrize("build", [_chain, _rotations])
def test_compiled_programs(params, build, chips, policy):
    compiled = CompilerDriver(params, CompilerOptions(
        num_chips=chips, keyswitch_policy=policy)).compile(build())
    assert_same_schedule(compiled.isa)


def test_spilling_program(params):
    compiled = CompilerDriver(params, CompilerOptions(
        num_chips=2, registers_per_chip=24)).compile(_rotations())
    assert sum(s.spill_stores for s in compiled.isa.alloc_stats.values())
    assert_same_schedule(compiled.isa)


def test_helr():
    from repro.nn import build_helr, lower, nn_params

    params = nn_params(8)
    lowered = lower(build_helr(), params)
    compiled = CompilerDriver(params, CompilerOptions(
        machine=4)).compile(lowered.program)
    assert_same_schedule(compiled.isa)


def test_expanded_bootstrap():
    plan = BootstrapPlan("oracle-mini", top_level=12, output_level=2,
                         cts_stages=1, cts_radix=4, eval_mod_degree=7,
                         eval_mod_doublings=0)
    params = make_params(ring_degree=64, levels=plan.top_level,
                         prime_bits=28, num_digits=3)
    prog = CinnamonProgram("boot", level=2, bootstrap_output_level=2)
    refreshed = prog.input("x").bootstrap()
    prog.output("y", refreshed * refreshed)
    compiled = CompilerDriver(params, CompilerOptions(
        num_chips=2, bootstrap_plan=plan)).compile(prog)
    schedule = assert_same_schedule(compiled.isa)
    assert len(schedule.factors) and len(schedule.galois)


def test_factors_are_the_big_integer_quotients():
    """``_factors`` (prefix and suffix products modulo the target) against
    ``(prod(sources) // q) % target``, repeated sources and a prime past
    ``2**32`` (the big-integer branch) included."""
    rng = np.random.default_rng(11)
    pool = [int(q) for q in rng.choice(1 << 31, size=40, replace=False)] + [
        (1 << 31) - 1, 97]
    bases = [(tuple(int(q) for q in rng.choice(pool, size=int(size))),
              int(rng.choice(pool)))
             for size in rng.integers(1, 30, size=50)]
    bases += [((5, 5, 5), 7), ((97,), 97)]
    for table in (bases, bases + [((2**61 - 1, 97), 2**32 + 15)]):
        want = np.zeros((len(table), max(len(s) for s, _ in table)),
                        dtype=np.uint64)
        for row, (sources, target) in enumerate(table):
            total = int(np.prod([int(q) for q in sources], dtype=object))
            want[row, :len(sources)] = [total // q % target for q in sources]
        got = emulator._factors(table)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert emulator._factors([]).shape == (0, 0)


# ---------------------------------------------------------------------- #
# Streams that are refused


def _stuck_behind_the_window():
    """Chip 1's ``mov`` waits for a ``snd`` that never comes, three
    windows into its stream; chip 0 runs to its end."""
    def work(chip, count):
        out = [Instruction(LD, 0, (), {"symbol": "x"})]
        out += [Instruction(VADD, (i + 1) % 4, (i % 4, 0), {"prime": 97})
                for i in range(count)]
        return out + [Instruction(ST, None, (1,), {"symbol": f"y{chip}"})]

    late = work(1, 3 * emulator._WINDOW)
    late.insert(2 * emulator._WINDOW, Instruction(MOV, 2, (), {"key": 9}))
    return {0: work(0, 4 * emulator._WINDOW), 1: late}


REFUSED = {
    "missing contribution": {
        0: [Instruction(LD, 0, (), {"symbol": "x"}),
            Instruction(COL, None, (0,), {"cid": 1, "tags": ("t",)})],
        1: [Instruction(RCV, 3, (), {"cid": 1, "tag": "t", "expected": 2,
                                     "prime": 97}),
            Instruction(ST, None, (3,), {"symbol": "y"})]},
    "mov without snd": {
        0: [Instruction(MOV, 1, (), {"key": 7}),
            Instruction(ST, None, (1,), {"symbol": "y"})]},
    "stuck behind the window": _stuck_behind_the_window(),
    "never-written register": {
        0: [Instruction(LD, 0, (), {"symbol": "x"}),
            Instruction(VADD, 1, (0, 2), {"prime": 97})]},
    "never-written register on the second chip": {
        0: [Instruction(LD, 0, (), {"symbol": "x"})],
        1: [Instruction(LD, 0, (), {"symbol": "x"}),
            Instruction(VADD, 1, (0, 0), {"prime": 97}),
            Instruction(VADD, 2, (5, 1), {"prime": 97}),
            Instruction(VADD, 3, (4, 1), {"prime": 97})]},
    "unknown opcode": {
        0: [Instruction(LD, 0, (), {"symbol": "x"}),
            Instruction("vfrob", 1, (0,), {})]},
    "duplicate snd key": {
        0: [Instruction(LD, 0, (), {"symbol": "x"}),
            Instruction(SND, None, (0,), {"key": 1}),
            Instruction(SND, None, (0,), {"key": 1})]},
    "too many contributions": {
        0: [Instruction(LD, 0, (), {"symbol": "x"}),
            Instruction(COL, None, (0, 0), {"cid": 1, "tags": ("t", "t")}),
            Instruction(RCV, 1, (), {"cid": 1, "tag": "t", "expected": 1,
                                     "prime": 97})]},
    "cross-chip memory symbol": {
        0: [Instruction(LD, 0, (), {"symbol": "x"}),
            Instruction(ST, None, (0,), {"symbol": "shared"})],
        1: [Instruction(LD, 0, (), {"symbol": "shared"})]},
    # Named with the chip of the symbol's last st and the first other
    # chip that touches it.
    "symbol stored on two chips": {
        0: [Instruction(LD, 0, (), {"symbol": "x"}),
            Instruction(ST, None, (0,), {"symbol": "a"})],
        1: [Instruction(LD, 0, (), {"symbol": "x"})],
        2: [Instruction(LD, 0, (), {"symbol": "a"}),
            Instruction(ST, None, (0,), {"symbol": "a"})]},
    # Of two shared symbols, the one first stored is named.
    "two shared symbols": {
        0: [Instruction(LD, 0, (), {"symbol": "x"}),
            Instruction(ST, None, (0,), {"symbol": "late"}),
            Instruction(ST, None, (0,), {"symbol": "early"})],
        1: [Instruction(LD, 0, (), {"symbol": "x"}),
            Instruction(ST, None, (0,), {"symbol": "b"}),
            Instruction(ST, None, (0,), {"symbol": "early"}),
            Instruction(ST, None, (0,), {"symbol": "late"})]},
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_streams_raise_alike(name):
    isa = module_of(REFUSED[name]).isa
    raised = []
    for build in (emulator._build_schedule, emulator._build_schedule_python):
        with pytest.raises(Exception) as caught:
            build(isa)
        raised.append((type(caught.value), str(caught.value)))
    assert raised[0] == raised[1]
    assert raised[0][0] in (RuntimeError, KeyError, ValueError)


def test_deadlock_names_each_stuck_chip():
    isa = module_of(REFUSED["stuck behind the window"]).isa
    with pytest.raises(RuntimeError, match=(
            r"emulator deadlock at \[\(1, 2048, 'mov r2 <- '\)\]")):
        emulator._build_schedule(isa)


# ---------------------------------------------------------------------- #
# Which builder runs


def test_the_c_walk_runs_when_the_library_loads():
    compiled, _ = random_streams(3, chips=2, steps=500)

    def refuse(isa):
        raise AssertionError("the Python builder ran")

    want = emulator._build_schedule_python(compiled.isa)
    with mock.patch.object(emulator, "_build_schedule_python", refuse):
        got = emulator._build_schedule(compiled.isa)
    assert np.array_equal(got.groups, want.groups)
    assert np.array_equal(got.src, want.src)


def test_without_the_library_the_python_builder_runs():
    compiled, _ = random_streams(3, chips=2, steps=200)
    with mock.patch.object(native, "load_library", lambda: None), \
            mock.patch.object(emulator, "_build_schedule_python",
                              autospec=True,
                              side_effect=emulator._build_schedule_python
                              ) as python:
        emulator._build_schedule(compiled.isa)
    assert python.call_count == 1
