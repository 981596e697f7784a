"""Differential oracle: the C simulator engine vs the Python engine.

``SimulatorEngine.run`` runs a whole module as one call into
``sim/_engine.c``; ``SimulatorEngine._run_reference`` is the Python loop it
was ported from, which stands in when no C compiler is available.  The two must agree exactly — every ``as_dict()``
key, every error, every sink event of every chip — on:

* the ten ``codegen_golden.json`` cases and the three contract pairs the
  golden cases do not already cover (mini-BERT on 4 chips, the bootstrap
  on 8 and 12);
* seeded random multi-chip streams (``test_emulator_oracle.py``'s
  generator) on machines whose bandwidths are not whole bytes per cycle;
* hand-built ``snd``/``mov`` pairs and zero-source contributions;
* deadlocks, unknown opcodes and the watchdog.
"""

from contextlib import contextmanager, nullcontext
from unittest import mock

import pytest

from repro.core import CompilerDriver, CompilerOptions
from repro.core.isa.codegen import IsaModule
from repro.core.isa.instructions import COL, Instruction
from repro.fhe import ArchParams
from repro.runtime import CinnamonSession
from repro.sim import (
    CINNAMON_4,
    CINNAMON_M,
    ChipCrash,
    ChipFailure,
    SimulatorEngine,
    WatchdogTimeout,
    native,
)
from repro.sim.config import config_for
from repro.sim.trace import TracingSimulator
from repro.workloads import bootstrap_program, nn_mix

from ..core.test_codegen_golden import CASES, compile_case
from ..core.test_emulator_oracle import random_streams

pytestmark = pytest.mark.skipif(
    native.load_library() is None,
    reason=f"no C engine: {native.build_error()}")


@contextmanager
def python_engine():
    """Run the Python engine, as a machine without a C compiler does."""
    with mock.patch.object(native, "load_library", lambda: None):
        yield


def run_both(isa, machine, **kwargs):
    """``(C result, Python result)`` of one run of ``isa``."""
    got = SimulatorEngine(machine).run(isa, **kwargs)
    with python_engine():
        want = SimulatorEngine(machine).run(isa, **kwargs)
    return got, want


def both_raise(isa, machine, error, **kwargs):
    """Both engines raise ``error``; returns the two messages."""
    messages = []
    for engine in (nullcontext, python_engine):
        with engine(), pytest.raises(error) as caught:
            SimulatorEngine(machine).run(isa, **kwargs)
        messages.append(str(caught.value))
    return messages


def per_chip_events(isa, machine, **kwargs):
    """Each chip's sink events, in the order the sink saw them."""
    events = {chip: [] for chip in isa.streams}

    def sink(chip, lane, opcode, start, duration):
        events[chip].append((lane, opcode, start, duration))

    SimulatorEngine(machine).run(isa, sink=sink, **kwargs)
    return events


def _module(streams):
    return IsaModule(streams, {})


# ---------------------------------------------------------------------- #
# compiled programs


@pytest.fixture(scope="module")
def golden():
    """Compiled golden cases; the three that several tests use are kept."""
    kept = {}

    def get(name):
        if name in kept:
            return kept[name]
        compiled = compile_case(name)
        if name in ("bootstrap_c4", "cifher_c4", "helr_c4"):
            kept[name] = compiled
        return compiled

    return get


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cases_match(golden, name):
    compiled = golden(name)
    machine = compiled.options.machine or compiled.options.num_chips
    got, want = run_both(compiled.isa, machine)
    assert got.as_dict() == want.as_dict()


def _contract_pairs():
    bert = nn_mix("small")["nn-bert-encoder"]
    yield "bert_small_c4", bert.build(), bert.params, "cinnamon_4"
    for chips in (8, 12):
        yield (f"bootstrap_c{chips}", bootstrap_program(),
               ArchParams(max_level=24), f"cinnamon_{chips}")


@pytest.mark.parametrize("pair", list(_contract_pairs()),
                         ids=lambda pair: pair[0])
def test_contract_pairs_match(pair):
    """The benchmark's cold_compile pairs the golden cases leave out."""
    _name, program, params, machine = pair
    compiled = CompilerDriver(
        params, CompilerOptions(machine=machine)).compile(program)
    got, want = run_both(compiled.isa, machine)
    assert got.as_dict() == want.as_dict()


def test_sink_events_match_per_chip(golden):
    isa = golden("cifher_c4").isa
    got = per_chip_events(isa, "cinnamon_4")
    with python_engine():
        want = per_chip_events(isa, "cinnamon_4")
    assert got == want
    assert all(got.values())


def test_timeline_stopped_when_full_matches_per_chip(golden):
    isa = golden("bootstrap_c4").isa
    got = TracingSimulator(CINNAMON_4).timeline(isa, limit_per_chip=300)
    with python_engine():
        want = TracingSimulator(CINNAMON_4).timeline(isa, limit_per_chip=300)
    for chip in isa.streams:
        mine = [e for e in got if e.chip == chip]
        assert mine == [e for e in want if e.chip == chip]
        assert len(mine) == 300


def test_plain_runs_never_take_the_python_loop(golden):
    compiled = golden("helr_c4")
    isa = compiled.isa
    session = CinnamonSession()
    with mock.patch.object(SimulatorEngine, "_run_reference",
                           side_effect=AssertionError("Python loop ran")):
        SimulatorEngine("cinnamon_4").run(isa)
        SimulatorEngine("cinnamon_4").run(isa, sink=lambda *event: None)
        # Faulted runs too: a crash that fires and one past the end,
        # each on a fresh memo key so the engine really runs.
        with pytest.raises(ChipFailure):
            session.simulate(compiled, "cinnamon_4", tag="fires",
                             crash=ChipCrash(1, 0))
        session.simulate(compiled, "cinnamon_4", tag="ends-first",
                         crash=ChipCrash(1, 10 ** 12))


# ---------------------------------------------------------------------- #
# hand-built streams


def _with_payloads(isa):
    """The emulator's generator gives a ``col`` no ``bytes``; the
    simulator needs one (limbs the collective moves)."""
    for stream in isa.streams.values():
        for pc, opcode in enumerate(stream.opcodes):
            if opcode == COL:
                stream.side[pc].setdefault("bytes", 1 + pc % 3)
    return isa


#: Bandwidths that are not whole bytes per cycle, so durations round up.
_ODD = config_for(4).scaled(clock_ghz=1.3, hbm_gbps=1900.0, link_gbps=333.0)


@pytest.mark.parametrize("machine", [CINNAMON_4, _ODD, CINNAMON_M],
                         ids=["cinnamon_4", "odd_bandwidth", "cinnamon_m"])
@pytest.mark.parametrize("chips", [1, 2, 4])
@pytest.mark.parametrize("seed", range(3))
def test_random_streams_match(machine, chips, seed):
    compiled, _image = random_streams(seed, chips, steps=400)
    isa = _with_payloads(compiled.isa)
    got, want = run_both(isa, machine)
    assert got.as_dict() == want.as_dict()
    with python_engine():
        want_events = per_chip_events(isa, machine)
    assert per_chip_events(isa, machine) == want_events


def test_send_mov_and_zero_source_contributions_match():
    ld = Instruction("ld", 0, (), {"symbol": "x"})
    streams = {
        0: [ld, Instruction("snd", None, (0,), {"key": ("k", 1)}),
            Instruction("col", None, (), {"cid": 4, "bytes": 3}),
            Instruction("snd", None, (0,), {"key": ("k", 2)}),
            Instruction("rcv", 1, (), {"cid": 4})],
        1: [Instruction("mov", 2, (), {"key": ("k", 1)}),
            Instruction("col", None, (2,), {"cid": 4, "bytes": 3}),
            Instruction("mov", 3, (), {"key": ("k", 2)}),
            Instruction("rcv", 0, (), {"cid": 4}),
            Instruction("rcv", 1, (), {"cid": 4}),
            Instruction("vadd", 4, (0, 3), {}),
            Instruction("st", None, (4,), {"symbol": "y"})],
    }
    for machine in (CINNAMON_4, _ODD):
        got, want = run_both(_module(streams), machine)
        assert got.as_dict() == want.as_dict()
        assert got.network_bytes > 0


def test_unmatched_rcv_deadlocks_alike():
    streams = {0: [Instruction("ld", 0, (), {"symbol": "x"})],
               1: [Instruction("rcv", 0, (), {"cid": 9})]}
    c_message, python_message = both_raise(_module(streams), CINNAMON_4,
                                           RuntimeError)
    assert c_message == python_message == "simulation deadlock at [(1, 0)]"


def test_unknown_opcode_raises_alike():
    streams = {0: [Instruction("ld", 0, (), {"symbol": "x"}),
                   Instruction("vfrob", 1, (0,), {})]}
    c_message, python_message = both_raise(_module(streams), CINNAMON_4,
                                           ValueError)
    assert c_message == python_message == "unknown opcode 'vfrob'"


def test_zero_watchdog_still_fires(golden):
    with pytest.raises(WatchdogTimeout):
        SimulatorEngine("cinnamon_4").run(golden("helr_c4").isa,
                                          deadline_s=0.0)


def test_negative_registers_are_refused_before_the_c_call():
    """The C engine indexes a register array: a negative register index
    (which no assembler emits) is refused, never read out of bounds."""
    for bad in ([Instruction("ld", -2, (), {"symbol": "x"})],
                [Instruction("vneg", 0, (-1,), {})]):
        with pytest.raises(ValueError, match="non-negative"):
            SimulatorEngine(CINNAMON_4).run(_module({0: bad}))
