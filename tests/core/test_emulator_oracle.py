"""Differential oracle: the batch-scheduled emulator vs the interpreter.

``reference_emulator.py`` is the per-instruction emulator this repository
ran until PR 21; ``repro.core.isa.emulator`` renames registers, schedules
instructions in same-opcode groups and executes each group as one stacked
kernel call.  The two must leave the *same memory image* — every symbol,
outputs and spill slots alike, bit for bit — and count the same number of
executed instructions, on both kernel paths (C and the numpy fallback):

* on seeded random hand-built streams (register reuse, ``st``/``ld`` of
  one symbol, ``vbcv`` of several widths, collectives expecting one and
  several contributions, ``snd``/``mov``) on 1, 2 and 4 chips;
* on compiled DSL programs across chip counts and keyswitch policies;
* on HELR and on a bootstrap-bearing program.

The mini-BERT comparison (7 s on the oracle) is ``oracle_mini_bert.py``
beside this file: not collected by a plain ``pytest`` run, run by name in
``tests.yml``.
"""

import gc
import itertools
import pickle
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import CinnamonProgram, CompilerDriver, CompilerOptions
from repro.core.ir.bootstrap_graph import BootstrapPlan
from repro.core.isa import emulator as scheduled
from repro.core.isa.codegen import IsaModule
from repro.core.isa.emulator import (IsaEmulator, MemoryImage,
                                     build_memory_image)
from repro.core.isa.instructions import (
    COL, LD, MOV, RCV, SND, ST, VADD, VAUTO, VBCV, VINTT, VMUL, VMULC, VNEG,
    VNTT, VPRNG, VRSV, VSUB, Instruction,
)
from repro.fhe import CKKSContext, make_params
from repro.fhe.primes import generate_primes

from ..kernel_paths import KERNEL_PATHS, kernel_path
from .reference_emulator import IsaEmulator as ReferenceEmulator

RING = 64
REGISTERS = 6


def run_both(compiled, image: dict):
    """Run both emulators on copies of ``image``; assert they agree.
    Returns the final memory contents."""
    memories = []
    for cls in (ReferenceEmulator, IsaEmulator):
        memory = MemoryImage()
        memory.data = dict(image)
        emulator = cls(compiled, memory)
        emulator.run()
        memories.append((memory.data, emulator.executed))
    (want, want_executed), (got, got_executed) = memories
    assert got_executed == want_executed
    assert set(got) == set(want)
    differing = [name for name in want
                 if not np.array_equal(got[name], want[name])]
    assert not differing, f"{len(differing)} symbols differ: {differing[:5]}"
    return got


def module_of(streams) -> SimpleNamespace:
    """A stand-in artifact: the emulators read only ``compiled.isa``."""
    return SimpleNamespace(isa=IsaModule(streams, {}))


# ---------------------------------------------------------------------- #
# (a) random hand-built streams


def random_streams(seed: int, chips: int, steps: int):
    """A random multi-chip program and its memory image.

    Instructions are drawn in one global order and appended to their
    chip's stream, every contribution before the ``rcv`` / ``mov`` that
    takes it in, so the round-robin interpreter never deadlocks.  Each
    register's ring is tracked so an NTT only ever sees residues of its
    own prime (what the lazy kernels require).
    """
    rng = np.random.default_rng(seed)
    primes = generate_primes(3, 28, RING) + generate_primes(2, 31, RING)
    image = {f"in:{i}:{j}": rng.integers(0, p, RING, dtype=np.uint64)
             for i, p in enumerate(primes) for j in range(3)}
    streams = {chip: [] for chip in range(chips)}
    ring = {chip: {} for chip in range(chips)}      # register -> prime
    spilled = {chip: {} for chip in range(chips)}   # symbol -> prime
    ids = itertools.count()

    def emit(chip, opcode, dest=None, srcs=(), **attrs):
        streams[chip].append(Instruction(opcode, dest, tuple(srcs), attrs))

    def pick(values):
        return values[int(rng.integers(len(values)))]

    def register():
        return int(rng.integers(REGISTERS))

    def load(chip):
        i = int(rng.integers(len(primes)))
        dest = register()
        emit(chip, pick([LD, VPRNG]), dest,
             symbol=f"in:{i}:{int(rng.integers(3))}")
        ring[chip][dest] = primes[i]

    for _ in range(steps):
        chip = int(rng.integers(chips))
        held = ring[chip]
        if len(held) < 2:
            load(chip)
            continue
        a, b = pick(list(held)), pick(list(held))
        p = held[a]
        dest = register()
        op = pick(["ld", "reload", "st", "binary", "binary", "unary", "unary",
                   "ntt", "vrsv", "vbcv", "collective", "p2p"])
        if op == "ld":
            load(chip)
        elif op == "reload" and spilled[chip]:
            symbol = pick(list(spilled[chip]))
            emit(chip, LD, dest, symbol=symbol)
            held[dest] = spilled[chip][symbol]
        elif op == "st":
            symbol = f"spill:{chip}:{int(rng.integers(4))}"
            emit(chip, ST, None, (a,), symbol=symbol)
            spilled[chip][symbol] = p
        elif op == "binary":
            emit(chip, pick([VADD, VSUB, VMUL]), dest, (a, b), prime=p)
            held[dest] = p
        elif op == "unary":
            opcode = pick([VNEG, VMULC, VAUTO])
            emit(chip, opcode, dest, (a,), prime=p,
                 scalar=int(rng.integers(1, p)),
                 galois=pick([5, 25, 2 * RING - 1]))
            held[dest] = p
        elif op == "ntt":
            emit(chip, pick([VNTT, VINTT]), dest, (a,), prime=p)
            held[dest] = p
        elif op == "vrsv":
            target = pick(primes)
            emit(chip, VRSV, dest, (a,), from_prime=p, to_prime=target)
            held[dest] = target
        elif op == "vbcv":
            srcs = [pick(list(held)) for _ in range(int(rng.integers(1, 6)))]
            target = pick(primes)
            emit(chip, VBCV, dest, srcs, target_prime=target,
                 source_primes=tuple(held[r] for r in srcs))
            held[dest] = target
        elif op == "collective":
            cid = next(ids)
            senders = [c for c in range(chips) if ring[c]]
            senders = senders[:int(rng.integers(1, len(senders) + 1))]
            for sender in senders:
                # Tag "sum" aggregates over all senders; the first sender
                # also broadcasts a limb of its own under tag "one".
                srcs = [pick(list(ring[sender]))]
                tags = ["sum"]
                if sender == senders[0]:
                    srcs.append(pick(list(ring[sender])))
                    tags.append("one")
                    rings = {"sum": ring[sender][srcs[0]],
                             "one": ring[sender][srcs[1]]}
                emit(sender, COL, None, srcs, cid=cid, tags=tuple(tags))
            if len(senders) > 1:
                rings["sum"] = p        # reduced modulo the rcv's prime
            for receiver in range(chips):
                if rng.integers(2):
                    continue
                into = register()
                tag = pick(["sum", "one"])
                emit(receiver, RCV, into, cid=cid, tag=tag, prime=p,
                     expected=len(senders) if tag == "sum" else 1)
                ring[receiver][into] = rings[tag]
        elif op == "p2p" and chips > 1:
            other = pick([c for c in range(chips) if c != chip])
            key = next(ids)
            emit(chip, SND, None, (a,), key=key)
            into = register()
            emit(other, MOV, into, key=key)
            ring[other][into] = p
    for chip in range(chips):
        for reg in sorted(ring[chip]):
            emit(chip, ST, None, (reg,), symbol=f"out:{chip}:{reg}")
    return module_of(streams), image


@pytest.mark.parametrize("backend", KERNEL_PATHS)
@pytest.mark.parametrize("chips", [1, 2, 4])
@pytest.mark.parametrize("seed", range(4))
def test_random_streams_match_reference(backend, chips, seed):
    compiled, image = random_streams(seed, chips, steps=500)
    with kernel_path(backend):
        final = run_both(compiled, image)
    assert any(name.startswith("out:") for name in final)


def test_long_streams_slide_the_window():
    """More instructions per chip than the scheduler's window."""
    compiled, image = random_streams(99, chips=2, steps=6000)
    assert all(len(stream) > 2 * scheduled._WINDOW
               for stream in compiled.isa.streams.values())
    run_both(compiled, image)


# ---------------------------------------------------------------------- #
# (b) compiled DSL programs


@pytest.fixture(scope="module")
def env():
    params = make_params(ring_degree=128, levels=6, prime_bits=28,
                         num_digits=2)
    return params, CKKSContext(params, seed=77)


def _chain():
    prog = CinnamonProgram("chain", level=6)
    a, b = prog.input("a"), prog.input("b")
    prog.output("y", (a + b) * (a - b) * prog.plaintext("w") + 0.25)
    return prog


def _rotations():
    prog = CinnamonProgram("rot", level=6)
    a, b = prog.input("a"), prog.input("b")
    total = a.rotate(1) + a.rotate(2) + a.rotate(3) + b.conjugate()
    prog.output("y", total * b)
    prog.output("z", -a.rotate(5))
    return prog


@pytest.mark.parametrize("backend", KERNEL_PATHS)
@pytest.mark.parametrize("policy", ["cinnamon", "input_broadcast", "cifher"])
@pytest.mark.parametrize("chips", [1, 2, 4])
@pytest.mark.parametrize("build", [_chain, _rotations])
def test_compiled_programs_match_reference(env, rng, build, chips, policy,
                                           backend):
    params, ctx = env
    compiled = CompilerDriver(params, CompilerOptions(
        num_chips=chips, keyswitch_policy=policy)).compile(build())
    inputs = {name: ctx.encrypt_values(rng.uniform(-1, 1, params.slot_count))
              for name in ("a", "b")}
    plaintexts = {"w": rng.uniform(-1, 1, params.slot_count)}
    with kernel_path(backend):
        image = build_memory_image(compiled, ctx, inputs, plaintexts)
        final = run_both(compiled, image.data)
    assert any(name.startswith("output:") for name in final)


def test_spilling_program_matches_reference(env, rng):
    """A register file too small for the program: spill st / reload ld."""
    params, ctx = env
    compiled = CompilerDriver(params, CompilerOptions(
        num_chips=2, registers_per_chip=24)).compile(_rotations())
    stats = compiled.isa.alloc_stats
    assert sum(s.spill_stores for s in stats.values()) > 0
    inputs = {name: ctx.encrypt_values(rng.uniform(-1, 1, params.slot_count))
              for name in ("a", "b")}
    image = build_memory_image(compiled, ctx, inputs)
    final = run_both(compiled, image.data)
    assert any(name.startswith("spill:") for name in final)


# ---------------------------------------------------------------------- #
# (c) HELR and a bootstrap-bearing program


def encrypted_model(model, levels, machine, seed=3):
    """Compile ``model`` and build the memory image of one forward."""
    from repro.nn import lower, nn_params, pack_input, sample_input

    params = nn_params(levels)
    lowered = lower(model, params)
    ctx = CKKSContext(params, seed=seed)
    compiled = CompilerDriver(
        params, CompilerOptions(machine=machine)).compile(lowered.program)
    slots = params.slot_count
    ct = ctx.encrypt_values(
        pack_input(sample_input(model, seed=seed), lowered.spec, slots),
        level=lowered.plan.input_level)
    image = build_memory_image(compiled, ctx, {lowered.input_name: ct},
                               lowered.bind_plaintexts(slots))
    return compiled, image.data


@pytest.mark.parametrize("backend", KERNEL_PATHS)
def test_helr_matches_reference(backend):
    from repro.nn import build_helr

    with kernel_path(backend):
        run_both(*encrypted_model(build_helr(), 8, 4))


@pytest.mark.parametrize("backend", KERNEL_PATHS)
def test_bootstrap_program_matches_reference(backend):
    """The expanded bootstrap graph (ModRaise, CoeffToSlot, EvalMod,
    SlotToCoeff) on functional parameters.  Its plaintext operands are
    bound to random vectors: the comparison is of the two emulators, not
    of the bootstrap's numerics (tests/fhe/test_bootstrap.py)."""
    plan = BootstrapPlan("oracle-mini", top_level=12, output_level=2,
                         cts_stages=1, cts_radix=4, eval_mod_degree=7,
                         eval_mod_doublings=0)
    params = make_params(ring_degree=64, levels=plan.top_level, prime_bits=28,
                         num_digits=3)
    ctx = CKKSContext(params, seed=5)
    prog = CinnamonProgram("boot", level=2, bootstrap_output_level=2)
    refreshed = prog.input("x").bootstrap()
    prog.output("y", refreshed * refreshed)
    compiled = CompilerDriver(params, CompilerOptions(
        num_chips=2, bootstrap_plan=plan)).compile(prog)
    rng = np.random.default_rng(0)
    plaintexts = {
        definition["plaintext"]: rng.uniform(-1, 1, params.slot_count)
        for definition in compiled.limb_program.plaintext_defs.values()
        if definition.get("constant") is None}
    ct = ctx.encrypt_values(rng.uniform(-1, 1, params.slot_count), level=2)
    with kernel_path(backend):
        image = build_memory_image(compiled, ctx, {"x": ct}, plaintexts)
        run_both(compiled, image.data)


# ---------------------------------------------------------------------- #
# Failure modes keep their meaning


def _both_raise(streams, image, error, match):
    compiled = module_of(streams)
    for cls in (ReferenceEmulator, IsaEmulator):
        memory = MemoryImage()
        memory.data = dict(image)
        with pytest.raises(error, match=match):
            cls(compiled, memory).run()


LIMB = {"x": np.arange(RING, dtype=np.uint64)}


def test_missing_contribution_deadlocks_naming_the_stuck_instruction():
    streams = {
        0: [Instruction(LD, 0, (), {"symbol": "x"}),
            Instruction(COL, None, (0,), {"cid": 1, "tags": ("t",)})],
        1: [Instruction(RCV, 3, (), {"cid": 1, "tag": "t", "expected": 2,
                                     "prime": 97}),
            Instruction(ST, None, (3,), {"symbol": "y"})],
    }
    _both_raise(streams, LIMB, RuntimeError,
                r"emulator deadlock at \[\(1, 0, 'rcv r3 <- '\)\]")


def test_mov_without_snd_deadlocks():
    streams = {0: [Instruction(MOV, 1, (), {"key": 7}),
                   Instruction(ST, None, (1,), {"symbol": "y"})]}
    _both_raise(streams, LIMB, RuntimeError, r"deadlock at \[\(0, 0, 'mov")


def test_reading_a_never_written_register_raises():
    streams = {0: [Instruction(LD, 0, (), {"symbol": "x"}),
                   Instruction(VADD, 1, (0, 2), {"prime": 97})]}
    _both_raise(streams, LIMB, KeyError, "2")


def test_loading_an_unpopulated_symbol_raises():
    streams = {0: [Instruction(LD, 0, (), {"symbol": "nowhere"})]}
    _both_raise(streams, LIMB, KeyError, "'nowhere' not populated")


def test_unknown_opcode_raises():
    streams = {0: [Instruction(LD, 0, (), {"symbol": "x"}),
                   Instruction("vfrob", 1, (0,), {})]}
    _both_raise(streams, LIMB, ValueError, "unknown opcode 'vfrob'")


def test_renaming_does_not_hide_an_allocator_bug(env, rng):
    """Swap the destination registers of two instructions of an allocated
    stream: reads still resolve to the last writer of the *physical*
    register, so the corrupted stream computes — on both emulators alike —
    something other than the program."""
    params, ctx = env
    compiled = CompilerDriver(
        params, CompilerOptions(num_chips=2)).compile(_chain())
    inputs = {name: ctx.encrypt_values(rng.uniform(-1, 1, params.slot_count))
              for name in ("a", "b")}
    image = build_memory_image(
        compiled, ctx, inputs, {"w": rng.uniform(-1, 1, params.slot_count)})
    good = run_both(compiled, image.data)

    stream = list(compiled.isa.streams[0])
    first, second = next(
        (i, j) for i, j in zip(range(len(stream)), range(1, len(stream)))
        if stream[i].opcode == VMUL and stream[j].dest is not None
        and stream[j].dest != stream[i].dest
        and stream[i].dest not in stream[j].srcs)
    stream[first].dest, stream[second].dest = (stream[second].dest,
                                               stream[first].dest)
    corrupted = module_of({0: stream, 1: list(compiled.isa.streams[1])})
    bad = run_both(corrupted, image.data)
    assert any(not np.array_equal(bad[name], good[name])
               for name in good if name.startswith("output:"))


@pytest.mark.parametrize("streams,match", [
    ({0: [Instruction(LD, 0, (), {"symbol": "x"}),
          Instruction(SND, None, (0,), {"key": 1}),
          Instruction(SND, None, (0,), {"key": 1})]}, "share key 1"),
    ({0: [Instruction(LD, 0, (), {"symbol": "x"}),
          Instruction(COL, None, (0, 0), {"cid": 1, "tags": ("t", "t")}),
          Instruction(RCV, 1, (), {"cid": 1, "tag": "t", "expected": 1,
                                   "prime": 97})]}, "2 contributions"),
    ({0: [Instruction(LD, 0, (), {"symbol": "x"}),
          Instruction(ST, None, (0,), {"symbol": "shared"})],
      1: [Instruction(LD, 0, (), {"symbol": "shared"})]},
     "stored on chip 0 and accessed on chip 1"),
])
def test_streams_whose_result_depends_on_chip_timing_are_refused(streams,
                                                                 match):
    """Where the interpreter's answer is an accident of its round-robin
    order, the scheduler refuses instead of picking another."""
    memory = MemoryImage()
    memory.data = dict(LIMB, shared=LIMB["x"])
    with pytest.raises(ValueError, match=match):
        IsaEmulator(module_of(streams), memory).run()


# ---------------------------------------------------------------------- #
# The schedule lives beside the artifact


def test_schedule_is_not_part_of_the_artifact(env, rng):
    from repro.trust import artifact_digest

    params, ctx = env
    compiled = CompilerDriver(
        params, CompilerOptions(num_chips=2)).compile(_rotations())
    before = artifact_digest(compiled), pickle.dumps(compiled.isa)
    inputs = {name: ctx.encrypt_values(rng.uniform(-1, 1, params.slot_count))
              for name in ("a", "b")}
    compiled.emulate(inputs, context=ctx)
    assert compiled.isa in scheduled._SCHEDULES
    assert (artifact_digest(compiled), pickle.dumps(compiled.isa)) == before
    assert not any(isinstance(value, scheduled._Schedule)
                   for value in vars(compiled.isa).values())
    held = len(scheduled._SCHEDULES)
    del compiled
    gc.collect()
    assert len(scheduled._SCHEDULES) == held - 1


def test_two_threads_build_one_schedule():
    compiled, image = random_streams(5, chips=2, steps=400)
    results, errors = [], []

    def emulate():
        try:
            memory = MemoryImage()
            memory.data = dict(image)
            IsaEmulator(compiled, memory).run()
            results.append((memory.data,
                            scheduled._schedule_of(compiled.isa)))
        except BaseException as exc:        # surfaced below
            errors.append(exc)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=emulate) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and len(results) == 4
    assert not any(thread.is_alive() for thread in threads)
    assert len({id(schedule) for _, schedule in results}) == 1
    first = results[0][0]
    for data, _ in results[1:]:
        assert all(np.array_equal(data[name], first[name]) for name in first)
