"""Differential test: the typed back-end vs the list walk it replaced.

``reference_codegen.py`` is the one-Python-iteration-per-limb-op walk
``abstract_streams`` was until its columns became numpy arrays.  On the
golden compiles and on seeded random limb programs (plain ops, ``lcomm``
groups, ``lmov`` pairs — also on one chip — and ``lrecv``), the typed walk
must produce the same rows, side dicts and rematerialisable loads.  The C
and the Python allocator must then produce the same typed columns and side
tables from it, and every face of a stream must yield plain Python values:
a numpy scalar would change ``repr``-based digests (``stream_sha256``) and
break JSON (``artifact_digest``).
"""

import random

import numpy as np
import pytest

from repro.core import CompilerDriver, CompilerOptions
from repro.core.ir import limb_ir as lir
from repro.core.isa import regalloc
from repro.core.isa.codegen import IsaModule, abstract_streams
from repro.core.isa.encoding import assemble
from repro.core.isa.instructions import Instruction, InstructionStream
from repro.core.isa.regalloc import AbstractStream

from . import reference_codegen as reference
from .test_codegen_golden import CASES

NO_C = pytest.mark.skipif(regalloc.load_library() is None,
                          reason=f"no C allocator: {regalloc.build_error()}")

_PLAIN = (lir.L_ADD, lir.L_MUL, lir.L_NTT, lir.L_MULC, lir.L_BCONV,
          lir.L_STORE)


def limb_program(name: str):
    build, options = CASES[name]
    program, params = build()
    opts = CompilerOptions(**options)
    limb = CompilerDriver(params, opts).compile(
        program, emit_isa=False).limb_program
    return limb, opts


def random_limb_program(seed: int):
    """A random limb program: codegen checks structure, not meaning, so
    operands are any earlier values (an ``lcomm`` tag's value on a group
    chip)."""
    rng = random.Random(seed)
    chips = rng.choice((1, 2, 3, 4))
    limb = lir.LimbProgram(f"random-{seed}", chips)
    values = {chip: [] for chip in range(chips)}

    def load(chip):
        opcode = rng.choice((lir.L_LOAD, lir.L_PRNG))
        values[chip].append(limb.emit(
            opcode, chip, (), None, {"symbol": f"s{len(limb.opcodes)}"}))

    for chip in range(chips):
        load(chip)
    for _ in range(rng.randint(20, 300)):
        kind = rng.random()
        chip = rng.randrange(chips)
        if kind < 0.2:
            load(chip)
        elif kind < 0.8:
            opcode = rng.choice(_PLAIN)
            width = {lir.L_BCONV: rng.randint(1, 5), lir.L_ADD: 2,
                     lir.L_MUL: 2}.get(opcode, 1)
            operands = tuple(rng.choice(values[chip]) for _ in range(width))
            op = limb.emit(opcode, chip, operands, None,
                           {"prime": 17 + chip})
            if opcode != lir.L_STORE:
                values[chip].append(op)
        elif kind < 0.87:
            source = rng.randrange(chips)
            values[chip].append(limb.emit(
                lir.L_MOV, chip, (rng.choice(values[source]),), None,
                {"from_chip": source, "prime": 29}))
        else:
            group = tuple(sorted(rng.sample(range(chips),
                                            rng.randint(1, chips))))
            cid = limb.new_comm_id()
            senders = [rng.choice(group) for _ in range(rng.randint(1, 4))]
            tags = tuple(f"t{i % 2}" for i in range(len(senders)))
            limb.emit(lir.L_COMM, group[0],
                      tuple(rng.choice(values[c]) for c in senders), None,
                      {"cid": cid,
                       "kind": rng.choice(("broadcast", "aggregate")),
                       "tags": tags, "group": group,
                       "limbs_moved": len(senders)})
            for tag in sorted(set(tags)):
                receiver = rng.choice(group)
                values[receiver].append(limb.emit(
                    lir.L_RECV, receiver, (), None,
                    {"cid": cid, "tag": tag, "prime": 31}))
    return limb, chips


def assert_same_walk(limb, chips):
    typed, typed_loads = abstract_streams(limb, chips)
    listed, listed_loads = reference.abstract_streams(limb, chips)
    assert len(typed) == len(listed) == chips
    for got, want, got_loads, want_loads in zip(typed, listed, typed_loads,
                                                listed_loads):
        assert list(got.opcodes) == want.opcodes
        assert list(got.defines) == want.defines
        assert list(got.uses) == want.uses
        assert list(got.limb_ops) == want.limb_ops
        assert list(got.side.items()) == list(want.side.items())
        assert got.limb_attrs is limb.attrs
        assert dict(got_loads) == want_loads
        assert list(got_loads) == list(want_loads)


def network_kinds(limb) -> set:
    return set(limb.opcodes) & {lir.L_COMM, lir.L_MOV, lir.L_RECV}


def test_golden_compiles_cover_every_network_row():
    assert set().union(*(network_kinds(limb_program(name)[0])
                         for name in ("cinnamon_2x2_c4", "helr_c4"))) == {
        lir.L_COMM, lir.L_MOV, lir.L_RECV}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_compiles_walk_like_the_list_walk(name):
    limb, opts = limb_program(name)
    assert_same_walk(limb, opts.num_chips)


@pytest.mark.parametrize("seed", range(40))
def test_random_limb_programs_walk_like_the_list_walk(seed):
    limb, chips = random_limb_program(seed)
    assert_same_walk(limb, chips)


def test_random_limb_programs_cover_every_network_row():
    seen = set()
    one_chip_mov = False
    for seed in range(40):
        limb, _ = random_limb_program(seed)
        seen |= network_kinds(limb)
        one_chip_mov |= any(
            op == lir.L_MOV and attrs["from_chip"] == chip
            for op, chip, attrs in zip(limb.opcodes, limb.chips, limb.attrs))
    assert seen == {lir.L_COMM, lir.L_MOV, lir.L_RECV} and one_chip_mov


def test_unknown_limb_opcode_and_chip_are_refused():
    limb = lir.LimbProgram("bad", 2)
    limb.emit("lfrob", 0, (), None, {})
    with pytest.raises(ValueError, match="unknown limb opcode 'lfrob'"):
        abstract_streams(limb, 2)
    limb = lir.LimbProgram("bad", 2)
    limb.emit(lir.L_LOAD, 2, (), None, {"symbol": "x"})
    with pytest.raises(ValueError, match="outside chips"):
        abstract_streams(limb, 2)


# ---------------------------------------------------------------------- #
# the two allocators on typed streams

_COLUMNS = {"opcode": np.int8, "dest": np.int32, "src_start": np.int64,
            "src": np.int32, "limb_op": np.int32}


def assert_same_columns(got: InstructionStream, want: InstructionStream):
    for column, dtype in _COLUMNS.items():
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype == dtype, column
        assert np.array_equal(a, b), column
    assert list(got.side.items()) == list(want.side.items())
    assert got.foreign == want.foreign


@NO_C
@pytest.mark.parametrize("name", ["helr_c4", "helr_starved_c1",
                                  "cinnamon_2x2_c4", "cifher_c4"])
def test_c_and_python_allocators_give_equal_columns(name):
    limb, opts = limb_program(name)
    for entries, loads in zip(*abstract_streams(limb, opts.num_chips)):
        got, got_stats = regalloc._allocate_native(
            regalloc.load_library(), entries, opts.registers_per_chip, loads)
        want, want_stats = regalloc._allocate_python(
            entries, opts.registers_per_chip, loads)
        assert_same_columns(got, want)
        assert got_stats == want_stats


@NO_C
@pytest.mark.parametrize("seed", range(12))
def test_c_and_python_allocators_agree_on_random_programs(seed):
    limb, chips = random_limb_program(seed)
    for entries, loads in zip(*abstract_streams(limb, chips)):
        # Keep the rows whose every use is defined by a kept row: network
        # rows take values of other chips.
        local, defined = [], set()
        for op, define, uses in zip(entries.opcodes, entries.defines,
                                    entries.uses):
            if op not in ("col", "snd", "mov", "rcv") and defined.issuperset(
                    uses):
                local.append((op, define, uses, {}))
                defined.add(define)
        stream = AbstractStream.from_entries(local)
        symbols = {d: (op, f"s{d}") for op, d, _, _ in local
                   if op in ("ld", "vprng")}
        got, _ = regalloc._allocate_native(regalloc.load_library(), stream,
                                           16, symbols)
        want, _ = regalloc._allocate_python(stream, 16, symbols)
        assert_same_columns(got, want)


# ---------------------------------------------------------------------- #
# faces yield Python values


def assert_python_faces(stream):
    for ins in stream:
        assert type(ins.opcode) is str
        assert ins.dest is None or type(ins.dest) is int
        assert type(ins.srcs) is tuple
        assert all(type(reg) is int for reg in ins.srcs)
    for pc in (0, len(stream) - 1):
        ins = stream[pc]
        assert type(ins.opcode) is str and type(ins.srcs) is tuple
        assert ins.dest is None or type(ins.dest) is int
        assert all(type(reg) is int for reg in ins.srcs)
    assert all(op is None or type(op) is int for op in stream.limb_ops)
    assert all(type(op) is str for op in stream.opcodes)


def test_compiled_streams_yield_python_values():
    limb, opts = limb_program("cinnamon_2x2_c4")
    from repro.core.isa.codegen import generate_isa

    isa = generate_isa(limb, opts.num_chips, opts.registers_per_chip)
    for stream in isa.streams.values():
        assert isinstance(stream.opcode, np.ndarray)
        assert_python_faces(stream)
        assert repr(stream[0]) == repr(Instruction(
            stream[0].opcode, stream[0].dest, stream[0].srcs,
            stream[0].attrs))


def test_hand_built_streams_yield_python_values():
    module = IsaModule({0: [Instruction("ld", np.int64(3), (), {}),
                            Instruction("vneg", 4, (np.int32(3),), {}),
                            Instruction("vfrob", None, (4,), {})]}, {})
    stream = module.streams[0]
    assert_python_faces(stream)
    assert list(stream.opcodes) == ["ld", "vneg", "vfrob"]
    assert stream.foreign == ("vfrob",)
    assert stream.opcodes.count("vfrob") == 1 and module.count("ld") == 1


@pytest.mark.parametrize("bad", [
    Instruction("ld", -1, (), {}),
    Instruction("vneg", 0, (-3,), {}),
    Instruction("ld", 1 << 31, (), {}),
    Instruction("vneg", 0, (1 << 40,), {}),
], ids=["negative-dest", "negative-src", "dest-past-int32", "huge-src"])
def test_registers_out_of_int32_are_refused(bad):
    with pytest.raises(ValueError, match="non-negative"):
        IsaModule({0: [bad]}, {})
    with pytest.raises(ValueError, match="non-negative"):
        InstructionStream.from_instructions([bad])


def test_assembled_negative_register_is_refused():
    with pytest.raises(ValueError, match="non-negative"):
        assemble(".chip 0\nld r-1\n")
