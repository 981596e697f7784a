"""Differential test: both allocators vs. the reference one.

``reference_regalloc.py`` is the object-per-instruction allocator the
columnar one replaced.  On seeded random abstract streams the C allocator
and the Python loop must each produce the same instructions as it —
opcode, registers *and* attrs, so also the same spill/remat symbols — and
the same statistics, and fail on the same streams with the same error.
"""

import random
from unittest import mock

import pytest

from repro.core import CompilerDriver, CompilerOptions
from repro.core.isa import regalloc
from repro.core.isa.codegen import generate_isa
from repro.core.isa.regalloc import AbstractStream, allocate_registers
from repro.workloads import nn_mix

from . import reference_regalloc as reference

NO_C = pytest.mark.skipif(regalloc.load_library() is None,
                          reason=f"no C allocator: {regalloc.build_error()}")


def _native(stream, num_registers, symbols):
    return regalloc._allocate_native(regalloc.load_library(), stream,
                                     num_registers, symbols)


#: The two implementations behind ``allocate_registers``, and itself.
ALLOCATORS = {"c": _native, "python": regalloc._allocate_python,
              "entry": allocate_registers}
ALLOCATOR_NAMES = [pytest.param("c", marks=NO_C), "python"]

COMPUTE = ("vadd", "vmul", "vntt", "vbcv", "vauto")


def random_stream(seed: int):
    """Entries ``(opcode, defines, uses, attrs)`` + remat symbols + size.

    Mixed fan-out (some values are used once, some many times, some never),
    ``ld``/``vprng`` values that rematerialise, computed values that spill,
    stores, duplicate operands and wide ``vbcv``-style operand lists; the
    register file is 16-64 so pressure ranges from none to heavy.
    """
    rng = random.Random(seed)
    num_registers = rng.randint(16, 64)
    entries, symbols, defined = [], {}, []
    next_value = 0
    # How far back operands reach: far -> long live ranges -> evictions.
    reach = rng.choice((8, 40, 200))
    for _ in range(rng.randint(40, 400)):
        kind = rng.random()
        if kind < 0.25 or not defined:
            opcode = rng.choice(("ld", "ld", "vprng"))
            symbol = f"sym:{next_value}"
            entries.append((opcode, next_value, (), {"symbol": symbol}))
            symbols[next_value] = (opcode, symbol)
        else:
            window = defined[-reach:]
            width = min(len(window), num_registers - 3,
                        rng.choice((1, 1, 2, 2, 2, 3, 13)))
            uses = tuple(rng.choice(window) for _ in range(width))
            if kind > 0.93:
                entries.append(("st", None, uses[:1], {"symbol": "out"}))
                continue
            entries.append((rng.choice(COMPUTE), next_value, uses,
                            {"prime": 17 + next_value}))
        defined.append(next_value)
        next_value += 1
    return entries, symbols, num_registers


def abstract_stream(entries):
    return AbstractStream.from_entries(entries)


def allocate_both(entries, symbols, num_registers, allocator):
    got = ALLOCATORS[allocator](abstract_stream(entries), num_registers,
                                symbols)
    want = reference.allocate_registers(
        [reference.AbstractInstruction(*entry) for entry in entries],
        num_registers, symbols)
    return got, want


def same_stream(a, b):
    """Equal columns and side tables, side-table order included."""
    return ((a.opcodes, a.dests, a.srcs, a.limb_ops, list(a.side.items()))
            == (b.opcodes, b.dests, b.srcs, b.limb_ops, list(b.side.items())))


def check_against_reference(seed, allocator):
    (stream, stats), (instructions, ref_stats) = allocate_both(
        *random_stream(seed), allocator=allocator)
    assert list(stream) == instructions
    assert (stats.spill_stores, stats.reloads, stats.peak_registers) == (
        ref_stats.spill_stores, ref_stats.reloads, ref_stats.peak_registers)


@pytest.mark.parametrize("seed", range(240))
def test_matches_reference_allocator(seed):
    """``allocate_registers``: the C allocator wherever it builds."""
    check_against_reference(seed, "entry")


@pytest.mark.parametrize("seed", range(240))
def test_python_loop_matches_reference_allocator(seed):
    check_against_reference(seed, "python")


@NO_C
@pytest.mark.parametrize("seed", range(0, 240, 7))
def test_c_matches_python_columns(seed):
    """Beyond the instructions: the same columns and side-table order."""
    entries, symbols, num_registers = random_stream(seed)
    got, got_stats = _native(abstract_stream(entries), num_registers,
                             symbols)
    want, want_stats = regalloc._allocate_python(
        abstract_stream(entries), num_registers, symbols)
    assert same_stream(got, want)
    assert got_stats == want_stats


def test_random_streams_cover_every_allocator_path():
    """The corpus is only an oracle if it spills, reloads, rematerialises
    both kinds of load, and frees several registers in one instruction —
    also from candidate sets that resize and that collide in a slot."""
    stores = reloads = multi_death = resized = collide_8 = collide_32 = 0
    remat = set()
    for seed in range(240):
        entries, symbols, num_registers = random_stream(seed)
        (stream, stats), _ = allocate_both(entries, symbols, num_registers,
                                           allocator="python")
        stores += stats.spill_stores
        reloads += stats.reloads
        for opcode in ("ld", "vprng"):
            original = sum(1 for entry in entries if entry[0] == opcode)
            emitted = sum(1 for ins in stream if ins.opcode == opcode
                          and not ins.attrs["symbol"].startswith("spill:"))
            if emitted > original:
                remat.add(opcode)
        last_use = {}
        for idx, (_, _, uses, _) in enumerate(entries):
            for value in uses:
                last_use[value] = idx
        multi_death += any(
            len({v for v in uses if last_use[v] == idx}) > 1
            for idx, (_, _, uses, _) in enumerate(entries))
        # Where several registers are freed at once their order is the
        # candidate set's: the C side must lay that set out as CPython
        # does, through its first resize (5 values: 8 -> 32 slots) and
        # through slot collisions in either table size.
        for idx, (_, define, uses, _) in enumerate(entries):
            candidates = set(uses) | ({define} - {None})
            dying = {v for v in candidates if last_use.get(v, idx) == idx}
            if len(dying) < 2:
                continue
            if len(candidates) >= 5:
                resized += 1
                collide_32 += _congruent(candidates, 32)
            else:
                collide_8 += _congruent(candidates, 8)
    assert stores > 1000 and reloads > stores
    assert remat == {"ld", "vprng"}
    assert multi_death > 200
    assert resized > 1000 and collide_8 > 1000 and collide_32 > 1000


def _congruent(values, modulus) -> bool:
    return len({v % modulus for v in values}) < len(values)


def _pressure_stream():
    """17 loads and one instruction reading all of them: with 16 registers
    every resident is pinned when the 17th operand needs one."""
    entries = [("ld", v, (), {"symbol": f"s{v}"}) for v in range(17)]
    entries.append(("vbcv", 17, tuple(range(17)), {}))
    return entries, {v: ("ld", f"s{v}") for v in range(17)}, 16


FAILURES = {
    "pressure": (_pressure_stream(), RuntimeError,
                 "register pressure exceeds pinned operands"),
    "undefined": (([("ld", 0, (), {"symbol": "a"}),
                    ("vadd", 1, (0, 99), {})], {0: ("ld", "a")}, 16),
                  RuntimeError, "value %99 used before definition on this "
                  "chip"),
    "small_file": (([("ld", 0, (), {"symbol": "a"})], {0: ("ld", "a")}, 15),
                   ValueError, "register file too small for keyswitch "
                   "working sets"),
}


@pytest.mark.parametrize("allocator", ALLOCATOR_NAMES)
@pytest.mark.parametrize("case", sorted(FAILURES))
def test_same_failures_as_reference(case, allocator):
    (entries, symbols, num_registers), error, message = FAILURES[case]
    with pytest.raises(error) as want:
        reference.allocate_registers(
            [reference.AbstractInstruction(*entry) for entry in entries],
            num_registers, symbols)
    with pytest.raises(error) as got:
        ALLOCATORS[allocator](abstract_stream(entries), num_registers,
                              symbols)
    assert str(got.value) == str(want.value) == message


@pytest.mark.parametrize("allocator", ALLOCATOR_NAMES)
@pytest.mark.parametrize("entries, symbols", [
    ([("ld", -1, (), {"symbol": "a"})], {}),
    ([("ld", 0, (), {"symbol": "a"}), ("vadd", 1, (0, 1 << 31), {})],
     {0: ("ld", "a")}),
    ([("ld", 0, (), {"symbol": "a"})], {0: ("ld", "a"), -5: ("ld", "b")}),
], ids=["negative-define", "operand-past-int32", "negative-load-key"])
def test_value_ids_out_of_int32_are_refused_on_both_paths(
        entries, symbols, allocator):
    """Value ids are int32 in the typed columns on either path: building
    the stream, or the allocator reading ``load_symbols``, refuses the
    rest before any allocation."""
    with pytest.raises(ValueError, match="2\\*\\*31"):
        ALLOCATORS[allocator](abstract_stream(entries), 16, symbols)


@NO_C
class TestNativeBoundary:
    """What the C allocator cannot take is refused before the call."""

    @pytest.mark.parametrize("entries, symbols, num_registers", [
        ([("ld", -1, (), {"symbol": "a"})], {-1: ("ld", "a")}, 16),
        ([("ld", 1 << 31, (), {"symbol": "a"})], {}, 16),
        ([("ld", 0, (), {"symbol": "a"}), ("vadd", 1, (0, -2), {})],
         {0: ("ld", "a")}, 16),
        ([("ld", 0, (), {"symbol": "a"}), ("vadd", 1, (0, 1 << 70), {})],
         {0: ("ld", "a")}, 16),
        ([("ld", 0, (), {"symbol": "a"})], {0: ("ld", "a"), -5: ("ld", "b")},
         16),
        ([("ld", 0, (), {"symbol": "a"})], {0: ("ld", "a")}, 1 << 31),
    ], ids=["negative-define", "define-past-int32", "negative-operand",
            "huge-operand", "negative-load-key", "num-registers-past-int32"])
    def test_rejects(self, entries, symbols, num_registers):
        with pytest.raises(ValueError, match="2\\*\\*31"):
            allocate_registers(abstract_stream(entries), num_registers,
                               symbols)

    def test_sparse_ids_take_the_sorted_renumbering(self):
        """Ids far apart renumber by sorting, dense ones by a lookup
        table; both allocate as the Python loop does."""
        entries, symbols, num_registers = random_stream(3)
        for scale in (1, 1 << 20):
            spread = [(op, None if d is None else d * scale,
                       tuple(v * scale for v in uses), attrs)
                      for op, d, uses, attrs in entries]
            spread_symbols = {v * scale: s for v, s in symbols.items()}
            got, _ = _native(abstract_stream(spread), num_registers,
                             spread_symbols)
            want, _ = regalloc._allocate_python(
                abstract_stream(spread), num_registers, spread_symbols)
            assert same_stream(got, want)


def test_python_fallback_when_the_library_is_missing():
    """Without the C library ``allocate_registers`` runs the Python loop;
    a whole compile comes out the same either way."""
    entry = nn_mix("small")["nn-helr"]
    limb = CompilerDriver(entry.params, CompilerOptions(
        machine="cinnamon_4")).compile(entry.build(),
                                       emit_isa=False).limb_program
    native = generate_isa(limb, 4, 64)
    with mock.patch.object(regalloc, "load_library", lambda: None):
        fallback = generate_isa(limb, 4, 64)
    assert sorted(native.streams) == sorted(fallback.streams)
    for chip in native.streams:
        assert same_stream(native.streams[chip], fallback.streams[chip])
        assert native.alloc_stats[chip] == fallback.alloc_stats[chip]
