"""Differential test: the columnar allocator vs. the reference one.

``reference_regalloc.py`` is the object-per-instruction allocator the
columnar one replaced.  On seeded random abstract streams the two must
produce the same instructions — opcode, registers *and* attrs, so also
the same spill/remat symbols — and the same statistics.
"""

import random

import pytest

from repro.core.isa.regalloc import AbstractStream, allocate_registers

from . import reference_regalloc as reference

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


def allocate_both(entries, symbols, num_registers):
    stream = AbstractStream()
    for entry in entries:
        stream.append(*entry)
    got = allocate_registers(stream, num_registers, symbols)
    want = reference.allocate_registers(
        [reference.AbstractInstruction(*entry) for entry in entries],
        num_registers, symbols)
    return got, want


@pytest.mark.parametrize("seed", range(240))
def test_matches_reference_allocator(seed):
    (stream, stats), (instructions, ref_stats) = allocate_both(
        *random_stream(seed))
    assert list(stream) == instructions
    assert (stats.spill_stores, stats.reloads, stats.peak_registers) == (
        ref_stats.spill_stores, ref_stats.reloads, ref_stats.peak_registers)


def test_random_streams_cover_every_allocator_path():
    """The corpus is only an oracle if it spills, reloads, rematerialises
    both kinds of load, and frees several registers in one instruction."""
    stores = reloads = multi_death = 0
    remat = set()
    for seed in range(240):
        entries, symbols, num_registers = random_stream(seed)
        (stream, stats), _ = allocate_both(entries, symbols, num_registers)
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
    assert stores > 1000 and reloads > stores
    assert remat == {"ld", "vprng"}
    assert multi_death > 200
