"""Functional CPU emulator for the Cinnamon ISA.

The paper built "a CPU emulator for the Cinnamon ISA and used it to run all
the benchmarks" to test compiler correctness (Section 6.2); this module is
that emulator.  It executes the per-chip instruction streams with real
limb data — registers hold limbs, collectives synchronize chips, and the
memory image is built from an actual :class:`repro.fhe.CKKSContext`, one
entry per polynomial — so a compiled program's outputs can be decrypted
and compared against the functional evaluator.

What a stream computes does not depend on its data, so the emulator does
not interpret it instruction by instruction.  Once per artifact it builds
a :class:`_Schedule` (docs/compiler.md, section 7):

* **Renaming.**  Every register write defines a fresh *value*; a read
  resolves to the last writer of that register in program order on its
  chip, so a stream whose allocator clobbered a live register still
  computes the wrong answer.  ``snd``/``mov`` and ``col``/``rcv`` become
  plain value edges between chips, and memory symbols are renamed the
  same way: an ``ld`` that follows an ``st`` of its symbol on the same
  chip *is* the stored value.
* **Batch scheduling.**  Instructions issue in groups: among those whose
  operands are computed and that lie within ``_WINDOW`` instructions of
  their chip's oldest unissued one, the largest same-opcode set goes
  next.  Values live in rows of one ``(slots, N)`` array, a row being
  recycled when its value's last reader has issued.

The build reads the streams' typed columns with numpy, each distinct
attrs dict once, and walks the issue order in one call into the FHE
kernels' C library (``repro_issue_order``).  ``_build_schedule_python``,
a Python row per instruction, is its oracle and runs where that library
does not load; ``tests/core/test_schedule_oracle.py`` holds the two equal
field by field.

:meth:`IsaEmulator.run` then executes the whole schedule in one call into
the FHE kernels' C library (``repro_replay`` in ``fhe/_native.c``), which
writes each group's results straight into their rows.  Where that library
does not load, or a prime is past its bounds, the Python loop
:meth:`IsaEmulator._run_python` executes each group as a gather, one
stacked kernel call and a scatter.  ``tests/core/reference_emulator.py``
keeps the per-instruction interpreter; all three agree bit for bit on
every memory symbol.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List

import numpy as np

from ...fhe import kernels, native
from ...fhe.ciphertext import Ciphertext
from ...fhe.evaluator import CKKSContext
from ...fhe.modmath import UINT
from ...fhe.ntt import eval_automorphism_permutation
from ...fhe.params import partition_from_sig
from ...fhe.polynomial import EVAL, RnsPolynomial
from ...fhe.rns import basis_product
from ..compiler import CompiledProgram
from ..columns import ranges
from .instructions import (
    CODES, COL, LD, MOV, OPCODES, RCV, SND, ST, VADD, VAUTO, VBCV, VINTT,
    VMUL, VMULC, VNEG, VNTT, VPRNG, VRSV, VSUB,
)


def _split(symbol: str):
    """``(prefix, row)`` of a symbol ``f"{prefix}:{row}"``; ``(symbol, -1)``
    when it does not end in a row number."""
    prefix, _, row = symbol.rpartition(":")
    if prefix and row.isdigit() and row.isascii() and (
            row == "0" or row[0] != "0"):
        return prefix, int(row)
    return symbol, -1


class MemoryImage:
    """Symbol -> limb storage shared by all chips (models HBM).

    A symbol names one limb.  Whole ``(L, N)`` polynomials are registered
    under a prefix (:meth:`add_polynomial`): row ``i`` is the symbol
    ``f"{prefix}:{i}"``.  Single limbs are assigned by symbol, as a stored
    limb is, and shadow a polynomial row of the same name.
    """

    def __init__(self):
        self._polynomials: Dict[str, np.ndarray] = {}
        self._limbs: Dict[str, np.ndarray] = {}

    def add_polynomial(self, prefix: str, limbs: np.ndarray) -> None:
        """Register ``limbs[i]`` as the symbol ``f"{prefix}:{i}"``."""
        limbs = np.ascontiguousarray(limbs, dtype=UINT)
        if limbs.ndim != 2:
            raise ValueError(f"polynomial {prefix!r} of shape {limbs.shape}: "
                             "need (limbs, N)")
        self._polynomials[prefix] = limbs

    def copy(self) -> "MemoryImage":
        """A new image holding the same limbs (shared, never written)."""
        image = MemoryImage()
        image._polynomials = dict(self._polynomials)
        image._limbs = dict(self._limbs)
        return image

    def __setitem__(self, symbol: str, limb: np.ndarray):
        self._limbs[symbol] = np.asarray(limb, dtype=UINT)

    def __getitem__(self, symbol: str) -> np.ndarray:
        limb = self._limbs.get(symbol)
        if limb is None:
            prefix, row = _split(symbol)
            poly = self._polynomials.get(prefix)
            if poly is None or not 0 <= row < len(poly):
                raise KeyError(f"memory symbol {symbol!r} not populated")
            limb = poly[row]
        return limb

    def __contains__(self, symbol) -> bool:
        try:
            self[symbol]
        except KeyError:
            return False
        return True

    def __iter__(self):
        """Every symbol, polynomial rows first."""
        for prefix, poly in self._polynomials.items():
            for row in range(len(poly)):
                symbol = f"{prefix}:{row}"
                if symbol not in self._limbs:
                    yield symbol
        yield from self._limbs


def build_memory_image(
    compiled: CompiledProgram,
    context: CKKSContext,
    inputs: Dict[str, Ciphertext],
    plaintexts: Dict[str, np.ndarray] = None,
) -> MemoryImage:
    """Populate HBM for an emulation run, one entry per polynomial:

    * program inputs from the given ciphertexts;
    * evaluation keys from the context's keychain (with the digit
      partitions the compiler chose);
    * plaintext operands encoded at the compiler-inferred scales.

    The streams name the primes the program was compiled for, so the
    context must carry the same prime chain.
    """
    plaintexts = plaintexts or {}
    params = context.params
    compiled_for = getattr(compiled, "params", None)
    if compiled_for is not None and _prime_chain(compiled_for) != \
            _prime_chain(params):
        raise ValueError(
            "the context's prime chain is not the one the program was "
            "compiled for: its limbs would be reduced by the wrong primes")
    memory = MemoryImage()

    for name, op_id in compiled.ct_program.inputs.items():
        if name not in inputs:
            raise KeyError(f"no ciphertext bound for program input {name!r}")
        ct = inputs[name]
        level = compiled.ct_program.ops[op_id].level
        ct = ct.at_level(level)
        for comp, poly in enumerate(ct.polys):
            memory.add_polynomial(f"input:{name}:{comp}",
                                  poly.to_eval().data[:level])

    # Sorted: the keychain draws each key from one seeded stream as it is
    # first asked for, and a set of strings iterates in per-process order.
    for key, level, partition_sig in sorted(compiled.limb_program.evalkeys):
        if key == "relin":
            purpose = "relin"
        elif key.startswith("galois"):
            purpose = ("galois", int(key[len("galois"):]))
        else:
            raise ValueError(f"unknown evalkey tag {key!r}")
        evk = context.keychain.switching_key(
            purpose, level, partition_from_sig(partition_sig, level, params))
        for digit_index, (b, a) in enumerate(evk.digits):
            for comp, poly in enumerate((b, a)):
                memory.add_polynomial(
                    f"evk:{key}:{level}:{partition_sig}:{digit_index}:{comp}",
                    poly.data)

    encoder = context.encoder
    for key, definition in compiled.limb_program.plaintext_defs.items():
        level = definition["level"]
        scale = definition["pt_scale"]
        if scale is None:
            scale = params.scale_at_level(level)
        if definition.get("constant") is not None:
            pt = encoder.encode_constant(
                complex(definition["constant"]), scale=scale, level=level)
        else:
            name = definition["plaintext"]
            if name not in plaintexts:
                raise KeyError(f"no values bound for plaintext {name!r}")
            pt = encoder.encode(plaintexts[name], scale=scale, level=level)
        memory.add_polynomial(key, pt.poly.to_eval().data[:level])
    return memory


def _prime_chain(params) -> tuple:
    return (tuple(getattr(params, "moduli", ())),
            tuple(getattr(params, "extension_moduli", ())))


#: The schedule's columns number opcodes as the streams do.
(_VADD, _VSUB, _VNEG, _VMUL, _VMULC, _VNTT, _VINTT, _VAUTO, _VRSV, _VBCV,
 _VPRNG, _LD, _ST, _SND, _MOV, _COL, _RCV) = (CODES[opcode] for opcode in (
     VADD, VSUB, VNEG, VMUL, VMULC, VNTT, VINTT, VAUTO, VRSV, VBCV, VPRNG,
     LD, ST, SND, MOV, COL, RCV))

#: The pointwise opcodes, as :func:`repro.fhe.kernels.limb_group` names
#: them (an ``rcv`` that issues is an aggregation: the sum).
_GROUP_OP = {_VADD: "add", _VSUB: "sub", _VNEG: "neg", _VMUL: "mul",
             _VMULC: "mulc", _VBCV: "bcv", _RCV: "sum", _VRSV: "rsv"}
#: The schedule table a group's ``p1`` column indexes, where it has one.
_CONSTANTS = {_VMULC: "scalars", _VBCV: "factors", _VRSV: "prime_column"}

#: What the streams' attrs are read for: a ``prime`` (``p0``), the memory
#: instructions (a ``symbol``) and the network ones.
_PRIMED = (_VADD, _VSUB, _VNEG, _VMUL, _VMULC, _VNTT, _VINTT)
_MEMORY = (_VPRNG, _LD, _ST)
_NETWORK = (_SND, _MOV, _COL, _RCV)


#: How far (in instructions that execute) past a chip's oldest unissued
#: instruction the scheduler looks.  Measured on the mini-BERT artifact
#: (329 k instructions, 2 chips): 64 gives groups of 26 and 1 194 live
#: slots, 256 groups of 57 / 1 308, 1024 groups of 84 / 1 867, 4096 groups
#: of 118 / 4 710, unbounded groups of 178 / 57 237 (117 MB) — and the run
#: takes 0.72-0.88 s at every one of them, the build least at 1024.  So
#: this is a constant, not a knob.
_WINDOW = 1024

#: Kinds are ``opcode * _KIND_STRIDE + operand count``.
_KIND_STRIDE = 1 << 12


class _Schedule:
    """The data-independent execution plan of one :class:`IsaModule`.

    Groups are ``(code, arity, count)`` rows; int32 instruction columns
    (``dst``, ``p0``, ``p1``: slot and table indices) run in issue order
    and ``src`` holds each group's operand slots as an ``(arity, count)``
    block.  What ``p0``/``p1``
    index depends on the opcode: ``primes`` (modulus; for ``vrsv`` target
    and source), ``scalars`` (``vmulc``), ``galois`` (``vauto``) or
    ``factors`` (``vbcv``: one row of base-conversion constants per
    distinct source basis and target).

    Memory symbols are interned here, once: ``load_ids`` gives per
    ``ld``/``vprng`` in issue order its row of ``load_names``, which
    ``load_prefix`` / ``load_row`` split into a polynomial (a row of
    ``prefixes``) and a row of it (-1: not a row name).  ``store_names``
    lists the ``st`` symbols in issue order.  ``replayable`` says whether
    the C kernels take every prime named (all below ``2**31``);
    ``ntt_primes`` are the rows of ``primes`` the transforms use.
    """

    __slots__ = ("groups", "dst", "src", "p0", "p1",
                 "load_ids", "load_names", "load_index", "load_prefix",
                 "load_row", "prefixes", "store_names", "primes",
                 "prime_column", "scalars", "galois", "factors",
                 "ntt_primes", "replayable", "slots", "instructions",
                 "_permutations")

    def permutations(self, ring_degree: int) -> np.ndarray:
        """``(len(galois), N)`` gather indices of the ``vauto`` elements."""
        table = self._permutations.get(ring_degree)
        if table is None:
            table = self._permutations[ring_degree] = np.ascontiguousarray(
                np.stack([eval_automorphism_permutation(g, ring_degree)
                          for g in self.galois]) if self.galois
                else np.empty((0, ring_degree)), dtype=np.int64)
        return table


class _Tables:
    """Insertion-ordered unique operand tables the ``p0``/``p1`` columns
    index (see :class:`_Schedule`)."""

    def __init__(self):
        self.primes: Dict[int, int] = {}
        self.scalars: Dict[int, int] = {}
        self.galois: Dict[int, int] = {}
        self.bases: Dict[tuple, int] = {}     # (source primes, target)


def _row(table: dict, key) -> int:
    """Row of ``key`` in an insertion-ordered unique table."""
    return table.setdefault(key, len(table))


def _by_register(registers: np.ndarray) -> np.ndarray:
    """Stable sort order of a register column: a radix sort when the
    registers fit 16 bits, as an allocated stream's do."""
    if not len(registers) or registers.max() < 1 << 16:
        registers = registers.astype(np.uint16)
    return np.argsort(registers, kind="stable")


def _last_writers(stream, reads: np.ndarray, chip) -> np.ndarray:
    """Renaming: for every register read of one chip's stream, in stream
    order, the position of the instruction that last wrote the register.
    ``reads`` is each instruction's count of register reads: its sources,
    or none.

    Keys order (register, position); a read's producer is the greatest
    write key below its own — an instruction reads before it writes.
    Writes and reads are put in key order by a stable sort on the
    register alone, as they come in position order.
    """
    size = len(stream)
    dest = stream.dest
    counts = np.diff(stream.src_start)
    registers = stream.src[np.repeat(reads > 0, counts)]
    span = size + 1
    writers = np.flatnonzero(dest >= 0)
    writers = writers[_by_register(dest[writers])]
    write_keys = dest[writers].astype(np.int64) * span + writers
    readers = np.repeat(np.arange(size, dtype=np.int64), reads)
    order = _by_register(registers)
    registers, sorted_readers = registers[order], readers[order]
    found = np.searchsorted(
        write_keys, registers.astype(np.int64) * span + sorted_readers) - 1
    unwritten = found < 0
    unwritten[~unwritten] = (write_keys[found[~unwritten]] // span
                             != registers[~unwritten])
    if unwritten.any():
        pc = int(sorted_readers[unwritten].min())
        raise KeyError(
            f"chip {chip} pc {pc}: {stream[pc]!r} reads a register no "
            "earlier instruction wrote")
    producer = np.empty(len(order), dtype=np.int64)
    producer[order] = writers[found]
    return producer


# ---------------------------------------------------------------------- #
# The schedule built in Python, a row per instruction: the oracle of
# _build_schedule and its fallback where the C library does not load.


def _read_streams(isa, chips, base, tables: _Tables):
    """Columns of the concatenated streams, read a chip at a time — so the
    transients (register lists, sort keys, the attrs list) are one chip's
    — and in blocks, so no Python object per instruction outlives its
    block.

    Returns ``code``, ``width`` (operand edges per instruction), ``p0``,
    ``p1``, ``producer`` (per edge: the instruction whose destination it
    reads; the values a ``mov`` / ``rcv`` takes in are edges too, naming
    the sentinel ``base[-1]`` until :func:`_link_network` fills them in),
    the memory instructions with their symbols, and the network
    instructions with their attrs.
    """
    total = int(base[-1])
    code = np.empty(total, dtype=np.int8)
    width = np.empty(total, dtype=np.int32)
    p0 = np.zeros(total, dtype=np.int32)
    p1 = np.zeros(total, dtype=np.int32)
    producers = [np.empty(0, dtype=np.int32)]
    memory_ops: List[int] = []
    memory_symbols: List[str] = []
    network: List[tuple] = []                 # (instruction, code, attrs)
    for chip, lo in zip(chips, base.tolist()):
        stream = isa.streams[chip]
        size = len(stream)
        local = code[lo:lo + size] = stream.opcode
        _check_opcodes(stream)
        reads, edges = _reads(local, stream)
        attrs = stream.operation_attrs()

        def each(*codes):
            pcs = np.flatnonzero(np.isin(local, codes))
            for block in range(0, len(pcs), 4096):
                yield from pcs[block:block + 4096].tolist()

        for pc in each(*_PRIMED):
            p0[lo + pc] = _row(tables.primes, attrs[pc]["prime"])
        for pc in each(_VMULC):
            p1[lo + pc] = _row(tables.scalars, attrs[pc]["scalar"])
        for pc in each(_VAUTO):
            p0[lo + pc] = _row(tables.galois, attrs[pc]["galois"])
        for pc in each(_VRSV):
            a = attrs[pc]
            p0[lo + pc] = _row(tables.primes, a["to_prime"])
            p1[lo + pc] = _row(tables.primes, a["from_prime"])
        for pc in each(_VBCV):
            a = attrs[pc]
            p0[lo + pc] = _row(tables.primes, a["target_prime"])
            p1[lo + pc] = _row(tables.bases, (tuple(a["source_primes"]),
                                              a["target_prime"]))
        for pc in each(*_MEMORY):
            memory_ops.append(lo + pc)
            memory_symbols.append(attrs[pc]["symbol"])
        network.extend(_read_network(
            [(pc, attrs[pc]) for pc in each(*_NETWORK)], local, lo, edges,
            p0, tables))
        del attrs
        width[lo:lo + size] = edges
        producers.append(_producers(stream, reads, edges, chip, lo, total))
    return (code, width, p0, p1, np.concatenate(producers),
            memory_ops, memory_symbols, network)


def _link_chips(chips, chip_of, code, ptr, width, producer,
                memory_ops, memory_symbols, network) -> np.ndarray:
    """Turn network and memory traffic into value edges.

    Rewrites ``producer`` in place so that every edge names the
    instruction that *computes* the value it reads, and returns ``live``:
    the instructions left with something to execute.  A ``mov`` is its
    ``snd``'s operand, an ``rcv`` expecting one contribution is that
    contribution (:func:`_link_network`), an ``ld`` after an ``st`` of its
    symbol on the same chip is the stored value, and only a symbol's last
    ``st`` reaches memory.  Operands nothing supplies keep naming the
    sentinel, which never issues, so the instruction shows up in the
    deadlock report.
    """
    alias, live = _link_network(code, ptr, width, producer, network)
    # Memory symbols are renamed like registers, per chip.  Chips exchange
    # values through the network, never through memory: when one chip
    # stores a symbol another touches, which of them runs first decides
    # the result, and the reference's answer is its round-robin order.
    stored_on: Dict[str, int] = {}
    touched = [set() for _ in chips]
    last_store: Dict[str, int] = {}
    held: Dict[str, int] = {}                 # symbol -> value, this chip
    current = -1
    for index, symbol, chip in zip(memory_ops, memory_symbols,
                                   chip_of[memory_ops].tolist()):
        if chip != current:
            held, current = {}, chip
        touched[chip].add(symbol)
        if code[index] == _ST:
            held[symbol] = int(producer[ptr[index]])
            stored_on[symbol] = chip
            if symbol in last_store:
                live[last_store[symbol]] = False
            last_store[symbol] = index
        elif symbol in held:
            alias[index] = held[symbol]
            live[index] = False
    for symbol, chip in stored_on.items():
        for other, symbols in enumerate(touched):
            if other != chip and symbol in symbols:
                _refuse_shared_symbol(symbol, chips, chip, other)
    _follow_aliases(alias, producer)
    return live


def _issue_order(isa, chips, base, code, width, ptr, producer, live):
    """Greedy windowed list scheduling of the live instructions.

    Repeatedly issues, among the instructions whose operands have issued
    and that lie within ``_WINDOW`` live instructions of their chip's
    oldest unissued one, the largest set of one kind.  Values get a slot
    when their instruction issues and give it back when their last reader
    has.  Returns the issue order, the ``(code, arity, count)`` groups,
    each instruction's slot, the groups' operand slots and the slot count.
    """
    total = len(code)
    kind_of, kinds = _kinds(code, width, live)
    has_dest = (kinds // _KIND_STRIDE) != _ST
    # Every operand edge of a live instruction waits for its producer:
    # ``unmet`` counts them per instruction, ``consumers`` lists them per
    # producer, ``remaining`` counts a value's readers yet to issue.
    owner = np.repeat(np.arange(total, dtype=np.int32), width)
    live_edge = live[owner]
    owner = owner[live_edge]
    live_producer = producer[live_edge]
    del live_edge
    unmet = np.bincount(owner, minlength=total).astype(np.int32)
    remaining = np.bincount(live_producer,
                            minlength=total + 1).astype(np.int32)
    consumers = owner[np.argsort(live_producer, kind="stable")]
    del live_producer, owner
    consumer_ptr = np.zeros(total + 2, dtype=np.int32)
    np.cumsum(remaining, out=consumer_ptr[1:])
    issued = np.ones(total + 1, dtype=bool)
    issued[:total] = ~live
    issued[total] = False                     # the sentinel never issues

    live_ids, chip_ptr = _live_ids(base, live)
    per_chip = [live_ids[lo:hi] for lo, hi in zip(chip_ptr[:-1],
                                                   chip_ptr[1:])]
    heads = [0] * len(chips)
    candidates = np.concatenate(
        [ids[:_WINDOW] for ids in per_chip] or [live_ids])
    issue = np.empty(len(live_ids), dtype=np.int32)
    slot_of = np.full(total + 1, -1, dtype=np.int32)
    src = np.empty(int(width[live_ids].sum()), dtype=np.int32)
    groups: List[tuple] = []
    free: List[int] = []
    slots = done = filled = 0
    while len(candidates):
        ready = candidates[unmet[candidates] == 0]
        if not len(ready):
            break
        ready_kinds = kind_of[ready]
        best = int(np.bincount(ready_kinds).argmax())
        group = ready[ready_kinds == best]
        count = len(group)
        arity = int(width[group[0]])
        issue[done:done + count] = group
        done += count
        issued[group] = True
        groups.append((int(kinds[best]) // _KIND_STRIDE, arity, count))
        if has_dest[best]:
            fresh = max(0, count - len(free))
            slot_of[group] = (free[len(free) - (count - fresh):]
                              + list(range(slots, slots + fresh)))
            del free[len(free) - (count - fresh):]
            slots += fresh
        first = consumer_ptr[group]
        woken = consumers[ranges(first, consumer_ptr[group + 1] - first)]
        np.subtract.at(unmet, woken, 1)
        if arity:
            operands = producer[ranges(ptr[group], width[group])]
            src[filled:filled + arity * count] = slot_of[operands].reshape(
                count, arity).T.ravel()
            filled += arity * count
            np.subtract.at(remaining, operands, 1)
            finished = np.unique(operands)
            free.extend(slot_of[finished[remaining[finished] == 0]].tolist())
        if has_dest[best]:
            free.extend(slot_of[group[remaining[group] == 0]].tolist())
        # Slide each chip's window past what has issued.
        arrivals = [candidates[~issued[candidates]]]
        for chip, ids in enumerate(per_chip):
            head = heads[chip]
            while head < len(ids) and issued[ids[head]]:
                window = issued[ids[head:head + _WINDOW]]
                step = len(window) if window.all() else int(window.argmin())
                arrivals.append(ids[head + _WINDOW:head + _WINDOW + step])
                head += step
            heads[chip] = head
        candidates = np.concatenate(arrivals)
    if done < len(issue):
        _deadlock(isa, chips, base, per_chip, heads)
    return issue, np.array(groups, dtype=np.int32).reshape(-1, 3), \
        slot_of, src, slots


def _build_schedule_python(isa) -> _Schedule:
    chips = sorted(isa.streams)
    sizes = [len(isa.streams[chip]) for chip in chips]
    base = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    tables = _Tables()
    (code, width, p0, p1, producer,
     memory_ops, memory_symbols, network) = _read_streams(
         isa, chips, base, tables)
    ptr = _edge_starts(width)
    chip_of = np.repeat(np.arange(len(chips), dtype=np.int16), sizes)
    live = _link_chips(chips, chip_of, code, ptr, width, producer,
                       memory_ops, memory_symbols, network)
    del network, chip_of
    issue, groups, slot_of, src, slots = _issue_order(
        isa, chips, base, code, width, ptr, producer, live)
    del producer, ptr, width, live
    issued = code[issue]
    in_memory = np.isin(issued, _MEMORY)
    position = np.searchsorted(np.asarray(memory_ops, dtype=np.int64),
                               issue[in_memory])
    symbols = [memory_symbols[i] for i in position.tolist()]
    stores = (issued[in_memory] == _ST).tolist()
    index: Dict[str, int] = {}
    load_ids = []
    store_names = []
    for symbol, store in zip(symbols, stores):
        if store:
            store_names.append(symbol)
        else:
            load_ids.append(index.setdefault(symbol, len(index)))
    return _schedule(tables, code, issue, groups, slot_of, src, slots, p0,
                     p1, np.array(load_ids, dtype=np.int32), list(index),
                     store_names)


# ---------------------------------------------------------------------- #
# Shared by both builders


def _check_opcodes(stream) -> None:
    foreign = np.flatnonzero(stream.opcode >= len(OPCODES))
    if len(foreign):
        raise ValueError(
            f"unknown opcode {stream.opcodes[int(foreign[0])]!r}")


def _reads(local: np.ndarray, stream):
    """``(reads, edges)`` per instruction of one chip: its register reads
    (a ``mov`` / ``rcv`` reads none: any srcs it carries are ignored) and
    its operand edges, which :func:`_read_network` completes for them."""
    reads = np.diff(stream.src_start).astype(np.int32)
    reads[np.isin(local, (_MOV, _RCV))] = 0
    return reads, reads.copy()


def _read_network(network, local, lo, edges, p0, tables) -> List[tuple]:
    """``(instruction, code, attrs)`` of one chip's ``(pc, attrs)`` network
    instructions; sets the edges a ``mov`` / ``rcv`` takes in and an
    aggregating ``rcv``'s prime."""
    out = []
    for pc, a in network:
        kind = int(local[pc])
        out.append((lo + pc, kind, a))
        if kind == _MOV:
            edges[pc] = 1
        elif kind == _RCV:
            edges[pc] = max(1, a["expected"])
            if a["expected"] > 1:
                p0[lo + pc] = _row(tables.primes, a["prime"])
    return out


def _producers(stream, reads, edges, chip, lo, total) -> np.ndarray:
    """Per operand edge of one chip, the instruction it reads (global
    numbering); a ``mov`` / ``rcv`` edge names the sentinel ``total``."""
    producer = np.full(int(edges.sum()), total, dtype=np.int32)
    producer[np.repeat(reads == edges, edges)] = (
        _last_writers(stream, reads, chip) + lo)
    return producer


def _edge_starts(width: np.ndarray) -> np.ndarray:
    ptr = np.zeros(len(width) + 1, dtype=np.int32)
    np.cumsum(width, out=ptr[1:])
    return ptr


def _link_network(code, ptr, width, producer, network):
    """The network half of :func:`_link_chips`: fills the edges of every
    ``mov`` / ``rcv`` its senders supply.  Returns ``(alias, live)``:
    ``alias[i]`` is the value instruction ``i``'s destination *is* (itself
    when it computes something; ``total`` is the sentinel)."""
    total = len(code)
    alias = np.arange(total + 1, dtype=np.int32)
    live = ~np.isin(code, (_SND, _COL))
    sent: Dict[object, int] = {}
    contributions: Dict[tuple, List[int]] = {}
    for index, kind, a in network:
        at = int(ptr[index])
        if kind == _SND:
            if a["key"] in sent:
                raise ValueError(
                    f"two snd instructions share key {a['key']!r}")
            sent[a["key"]] = int(producer[at])
        elif kind == _COL:
            for offset, tag in zip(range(int(width[index])), a["tags"]):
                contributions.setdefault((a["cid"], tag), []).append(
                    int(producer[at + offset]))
    for index, kind, a in network:
        if kind == _MOV:
            arrived = [sent[a["key"]]] if a["key"] in sent else []
            expected = 1
        elif kind == _RCV:
            arrived = contributions.get((a["cid"], a["tag"]), [])
            expected = max(1, a["expected"])
        else:
            continue
        if len(arrived) > expected:
            # The reference would take whichever arrived first.
            raise ValueError(
                f"collective {a['cid']} tag {a['tag']!r}: {len(arrived)} "
                f"contributions for an rcv expecting {expected}")
        if len(arrived) == expected:
            at = int(ptr[index])
            producer[at:at + expected] = arrived
            if expected == 1:
                alias[index] = arrived[0]
                live[index] = False
    return alias, live


def _refuse_shared_symbol(symbol, chips, chip, other):
    raise ValueError(f"memory symbol {symbol!r} is stored on chip "
                     f"{chips[chip]} and accessed on chip {chips[other]}")


def _follow_aliases(alias: np.ndarray, producer: np.ndarray) -> None:
    """Point every edge at the end of its alias chain, in place."""
    while True:
        hop = alias[alias]
        if np.array_equal(hop, alias):
            break
        alias = hop
    producer[:] = alias[producer]


def _kinds(code, width, live):
    """``(kind_of, kinds)``: a group's kind is its opcode and operand
    count, ``kinds`` the live ones in ascending order and ``kind_of``
    (int32) each live instruction's row of it (0 for the others)."""
    kind = code.astype(np.int32) * _KIND_STRIDE + width
    present = np.bincount(kind[live]) > 0
    kind_of = np.zeros(len(code), dtype=np.int32)
    kind_of[live] = (np.cumsum(present) - 1)[kind[live]]
    return kind_of, np.flatnonzero(present).astype(np.int32)


def _live_ids(base, live):
    """The live instructions in order, and where each chip's begin."""
    live_ids = np.flatnonzero(live).astype(np.int32)
    return live_ids, np.searchsorted(live_ids, base)


def _deadlock(isa, chips, base, per_chip, heads):
    stuck = [(chips[chip], int(ids[head] - base[chip]),
              repr(isa.streams[chips[chip]][int(ids[head] - base[chip])]))
             for chip, (ids, head) in enumerate(zip(per_chip, heads))
             if head < len(ids)]
    raise RuntimeError(f"emulator deadlock at {stuck}")


def _schedule(tables: _Tables, code, issue, groups, slot_of, src, slots,
              p0, p1, load_ids, load_names, store_names) -> _Schedule:
    """The :class:`_Schedule` of an issue order; ``load_names`` are the
    distinct ``ld`` / ``vprng`` symbols in order of first issue."""
    schedule = _Schedule()
    schedule.groups = groups
    schedule.dst = slot_of[issue]
    schedule.src = src
    schedule.p0 = p0[issue]
    schedule.p1 = p1[issue]
    schedule.load_ids = load_ids
    schedule.load_names = load_names
    schedule.load_index = {name: at for at, name in enumerate(load_names)}
    schedule.store_names = store_names
    prefixes: Dict[str, int] = {}
    prefix_of, row_of = [], []
    for name in load_names:
        prefix, row = _split(name)
        prefix_of.append(prefixes.setdefault(prefix, len(prefixes)))
        row_of.append(row)
    schedule.load_prefix = np.array(prefix_of, dtype=np.intp)
    schedule.load_row = np.array(row_of, dtype=np.int64)
    schedule.prefixes = list(prefixes)
    schedule.primes = tuple(tables.primes)
    schedule.prime_column = np.array(schedule.primes, dtype=UINT)
    schedule.scalars = np.array(list(tables.scalars), dtype=UINT)
    schedule.galois = tuple(tables.galois)
    schedule.factors = _factors(list(tables.bases))
    schedule.ntt_primes = np.unique(
        schedule.p0[np.isin(code[issue], (_VNTT, _VINTT))])
    schedule.replayable = all(q < kernels.MAX_BATCHED_PRIME
                              for q in schedule.primes)
    schedule.slots = slots
    schedule.instructions = len(code)
    schedule._permutations = {}
    return schedule


def _factors(bases: List[tuple]) -> np.ndarray:
    """The base-conversion constants ``(q_total / q) mod target`` of each
    distinct ``(sources, target)``, one zero-padded row each: the product
    of the other sources modulo the target, from prefix and suffix
    products a column at a time (residues below ``2**32`` multiply within
    64 bits), or in big integers where a prime is past ``2**32``."""
    lengths = np.array([len(sources) for sources, _ in bases], dtype=np.intp)
    width = int(lengths.max(initial=0))
    flat = [q for sources, _ in bases for q in sources]
    targets = [target for _, target in bases]
    if max(flat + targets, default=0) >= 1 << 32:
        factors = np.zeros((len(bases), width), dtype=UINT)
        for row, (sources, target) in enumerate(bases):
            q_total = basis_product(sources)
            factors[row, :len(sources)] = [
                (q_total // q) % target for q in sources]
        return factors
    target = np.array(targets, dtype=UINT)
    held = np.arange(width) < lengths[:, None]
    sources = np.ones((len(bases), width), dtype=UINT)
    sources[held] = flat
    sources %= target[:, None]
    before = np.ones((len(bases), width + 1), dtype=UINT)
    after = np.ones((len(bases), width + 1), dtype=UINT)
    for j in range(width):
        before[:, j + 1] = before[:, j] * sources[:, j] % target
        k = width - 1 - j
        after[:, k] = after[:, k + 1] * sources[:, k] % target
    factors = before[:, :-1] * after[:, 1:] % target[:, None]
    factors[~held] = 0
    return factors


# ---------------------------------------------------------------------- #
# The schedule built from the columns, its issue order walked in C


def _build_schedule(isa) -> _Schedule:
    """The schedule of ``isa``: the streams' columns read with numpy (the
    attrs once per distinct dict, the symbols once per distinct string)
    and the issue order walked in one C call (``repro_issue_order``).
    Equal field by field to :func:`_build_schedule_python`, which runs
    where the C library does not load."""
    lib = native.load_library()
    if lib is None:
        return _build_schedule_python(isa)
    chips = sorted(isa.streams)
    sizes = [len(isa.streams[chip]) for chip in chips]
    base = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    tables = _Tables()
    (code, width, p0, p1, producer, memory_ops, memory_sym, symbols,
     network) = _read_columns(isa, chips, base, tables)
    ptr = _edge_starts(width)
    alias, live = _link_network(code, ptr, width, producer, network)
    del network
    _link_memory(chips, base, code, ptr, producer, alias, live, memory_ops,
                 memory_sym, symbols)
    _follow_aliases(alias, producer)
    del alias

    kind_of, kinds = _kinds(code, width, live)
    live_ids, chip_ptr = _live_ids(base, live)
    issue, groups, slot_of, src, slots, heads = native._issue_order(
        lib, kind_of, kinds // _KIND_STRIDE, kinds // _KIND_STRIDE != _ST,
        width, ptr, producer, live, live_ids, chip_ptr, _WINDOW)
    if len(issue) < len(live_ids):
        _deadlock(isa, chips, base,
                  [live_ids[lo:hi] for lo, hi in zip(chip_ptr[:-1],
                                                     chip_ptr[1:])],
                  heads.tolist())
    del producer, ptr, width, live, kind_of, live_ids

    issued = code[issue]
    in_memory = np.isin(issued, _MEMORY)
    issued_sym = memory_sym[np.searchsorted(memory_ops, issue[in_memory])]
    stores = issued[in_memory] == _ST
    loads = issued_sym[~stores]
    first, load_ids = _first_seen(loads)
    return _schedule(tables, code, issue, groups, slot_of, src, slots, p0,
                     p1, load_ids.astype(np.int32),
                     [symbols[at] for at in loads[first].tolist()],
                     [symbols[at] for at in issued_sym[stores].tolist()])


def _first_seen(keys: np.ndarray):
    """``(first, index)``: where each distinct key first appears, in that
    order, and each key's position in that list."""
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


def _attrs_ids(stream, limb_ids: dict) -> np.ndarray:
    """``id()`` of every instruction's attrs dict (what
    :meth:`InstructionStream.operation_attrs` lists), from the ids of the
    module's shared limb-op attrs list, taken once per list."""
    ids = np.zeros(len(stream), dtype=np.uintp)
    limb_attrs = stream.limb_attrs
    if limb_attrs:
        shared = limb_ids.get(id(limb_attrs))
        if shared is None:
            shared = limb_ids[id(limb_attrs)] = np.fromiter(
                map(id, limb_attrs), dtype=np.uintp, count=len(limb_attrs))
        plain = stream.limb_op >= 0
        ids[plain] = shared[stream.limb_op[plain]]
    side = stream.side
    if side:
        ids[np.fromiter(side, dtype=np.intp, count=len(side))] = np.fromiter(
            map(id, side.values()), dtype=np.uintp, count=len(side))
    return ids


def _read_columns(isa, chips, base, tables: _Tables):
    """:func:`_read_streams` on the columns: each phase reads the attrs
    of its instructions once per distinct dict (in order of first
    appearance, so the tables come out in the same order), and memory
    symbols become ints (``memory_sym``, rows of ``symbols``)."""
    total = int(base[-1])
    code = np.empty(total, dtype=np.int8)
    width = np.empty(total, dtype=np.int32)
    p0 = np.zeros(total, dtype=np.int32)
    p1 = np.zeros(total, dtype=np.int32)
    producers = [np.empty(0, dtype=np.int32)]
    memory_ops, memory_sym = [], []
    symbol_ids: Dict[str, int] = {}
    network: List[tuple] = []
    limb_ids: dict = {}
    for chip, lo in zip(chips, base.tolist()):
        stream = isa.streams[chip]
        size = len(stream)
        local = code[lo:lo + size] = stream.opcode
        _check_opcodes(stream)
        reads, edges = _reads(local, stream)
        ids = _attrs_ids(stream, limb_ids)
        side, limb_attrs, limb_op = (stream.side, stream.limb_attrs,
                                     stream.limb_op)

        def distinct(codes):
            """The ``codes`` instructions (numbered across chips), their
            attrs dicts once each in order of first appearance, and each
            instruction's position in that list."""
            pcs = np.flatnonzero(np.isin(local, codes))
            first, index = _first_seen(ids[pcs])
            firsts = pcs[first]
            return lo + pcs, [
                side[pc] if pc in side else limb_attrs[op]
                for pc, op in zip(firsts.tolist(), limb_op[firsts].tolist())
            ], index

        # Table rows as _row gives them, the call inlined: one per dict
        # is most of the read.
        primes, scalars = tables.primes, tables.scalars
        galois, bases = tables.galois, tables.bases
        at, objects, index = distinct(_PRIMED)
        p0[at] = _column([primes.setdefault(a["prime"], len(primes))
                          for a in objects])[index, 0]
        at, objects, index = distinct((_VMULC,))
        p1[at] = _column([scalars.setdefault(a["scalar"], len(scalars))
                          for a in objects])[index, 0]
        at, objects, index = distinct((_VAUTO,))
        p0[at] = _column([galois.setdefault(a["galois"], len(galois))
                          for a in objects])[index, 0]
        at, objects, index = distinct((_VRSV,))
        p0[at], p1[at] = _column([
            (primes.setdefault(a["to_prime"], len(primes)),
             primes.setdefault(a["from_prime"], len(primes)))
            for a in objects], 2)[index].T
        at, objects, index = distinct((_VBCV,))
        p0[at], p1[at] = _column([
            (primes.setdefault(a["target_prime"], len(primes)),
             bases.setdefault((tuple(a["source_primes"]), a["target_prime"]),
                              len(bases)))
            for a in objects], 2)[index].T
        at, objects, index = distinct(_MEMORY)
        memory_ops.append(at)
        memory_sym.append(_column([
            symbol_ids.setdefault(a["symbol"], len(symbol_ids))
            for a in objects])[index, 0])
        pcs = np.flatnonzero(np.isin(local, _NETWORK)).tolist()
        network.extend(_read_network(
            [(pc, side[pc] if pc in side else limb_attrs[limb_op[pc]])
             for pc in pcs], local, lo, edges, p0, tables))
        del ids
        width[lo:lo + size] = edges
        producers.append(_producers(stream, reads, edges, chip, lo, total))
    return (code, width, p0, p1, np.concatenate(producers),
            np.concatenate(memory_ops or [np.empty(0, dtype=np.int64)]),
            np.concatenate(memory_sym or [np.empty(0, dtype=np.int32)]),
            list(symbol_ids), network)


def _column(rows: list, columns: int = 1) -> np.ndarray:
    """Table rows, ``columns`` per dict, as an int32 block."""
    return np.array(rows, dtype=np.int32).reshape(len(rows), columns)


def _link_memory(chips, base, code, ptr, producer, alias, live, memory_ops,
                 memory_sym, symbols) -> None:
    """The memory half of :func:`_link_chips` on symbol ids, in numpy."""
    if not len(memory_ops):
        return
    chip = np.searchsorted(base, memory_ops, side="right") - 1
    store = code[memory_ops] == _ST
    # An ld / vprng after an st of its symbol on the same chip is the
    # value the latest such st stored.
    key = chip * len(symbols) + memory_sym
    order = np.argsort(key, kind="stable")
    key, stored = key[order], store[order]
    position = np.arange(len(order))
    latest = np.maximum.accumulate(np.where(stored, position, -1))
    begins = np.maximum.accumulate(
        np.where(np.r_[True, key[1:] != key[:-1]], position, 0))
    held = ~stored & (latest >= begins)
    loads = memory_ops[order[held]]
    alias[loads] = producer[ptr[memory_ops[order[latest[held]]]]]
    live[loads] = False
    # Only the last st of a symbol reaches memory.
    store_ops, store_sym = memory_ops[store], memory_sym[store]
    order = np.argsort(store_sym, kind="stable")
    superseded = store_sym[order]
    live[store_ops[order[:-1][superseded[1:] == superseded[:-1]]]] = False
    # A symbol one chip stores and another touches is refused: the first
    # stored such, named with the chip of its last st.
    touching = np.unique(memory_sym.astype(np.int64) * len(chips) + chip)
    on = touching // len(chips)
    shared = np.isin(store_sym, on[1:][on[1:] == on[:-1]])
    if shared.any():
        symbol = store_sym[np.flatnonzero(shared)[0]]
        owner = int(chip[store][store_sym == symbol][-1])
        other = min(int(c) for c in touching[on == symbol] % len(chips)
                    if c != owner)
        _refuse_shared_symbol(symbols[symbol], chips, owner, other)


def _load_addresses(memory: MemoryImage, schedule: _Schedule):
    """Where each of the schedule's distinct load symbols lives in
    ``memory``, resolved a polynomial at a time.

    Returns ``(addresses, N, keep)``: ``keep`` holds the arrays behind the
    addresses (a copy of the single limbs that shadow polynomial rows).
    ``N`` is None when nothing loads.  Raises the ``KeyError`` of
    ``memory[symbol]`` for the first unpopulated symbol in issue order.
    """
    found = [memory._polynomials.get(prefix) for prefix in schedule.prefixes]
    keep = [poly for poly in found if poly is not None]
    widths = {poly.shape[1] for poly in keep}
    lengths = np.array([0 if poly is None else len(poly) for poly in found],
                       dtype=np.int64)
    starts = np.array([0 if poly is None else poly.ctypes.data
                       for poly in found], dtype=UINT)
    row = schedule.load_row
    resolved = (row >= 0) & (row < lengths[schedule.load_prefix])
    shadowing = [schedule.load_index[name] for name in
                 memory._limbs.keys() & schedule.load_index.keys()]
    if shadowing:
        limbs = np.stack([memory._limbs[schedule.load_names[at]]
                          for at in shadowing])
        keep.append(limbs)
        widths.add(limbs.shape[1])
        resolved[shadowing] = True
    if not resolved.all():
        first = np.flatnonzero(~resolved[schedule.load_ids])[0]
        name = schedule.load_names[schedule.load_ids[first]]
        raise KeyError(f"memory symbol {name!r} not populated")
    if len(widths) > 1:
        raise ValueError(f"memory limbs of {sorted(widths)} elements")
    if not len(row):
        return None, None, keep
    n = widths.pop()
    addresses = starts[schedule.load_prefix] + (
        np.maximum(row, 0).astype(UINT) * UINT(8 * n))
    if shadowing:
        addresses[shadowing] = UINT(limbs.ctypes.data) + (
            np.arange(len(shadowing), dtype=UINT) * UINT(8 * n))
    return addresses, n, keep


#: Schedules live beside their artifact, not in it: never pickled, not in
#: ``artifact_digest``, dropped with the :class:`IsaModule`.
_SCHEDULES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_SCHEDULES_LOCK = threading.Lock()


def _schedule_of(isa) -> _Schedule:
    with _SCHEDULES_LOCK:
        schedule = _SCHEDULES.get(isa)
        if schedule is None:
            schedule = _SCHEDULES[isa] = _build_schedule(isa)
        return schedule


class IsaEmulator:
    """Multi-chip executor of a compiled program's instruction streams."""

    def __init__(self, compiled: CompiledProgram, memory: MemoryImage):
        if compiled.isa is None:
            raise ValueError("program was compiled without ISA emission")
        self.compiled = compiled
        self.memory = memory
        self.executed = 0

    # ------------------------------------------------------------------ #

    def run(self) -> None:
        """Execute all chips to completion (raises on deadlock).

        The whole schedule runs in one C call when the kernels' library
        loads and every prime it names is below ``2**31``; the Python
        loop :meth:`_run_python`, its oracle, runs otherwise.
        """
        schedule = _schedule_of(self.compiled.isa)
        lib = native.load_library() if schedule.replayable else None
        if lib is None:
            self._run_python(schedule)
        else:
            self._run_native(lib, schedule)
        self.executed = schedule.instructions

    def _run_native(self, lib, schedule: _Schedule) -> None:
        loads, n, _keep = _load_addresses(self.memory, schedule)
        if n is None:
            return
        ntt_rows = np.zeros(len(schedule.primes), dtype=np.int64)
        if len(schedule.ntt_primes):
            ntt_rows[schedule.ntt_primes] = kernels.get_ntt_plan(n).rows(
                [schedule.primes[i] for i in schedule.ntt_primes.tolist()])
        store = np.empty((schedule.slots, n), dtype=UINT)
        stored = np.empty((len(schedule.store_names), n), dtype=UINT)
        native._replay(lib, (schedule.groups, schedule.dst,
                             schedule.src, schedule.p0, schedule.p1),
                       store, schedule.primes, ntt_rows, schedule.scalars,
                       schedule.factors, schedule.permutations(n), loads,
                       schedule.load_ids, stored)
        # Stores land together: a load never sees a later store's data.
        self.memory._limbs.update(zip(schedule.store_names, stored))

    def _run_python(self, schedule: _Schedule) -> None:
        memory = self.memory
        dst_column, src_column = schedule.dst, schedule.src
        p0_column, p1_column = schedule.p0, schedule.p1
        loads = iter(schedule.load_ids.tolist())
        stores = iter(schedule.store_names)
        stored: Dict[str, np.ndarray] = {}
        store = None                    # (slots, N), sized by the first ld
        at = operand = 0
        for code, arity, count in schedule.groups.tolist():
            end = at + count
            dst = dst_column[at:end]
            srcs = src_column[operand:operand + arity * count].reshape(
                arity, count)
            operand += arity * count
            if code == _LD or code == _VPRNG:
                # vprng regenerates a pseudorandom limb; functionally that
                # is the same data the keychain sampled, so read it from
                # memory.
                for row in dst.tolist():
                    limb = memory[schedule.load_names[next(loads)]]
                    if store is None:
                        store = np.empty((schedule.slots, len(limb)),
                                         dtype=UINT)
                    store[row] = limb
            elif code == _ST:
                for row in srcs[0].tolist():
                    stored[next(stores)] = store[row].copy()
            else:
                rows = p0_column[at:end]
                op = _GROUP_OP.get(code)
                if op is not None:
                    table = _CONSTANTS.get(code)
                    out = kernels.limb_group(
                        op, store, srcs, schedule.primes, rows,
                        None if table is None
                        else getattr(schedule, table)[p1_column[at:end]])
                elif code == _VAUTO:
                    out = np.take_along_axis(
                        store[srcs[0]],
                        schedule.permutations(store.shape[1])[rows], axis=1)
                else:
                    transform = (kernels.ntt_batch if code == _VNTT
                                 else kernels.intt_batch)
                    out = transform(store[srcs[0]], schedule.primes, rows)
                store[dst] = out
            at = end
        # Stores land together: a load never sees a later store's data.
        for name, limb in stored.items():
            memory[name] = limb

    # ------------------------------------------------------------------ #

    def output_ciphertext(self, name: str, params) -> Ciphertext:
        """Reassemble a program output from stored limbs."""
        prog = self.compiled.ct_program
        if name not in prog.outputs:
            raise KeyError(f"no program output named {name!r}")
        producer = prog.ops[prog.outputs[name]]
        level = producer.level
        scale = producer.attrs.get("scale", params.scale_at_level(level))
        basis = params.basis_at_level(level)
        polys = []
        for comp in (0, 1):
            data = np.stack([
                self.memory[f"output:{name}:{comp}:{i}"] for i in range(level)
            ])
            polys.append(RnsPolynomial(basis, data, EVAL))
        return Ciphertext(polys, scale)


def emulate(compiled: CompiledProgram, context: CKKSContext,
            inputs: Dict[str, Ciphertext],
            plaintexts: Dict[str, np.ndarray] = None) -> Dict[str, Ciphertext]:
    """Convenience wrapper: build memory, run, collect all outputs."""
    memory = build_memory_image(compiled, context, inputs, plaintexts)
    emulator = IsaEmulator(compiled, memory)
    emulator.run()
    return {
        name: emulator.output_ciphertext(name, context.params)
        for name in compiled.ct_program.outputs
    }
