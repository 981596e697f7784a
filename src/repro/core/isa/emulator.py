"""Functional CPU emulator for the Cinnamon ISA.

The paper built "a CPU emulator for the Cinnamon ISA and used it to run all
the benchmarks" to test compiler correctness (Section 6.2); this module is
that emulator.  It executes the per-chip instruction streams with real
numpy limb data — registers hold limbs, collectives synchronize chips, and
the memory image is built from an actual :class:`repro.fhe.CKKSContext` —
so a compiled program's outputs can be decrypted and compared against the
functional evaluator.

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

:meth:`IsaEmulator.run` then executes each group as a gather, one stacked
kernel call and a scatter.  ``tests/core/reference_emulator.py`` keeps the
per-instruction interpreter; the two agree bit for bit on every memory
symbol.
"""

from __future__ import annotations

import threading
import weakref
from itertools import chain
from typing import Dict, List

import numpy as np

from ...fhe import kernels
from ...fhe.ciphertext import Ciphertext
from ...fhe.evaluator import CKKSContext
from ...fhe.modmath import UINT
from ...fhe.ntt import eval_automorphism_permutation
from ...fhe.params import partition_from_sig
from ...fhe.polynomial import EVAL, RnsPolynomial
from ...fhe.rns import basis_product
from ..compiler import CompiledProgram
from .instructions import (
    COL, LD, MOV, RCV, SND, ST, VADD, VAUTO, VBCV, VINTT, VMUL, VMULC, VNEG,
    VNTT, VPRNG, VRSV, VSUB,
)


class MemoryImage:
    """Name -> limb array storage shared by all chips (models HBM)."""

    def __init__(self):
        self.data: Dict[str, np.ndarray] = {}

    def __setitem__(self, symbol: str, limb: np.ndarray):
        self.data[symbol] = np.asarray(limb, dtype=UINT)

    def __getitem__(self, symbol: str) -> np.ndarray:
        if symbol not in self.data:
            raise KeyError(f"memory symbol {symbol!r} not populated")
        return self.data[symbol]

    def __contains__(self, symbol):
        return symbol in self.data


def build_memory_image(
    compiled: CompiledProgram,
    context: CKKSContext,
    inputs: Dict[str, Ciphertext],
    plaintexts: Dict[str, np.ndarray] = None,
) -> MemoryImage:
    """Populate HBM for an emulation run.

    * program inputs from the given ciphertexts;
    * evaluation keys from the context's keychain (with the digit
      partitions the compiler chose);
    * plaintext operands encoded at the compiler-inferred scales.
    """
    plaintexts = plaintexts or {}
    params = context.params
    memory = MemoryImage()

    for name, op_id in compiled.ct_program.inputs.items():
        if name not in inputs:
            raise KeyError(f"no ciphertext bound for program input {name!r}")
        ct = inputs[name]
        level = compiled.ct_program.ops[op_id].level
        ct = ct.at_level(level)
        for comp, poly in enumerate(ct.polys):
            poly = poly.to_eval()
            for i in range(poly.level):
                memory[f"input:{name}:{comp}:{i}"] = poly.data[i]

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
                for pos in range(poly.level):
                    memory[
                        f"evk:{key}:{level}:{partition_sig}:"
                        f"{digit_index}:{comp}:{pos}"
                    ] = poly.data[pos]

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
        poly = pt.poly.to_eval()
        for i in range(level):
            memory[f"{key}:{i}"] = poly.data[i]
    return memory


#: Opcode numbering of the schedule's columns.
_OPCODES = (VADD, VSUB, VNEG, VMUL, VMULC, VNTT, VINTT, VAUTO, VRSV, VBCV,
            VPRNG, LD, ST, SND, MOV, COL, RCV)
_CODE = {opcode: code for code, opcode in enumerate(_OPCODES)}
(_VADD, _VSUB, _VNEG, _VMUL, _VMULC, _VNTT, _VINTT, _VAUTO, _VRSV, _VBCV,
 _VPRNG, _LD, _ST, _SND, _MOV, _COL, _RCV) = range(len(_OPCODES))

#: The pointwise opcodes, as :func:`repro.fhe.kernels.limb_group` names
#: them (an ``rcv`` that issues is an aggregation: the sum).
_GROUP_OP = {_VADD: "add", _VSUB: "sub", _VNEG: "neg", _VMUL: "mul",
             _VMULC: "mulc", _VBCV: "bcv", _RCV: "sum", _VRSV: "rsv"}
#: The schedule table a group's ``p1`` column indexes, where it has one.
_CONSTANTS = {_VMULC: "scalars", _VBCV: "factors", _VRSV: "prime_column"}

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


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + l) for s, l in zip(starts, lengths)])``."""
    ends = np.cumsum(lengths)
    return (np.repeat(starts - (ends - lengths), lengths)
            + np.arange(ends[-1] if len(ends) else 0))


class _Schedule:
    """The data-independent execution plan of one :class:`IsaModule`.

    Groups are ``(code, arity, count)`` rows; instruction columns
    (``dst``, ``p0``, ``p1``: slot and table indices) run in issue order
    and ``src`` holds each group's operand slots as an ``(arity, count)``
    block.  What ``p0``/``p1`` index depends on the opcode: ``primes``
    (modulus; for ``vrsv`` target and source), ``scalars`` (``vmulc``),
    ``galois`` (``vauto``) or ``factors`` (``vbcv``: one row of
    base-conversion constants per distinct source basis and target).
    ``symbols`` lists the ``ld``/``st`` symbols in issue order.
    """

    __slots__ = ("groups", "dst", "src", "p0", "p1", "symbols", "primes",
                 "prime_column", "scalars", "galois", "factors", "slots",
                 "instructions", "_permutations")

    def permutations(self, ring_degree: int) -> np.ndarray:
        """``(len(galois), N)`` gather indices of the ``vauto`` elements."""
        table = self._permutations.get(ring_degree)
        if table is None:
            table = self._permutations[ring_degree] = np.stack([
                eval_automorphism_permutation(g, ring_degree)
                for g in self.galois]) if self.galois else np.empty(
                    (0, ring_degree), dtype=np.int64)
        return table


def _compact(indices: np.ndarray, table_size: int) -> np.ndarray:
    """``indices`` in the narrowest unsigned dtype that can name a table
    of ``table_size`` rows."""
    return indices.astype(np.min_scalar_type(max(table_size, 1)))


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


def _last_writers(stream, reads: np.ndarray, chip) -> np.ndarray:
    """Renaming: for every register read of one chip's stream, in stream
    order, the position of the instruction that last wrote the register.

    Keys order (register, position); a read's producer is the greatest
    write key below its own — an instruction reads before it writes.
    """
    size = len(stream)
    dest = np.fromiter((-1 if d is None else d for d in stream.dests),
                       dtype=np.int64, count=size)
    registers = np.fromiter(
        chain.from_iterable(srcs for srcs, count
                            in zip(stream.srcs, reads.tolist()) if count),
        dtype=np.int64, count=int(reads.sum()))
    span = size + 1
    writers = np.flatnonzero(dest >= 0)
    write_keys = dest[writers] * span + writers
    order = np.argsort(write_keys)
    write_keys, writers = write_keys[order], writers[order]
    readers = np.repeat(np.arange(size, dtype=np.int32), reads)
    found = np.searchsorted(write_keys, registers * span + readers) - 1
    unwritten = found < 0
    unwritten[~unwritten] = (write_keys[found[~unwritten]] // span
                             != registers[~unwritten])
    if unwritten.any():
        pc = int(readers[np.flatnonzero(unwritten)[0]])
        raise KeyError(
            f"chip {chip} pc {pc}: {stream[pc]!r} reads a register no "
            "earlier instruction wrote")
    return writers[found]


def _read_streams(isa, chips, base, tables: _Tables):
    """Columns of the concatenated streams, read a chip at a time — so the
    transients (register lists, sort keys, the attrs list) are one chip's
    — and in blocks, so no Python object per instruction outlives its
    block.

    Returns ``code``, ``width`` (operand edges per instruction), ``p0``,
    ``p1``, ``producer`` (per edge: the instruction whose destination it
    reads; the values a ``mov`` / ``rcv`` takes in are edges too, naming
    the sentinel ``base[-1]`` until :func:`_link_chips` fills them in),
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
        try:
            local = code[lo:lo + size] = np.fromiter(
                map(_CODE.__getitem__, stream.opcodes), dtype=np.int8,
                count=size)
        except KeyError as exc:
            raise ValueError(f"unknown opcode {exc.args[0]!r}") from None
        takes_in = np.isin(local, (_MOV, _RCV))
        reads = np.fromiter(map(len, stream.srcs), dtype=np.int32, count=size)
        reads[takes_in] = 0     # any srcs a mov / rcv carries are ignored
        edges = reads.copy()
        attrs = stream.operation_attrs()

        def each(*codes):
            pcs = np.flatnonzero(np.isin(local, codes))
            for block in range(0, len(pcs), 4096):
                yield from pcs[block:block + 4096].tolist()

        for pc in each(_VADD, _VSUB, _VNEG, _VMUL, _VMULC, _VNTT, _VINTT):
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
        for pc in each(_VPRNG, _LD, _ST):
            memory_ops.append(lo + pc)
            memory_symbols.append(attrs[pc]["symbol"])
        for pc in each(_SND, _MOV, _COL, _RCV):
            a = attrs[pc]
            network.append((lo + pc, int(local[pc]), a))
            if local[pc] == _MOV:
                edges[pc] = 1
            elif local[pc] == _RCV:
                edges[pc] = max(1, a["expected"])
                if a["expected"] > 1:
                    p0[lo + pc] = _row(tables.primes, a["prime"])
        del attrs
        width[lo:lo + size] = edges
        producer = np.full(int(edges.sum()), total, dtype=np.int32)
        producer[np.repeat(~takes_in, edges)] = (
            _last_writers(stream, reads, chip) + lo)
        producers.append(producer)
    return (code, width, p0, p1, np.concatenate(producers),
            memory_ops, memory_symbols, network)


def _link_chips(chips, chip_of, code, ptr, width, producer,
                memory_ops, memory_symbols, network) -> np.ndarray:
    """Turn network and memory traffic into value edges.

    Rewrites ``producer`` in place so that every edge names the
    instruction that *computes* the value it reads, and returns ``live``:
    the instructions left with something to execute.  A ``mov`` is its
    ``snd``'s operand, an ``rcv`` expecting one contribution is that
    contribution, an ``ld`` after an ``st`` of its symbol on the same chip
    is the stored value, and only a symbol's last ``st`` reaches memory.
    Operands nothing supplies keep naming the sentinel, which never
    issues, so the instruction shows up in the deadlock report.
    """
    total = len(code)
    # alias[i] is the value instruction i's destination *is* (itself when
    # the instruction computes something).
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
                raise ValueError(
                    f"memory symbol {symbol!r} is stored on chip "
                    f"{chips[chip]} and accessed on chip {chips[other]}")

    while True:                               # follow alias chains
        hop = alias[alias]
        if np.array_equal(hop, alias):
            break
        alias = hop
    producer[:] = alias[producer]
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
    # A group's kind is its opcode and operand count.
    kind = code.astype(np.int32) * _KIND_STRIDE + width
    kinds = np.unique(kind[live])
    kind_of = np.searchsorted(kinds, kind).astype(np.int16)
    has_dest = (kinds // _KIND_STRIDE) != _ST
    del kind
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

    live_ids = np.flatnonzero(live).astype(np.int32)
    per_chip = [live_ids[np.searchsorted(live_ids, lo):
                         np.searchsorted(live_ids, hi)]
                for lo, hi in zip(base[:-1], base[1:])]
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
        woken = consumers[_ranges(first, consumer_ptr[group + 1] - first)]
        np.subtract.at(unmet, woken, 1)
        if arity:
            operands = producer[_ranges(ptr[group], width[group])]
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
        stuck = [(chips[chip], int(ids[head] - base[chip]),
                  repr(isa.streams[chips[chip]][int(ids[head] - base[chip])]))
                 for chip, (ids, head) in enumerate(zip(per_chip, heads))
                 if head < len(ids)]
        raise RuntimeError(f"emulator deadlock at {stuck}")
    return issue, groups, slot_of, src, slots


def _build_schedule(isa) -> _Schedule:
    chips = sorted(isa.streams)
    sizes = [len(isa.streams[chip]) for chip in chips]
    base = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    tables = _Tables()
    (code, width, p0, p1, producer,
     memory_ops, memory_symbols, network) = _read_streams(
         isa, chips, base, tables)
    ptr = np.zeros(len(code) + 1, dtype=np.int32)
    np.cumsum(width, out=ptr[1:])
    chip_of = np.repeat(np.arange(len(chips), dtype=np.int16), sizes)
    live = _link_chips(chips, chip_of, code, ptr, width, producer,
                       memory_ops, memory_symbols, network)
    del network, chip_of
    issue, groups, slot_of, src, slots = _issue_order(
        isa, chips, base, code, width, ptr, producer, live)
    del producer, ptr, width, live

    schedule = _Schedule()
    schedule.groups = groups
    schedule.dst = slot_of[issue]
    schedule.src = src
    schedule.p0 = _compact(p0[issue],
                           max(len(tables.primes), len(tables.galois)))
    schedule.p1 = _compact(p1[issue], max(
        len(tables.primes), len(tables.scalars), len(tables.bases)))
    in_memory = np.isin(code[issue], (_VPRNG, _LD, _ST))
    position = np.searchsorted(np.asarray(memory_ops, dtype=np.int64),
                               issue[in_memory])
    schedule.symbols = [memory_symbols[i] for i in position.tolist()]
    schedule.primes = tuple(tables.primes)
    schedule.prime_column = np.array(schedule.primes, dtype=UINT)
    schedule.scalars = np.array(list(tables.scalars), dtype=UINT)
    schedule.galois = tuple(tables.galois)
    # The base-conversion constants (q_total / q) mod target of each
    # distinct (source basis, target): big-integer work done once here.
    schedule.factors = np.zeros(
        (len(tables.bases),
         max((len(sources) for sources, _ in tables.bases), default=0)),
        dtype=UINT)
    for row, (sources, target) in enumerate(tables.bases):
        q_total = basis_product(sources)
        schedule.factors[row, :len(sources)] = [
            (q_total // q) % target for q in sources]
    schedule.slots = slots
    schedule.instructions = len(code)
    schedule._permutations = {}
    return schedule


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
        """Execute all chips to completion (raises on deadlock)."""
        schedule = _schedule_of(self.compiled.isa)
        memory = self.memory
        dst_column, src_column = schedule.dst, schedule.src
        p0_column, p1_column = schedule.p0, schedule.p1
        stored: Dict[str, np.ndarray] = {}
        store = None                    # (slots, N), sized by the first ld
        at = operand = symbol = 0
        for code, arity, count in schedule.groups:
            end = at + count
            dst = dst_column[at:end]
            srcs = src_column[operand:operand + arity * count].reshape(
                arity, count)
            operand += arity * count
            if code == _LD or code == _VPRNG:
                # vprng regenerates a pseudorandom limb; functionally that
                # is the same data the keychain sampled, so read it from
                # memory.
                names = schedule.symbols[symbol:symbol + count]
                symbol += count
                if store is None:
                    store = np.empty(
                        (schedule.slots, len(memory[names[0]])), dtype=UINT)
                for row, name in zip(dst.tolist(), names):
                    store[row] = memory[name]
            elif code == _ST:
                names = schedule.symbols[symbol:symbol + count]
                symbol += count
                for row, name in zip(srcs[0].tolist(), names):
                    stored[name] = store[row].copy()
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
        self.executed = schedule.instructions

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
