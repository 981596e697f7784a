"""The limb-level IR (Figure 7 steps 4-7).

Every polynomial op is expanded into per-limb vector ops placed on chips by
Cinnamon's modular partition: limb ``i`` of a stream's polynomials lives on
chip ``group[i mod len(group)]`` where ``group`` is the chip group assigned
to the op's stream.  Keyswitch macro-ops are expanded according to the
algorithm chosen by the keyswitch pass; all inter-chip communication is
explicit (``lcomm``/``lrecv`` ops), so both the cycle simulator and the
communication accounting read straight off this IR.

Limb opcodes:

========  ==================================================================
lload     load a limb from HBM (program input, evalkey, plaintext)
lprng     regenerate a pseudorandom evalkey limb on-chip (PRNG unit)
lstore    store a limb to HBM (program output)
ladd/lsub/lneg/lmul   element-wise modular vector ops
lmulc     multiply by a scalar residue
lntt/lintt            (inverse) negacyclic NTT of one limb
lauto     evaluation-domain automorphism (slot permutation)
lrsv      RNS-resolve: centered re-reduction q_a -> q_b (coeff domain)
lbconv    one base-conversion output limb from up to 13 input limbs (BCU)
lmov      point-to-point limb move between chips
lcomm     collective (broadcast or aggregate) over a chip group
lrecv     materialize one limb delivered by a collective on a chip
========  ==================================================================

Storage is columnar: a :class:`LimbProgram` holds parallel ``opcodes`` /
``chips`` / ``inputs`` / ``attrs`` lists indexed by op id, filled only by
:meth:`LimbProgram.emit`.  :class:`LimbOp` is the value type its read-only
``ops`` view yields; hundreds of thousands of ops per program made one heap
object each the dominant compile cost (docs/compiler.md, section 6).  For
the same reason ops do not get an attrs dict each: the lowering builds one
dict per op kind and limb position and hands that same object to every op
it describes, so a program holds about one dict per four or five ops.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ...fhe.modmath import mod_inv
from ...fhe.params import partition_from_sig
from ..columns import ColumnView
from .poly_ir import PolyProgram
from .passes import KS_CIFHER, KS_INPUT_BROADCAST, KS_OUTPUT_AGGREGATION, \
    KS_SEQUENTIAL

L_LOAD = "lload"
L_PRNG = "lprng"
L_STORE = "lstore"
L_ADD = "ladd"
L_SUB = "lsub"
L_NEG = "lneg"
L_MUL = "lmul"
L_MULC = "lmulc"
L_NTT = "lntt"
L_INTT = "lintt"
L_AUTO = "lauto"
L_RSV = "lrsv"
L_BCONV = "lbconv"
L_MOV = "lmov"
L_COMM = "lcomm"
L_RECV = "lrecv"

COMPUTE_OPS = (L_ADD, L_SUB, L_NEG, L_MUL, L_MULC, L_NTT, L_INTT, L_AUTO,
               L_RSV, L_BCONV)

COEFF = "coeff"
EVAL = "eval"


@dataclass(slots=True)
class LimbOp:
    id: int
    opcode: str
    chip: int
    inputs: Tuple[int, ...]
    attrs: dict = field(default_factory=dict)

    def __repr__(self):
        ins = ",".join(f"%{i}" for i in self.inputs)
        return f"%{self.id} = {self.opcode}@{self.chip}({ins})"


@dataclass
class PolyValue:
    """A polynomial materialized as per-limb SSA values.

    ``limbs[i]`` is the limb-op id producing limb ``i``; ``chips[i]`` its
    home chip; all limbs share ``domain``.
    """

    limbs: List[int]
    chips: List[int]
    domain: str

    @property
    def level(self) -> int:
        return len(self.limbs)


class _LimbOpsView(ColumnView):
    """``LimbProgram.ops``: the columns read as a sequence of
    :class:`LimbOp`.  Each access builds a fresh value whose ``attrs`` is
    the stored dict *by reference* — treat it as read-only."""

    __slots__ = ("_program",)

    def __init__(self, program: "LimbProgram"):
        self._program = program

    def __len__(self) -> int:
        return len(self._program.opcodes)

    def __iter__(self) -> Iterator[LimbOp]:
        p = self._program
        return map(LimbOp, itertools.count(), p.opcodes, p.chips, p.inputs,
                   p.attrs)

    def _at(self, index: int) -> LimbOp:
        p = self._program
        return LimbOp(index, p.opcodes[index], p.chips[index],
                      p.inputs[index], p.attrs[index])


class LimbProgram:
    """A limb-level program for one machine configuration.

    Ops are stored as four parallel columns indexed by op id —
    ``opcodes``, ``chips``, ``inputs`` (operand-id tuples) and ``attrs``
    (the dict :meth:`emit` received) — not as one object per op.  One
    attrs dict is shared by every op whose attrs are equal (the lowering
    prebuilds them), and the back-end (:mod:`repro.core.isa.codegen`)
    keeps referring to the same dicts from the instruction streams it
    writes, so they must never be mutated after :meth:`emit`.
    :attr:`ops` is the sequence-of-:class:`LimbOp` view for everyone else.
    """

    def __init__(self, name: str, num_chips: int):
        self.name = name
        self.num_chips = num_chips
        self.opcodes: List[str] = []
        self.chips: List[int] = []
        self.inputs: List[Tuple[int, ...]] = []
        self.attrs: List[dict] = []
        self.domains: Dict[int, str] = {}
        self.plaintext_defs: Dict[str, dict] = {}
        self.evalkeys: set = set()
        self.outputs: Dict[str, Tuple[PolyValue, PolyValue]] = {}
        self._comm_counter = 0

    # ------------------------------------------------------------------ #

    def emit(self, opcode: str, chip: int, inputs: Tuple[int, ...],
             domain: Optional[str], attrs: dict) -> int:
        """Append one op and return its id.  ``attrs`` is stored as given,
        not copied: the lowering passes one dict to every op that shares
        its contents, so it must not be mutated afterwards."""
        op_id = len(self.opcodes)
        self.opcodes.append(opcode)
        self.chips.append(chip)
        self.inputs.append(tuple(inputs))
        self.attrs.append(attrs)
        if domain is not None:
            self.domains[op_id] = domain
        return op_id

    def new_comm_id(self) -> int:
        self._comm_counter += 1
        return self._comm_counter - 1

    @property
    def ops(self) -> _LimbOpsView:
        return _LimbOpsView(self)

    def release(self) -> None:
        """Drop the op columns (the streams keep the attrs they refer to)."""
        self.opcodes, self.chips, self.inputs, self.attrs = [], [], [], []
        self.domains = {}

    # ------------------------------------------------------------------ #
    # Statistics (consumed by benchmarks and the simulator)

    def count(self, opcode: str) -> int:
        return self.opcodes.count(opcode)

    def comm_events(self, kind: str = None) -> int:
        return sum(
            1 for opcode, attrs in zip(self.opcodes, self.attrs)
            if opcode == L_COMM and (kind is None or attrs["kind"] == kind)
        )

    def comm_limbs(self) -> int:
        """Total limb payloads crossing chip boundaries."""
        return self.opcodes.count(L_MOV) + sum(
            attrs["limbs_moved"]
            for opcode, attrs in zip(self.opcodes, self.attrs)
            if opcode == L_COMM
        )

    def ops_on_chip(self, chip: int) -> List[LimbOp]:
        return [op for op in self.ops if op.chip == chip or op.opcode == L_COMM]

    def dump(self, limit: int = None) -> str:
        return "\n".join(repr(op) for op in itertools.islice(self.ops, limit))


class _KeyswitchContext:
    """What every keyswitch at one ``(level, partition)`` shares.

    Built once per ``(level, partition_sig)`` (:meth:`LimbLowering._ks_context`):
    the digit layout, and the attrs dict of every keyswitch step at every
    position, each passed by reference to all the ops of that step there.
    ``at[pos]`` is ``{prime, prime_index}`` of position ``pos`` of the
    extended basis ``Q u E`` (positions ``level..`` are the extension limbs;
    ``at[:level]`` are the lowering's own base positions).  Mod-up:
    ``modup_mulc[g][k]`` premultiplies digit ``g``'s ``k``-th limb and
    ``modup_bconv[g][pos]`` converts the digit onto ``pos``.  Mod-down:
    ``moddown_mulc_ext[e]`` premultiplies extension limb ``e``,
    ``moddown_bconv[i]`` converts the extension onto position ``i`` and
    ``moddown_mulc[i]`` scales it.  :meth:`auto_at` holds the ``lauto``
    attrs of each galois element and :meth:`fetch_at` the ``lload`` /
    ``lprng`` attrs of each evalkey limb.  Under symbolic
    :class:`~repro.fhe.ArchParams` every prime and scalar is ``None``.
    """

    def __init__(self, params, level: int, partition_sig: str,
                 base: List[dict]):
        self.level = level
        self.partition_sig = partition_sig
        self.partition = partition_from_sig(partition_sig, level, params)
        if hasattr(params, "moduli"):
            extended = (*params.basis_at_level(level),
                        *params.extension_moduli)
        else:
            extended = (None,) * (level + params.extension_count)
        symbolic = None in extended
        self.num_ext = len(extended) - level
        ext = range(level, len(extended))
        at = self.at = [*base[:level], *(
            {"prime": extended[pos], "prime_index": pos} for pos in ext)]

        def basis(positions):
            return tuple(extended[pos] for pos in positions)

        def hat_inverses(primes):
            """``(prod(primes) / p)^-1 mod p`` for every ``p``."""
            if symbolic:
                return (None,) * len(primes)
            total = math.prod(primes)
            return tuple(mod_inv((total // p) % p, p) for p in primes)

        def scaled(scalars, positions):
            return [{"scalar": scalar, **at[pos]}
                    for scalar, pos in zip(scalars, positions)]

        def bconv(sources, targets):
            source = {"source_primes": basis(sources),
                      "source_indices": tuple(sources)}
            return {pos: {**source, "target_prime": at[pos]["prime"],
                          **at[pos]} for pos in targets}

        # Mod-up premultiplies digit limb j by (Q_g/q_j)^-1 mod q_j before
        # the base conversion; mod-down does the same to the extension
        # limbs with (P/p_e)^-1 mod p_e, then scales position i by P^-1.
        self.modup_mulc = [scaled(hat_inverses(basis(g)), g)
                           for g in self.partition]
        self.modup_bconv = [
            bconv(g, [pos for pos in range(len(extended)) if pos not in g])
            for g in self.partition]
        self.moddown_mulc_ext = scaled(hat_inverses(basis(ext)), ext)
        self.moddown_bconv = bconv(ext, range(level))
        if symbolic:
            moddown_scalars = (None,) * level
        else:
            p_total = math.prod(basis(ext))
            moddown_scalars = tuple(
                mod_inv(p_total % q, q) for q in extended[:level])
        self.moddown_mulc = scaled(moddown_scalars, range(level))
        self._auto: Dict[int, List[dict]] = {}
        self._fetch: Dict[Tuple[str, int], dict] = {}

    def fetch_at(self, symbol: str, pos: int) -> dict:
        """``{symbol, prime, prime_index}`` of the evalkey limb
        ``f"{symbol}{pos}"``: one dict per symbol and position, shared by
        every keyswitch here that fetches it."""
        attrs = self._fetch.get((symbol, pos))
        if attrs is None:
            attrs = self._fetch[symbol, pos] = {"symbol": f"{symbol}{pos}",
                                                **self.at[pos]}
        return attrs

    def auto_at(self, galois_elt: int, base: List[dict]) -> List[dict]:
        """``lauto``'s attrs for ``galois_elt`` at every position of
        ``Q u E``; ``base`` is the lowering's table for ``Q``."""
        table = self._auto.get(galois_elt)
        if table is None:
            table = self._auto[galois_elt] = [*base[:self.level], *(
                {"galois": galois_elt, **at} for at in self.at[self.level:])]
        return table


class LimbLowering:
    """Lowers a polynomial program onto a chip group layout.

    Ops that agree on their attrs share one dict (:meth:`_shared_attrs`,
    :class:`_KeyswitchContext`, whose evalkey fetches included); only
    input and plaintext loads and stores (their ``symbol``) and ``lcomm``
    / ``lrecv`` (their ``cid``) get their own.
    """

    def __init__(self, poly: PolyProgram, params, num_chips: int,
                 chips_per_stream: int = None, num_digits: int = None,
                 regenerate_evalkeys: bool = True):
        self.poly = poly
        self.params = params
        self.num_chips = num_chips
        self.num_digits = num_digits or params.num_digits
        self.regenerate_evalkeys = regenerate_evalkeys
        streams = poly.num_streams
        if chips_per_stream is None:
            chips_per_stream = max(1, num_chips // streams)
        if not 1 <= chips_per_stream <= num_chips:
            raise ValueError(
                f"chips_per_stream={chips_per_stream} out of range for a "
                f"{num_chips}-chip machine"
            )
        self.chips_per_stream = chips_per_stream
        self.out = LimbProgram(poly.name, num_chips)
        self.values: Dict[int, PolyValue] = {}
        self._ks_done: Dict[int, Tuple[PolyValue, PolyValue]] = {}
        self._ks_contexts: Dict[Tuple[int, str], _KeyswitchContext] = {}
        self._hoist_cache: Dict[str, dict] = {}  # batch -> mod-up'd digits
        self._shared: Dict[tuple, List[dict]] = {}

    # ------------------------------------------------------------------ #
    # Placement helpers

    def group(self, stream: int) -> List[int]:
        """Chips assigned to a stream (streams tile the machine)."""
        size = self.chips_per_stream
        n_groups = max(1, self.num_chips // size)
        start = (stream % n_groups) * size
        return list(range(start, start + size))

    def chip_of(self, stream: int, limb_index: int) -> int:
        group = self.group(stream)
        return group[limb_index % len(group)]

    # ------------------------------------------------------------------ #

    def run(self) -> LimbProgram:
        for op in self.poly.ops:
            handler = getattr(self, f"_lower_{op.opcode}", None)
            if handler is None:
                raise ValueError(f"cannot lower poly opcode {op.opcode!r}")
            handler(op)
        return self.out

    # ------------------------------------------------------------------ #
    # Shared attrs

    def _prime(self, level_index: int):
        if hasattr(self.params, "moduli"):
            return self.params.moduli[level_index]
        return None

    def _shared_attrs(self, key: tuple, length: int, make) -> List[dict]:
        """The attrs dicts ``key`` names, one per limb position, grown with
        ``make(position)`` to at least ``length`` entries.  Every op of one
        kind at one position takes the same dict."""
        table = self._shared.get(key)
        if table is None:
            table = self._shared[key] = []
        for pos in range(len(table), length):
            table.append(make(pos))
        return table

    def _at(self, level: int) -> List[dict]:
        """``{prime, prime_index}`` of positions ``0..level-1``."""
        return self._shared_attrs(
            ("at",), level,
            lambda i: {"prime": self._prime(i), "prime_index": i})

    def _mov_at(self, from_chip: int, level: int) -> List[dict]:
        at = self._at(level)
        return self._shared_attrs(("mov", from_chip), level,
                                  lambda i: {"from_chip": from_chip, **at[i]})

    def _auto_at(self, galois_elt: int, level: int) -> List[dict]:
        at = self._at(level)
        return self._shared_attrs(("auto", galois_elt), level,
                                  lambda i: {"galois": galois_elt, **at[i]})

    def _rsv_at(self, source: int, level: int) -> List[dict]:
        """``lrsv``'s attrs resolving position ``source`` onto each of
        ``0..level-1``."""
        at = self._at(max(level, source + 1))
        return self._shared_attrs(
            ("rsv", source), level,
            lambda i: {"from_prime": at[source]["prime"],
                       "to_prime": at[i]["prime"], **at[i]})

    def _rescale_at(self, last: int) -> List[dict]:
        """The final ``lmulc``'s attrs of a rescale dropping position
        ``last``: ``q_last^-1 mod q_j`` at each position ``j < last``."""
        at = self._at(last + 1)
        q_last = at[last]["prime"]

        def make(j):
            q_j = at[j]["prime"]
            scalar = None if q_last is None else mod_inv(q_last % q_j, q_j)
            return {"scalar": scalar, **at[j]}

        return self._shared_attrs(("rescale", last), last, make)

    # ------------------------------------------------------------------ #
    # Simple ops

    def _lower_pinput(self, op):
        name, comp = op.attrs["name"], op.attrs["component"]
        at = self._at(op.level)
        limbs, chips = [], []
        for i in range(op.level):
            chip = self.chip_of(op.stream, i)
            limbs.append(self.out.emit(
                L_LOAD, chip, (), EVAL,
                {"symbol": f"input:{name}:{comp}:{i}", **at[i]}))
            chips.append(chip)
        self.values[op.id] = PolyValue(limbs, chips, EVAL)

    def _lower_poutput(self, op):
        val = self.values[op.inputs[0]]
        name, comp = op.attrs["name"], op.attrs["component"]
        at = self._at(val.level)
        for i, (limb, chip) in enumerate(zip(val.limbs, val.chips)):
            self.out.emit(L_STORE, chip, (limb,), None,
                          {"symbol": f"output:{name}:{comp}:{i}", **at[i]})
        pair = self.out.outputs.setdefault(name, [None, None])
        pair[comp] = val

    def _lower_pplain(self, op):
        key = f"ptdef:{op.id}"
        self.out.plaintext_defs[key] = {
            "plaintext": op.attrs.get("plaintext"),
            "constant": op.attrs.get("constant"),
            "pt_scale": op.attrs.get("pt_scale"),
            "level": op.level,
        }
        at = self._at(op.level)
        limbs, chips = [], []
        for i in range(op.level):
            chip = self.chip_of(op.stream, i)
            limbs.append(self.out.emit(L_LOAD, chip, (), EVAL,
                                       {"symbol": f"{key}:{i}", **at[i]}))
            chips.append(chip)
        self.values[op.id] = PolyValue(limbs, chips, EVAL)

    def _binary(self, op, opcode):
        a = self._at_level(self.values[op.inputs[0]], op.level, op.stream)
        b = self._at_level(self.values[op.inputs[1]], op.level, op.stream)
        self.values[op.id] = self._combine(opcode, a, b, op.level)

    def _combine(self, opcode: str, a: PolyValue, b: PolyValue,
                 level: int) -> PolyValue:
        """``opcode`` over the first ``level`` limbs of ``a`` and ``b``, on
        ``a``'s chips (``b``'s limbs move there when they live elsewhere)."""
        emit = self.out.emit
        at = self._at(level)
        limbs = []
        for i in range(level):
            chip = a.chips[i]
            rhs = b.limbs[i]
            if b.chips[i] != chip:
                rhs = emit(L_MOV, chip, (rhs,), b.domain,
                           self._mov_at(b.chips[i], level)[i])
            limbs.append(emit(opcode, chip, (a.limbs[i], rhs), a.domain,
                              at[i]))
        return PolyValue(limbs, list(a.chips[:level]), a.domain)

    def _lower_padd(self, op):
        self._binary(op, L_ADD)

    def _lower_psub(self, op):
        self._binary(op, L_SUB)

    def _lower_pmul(self, op):
        self._binary(op, L_MUL)

    def _lower_pneg(self, op):
        a = self._at_level(self.values[op.inputs[0]], op.level, op.stream)
        at = self._at(op.level)
        limbs = [self.out.emit(L_NEG, a.chips[i], (a.limbs[i],), a.domain,
                               at[i])
                 for i in range(op.level)]
        self.values[op.id] = PolyValue(limbs, list(a.chips[:op.level]), a.domain)

    def _lower_pauto(self, op):
        a = self._at_level(self.values[op.inputs[0]], op.level, op.stream)
        self.values[op.id] = self._automorph(a, op.attrs["galois"], op.level)

    def _lower_pdrop(self, op):
        a = self.values[op.inputs[0]]
        self.values[op.id] = PolyValue(
            a.limbs[:op.level], a.chips[:op.level], a.domain)

    def _lower_pmodraise(self, op):
        """ModRaise: re-express a single-limb polynomial over the chain.

        The level-1 limb is INTT'd, broadcast to the stream's chips, and
        every chip RNS-resolves it into the limbs it owns before NTT'ing
        back — the same dataflow a rescale uses, in reverse.
        """
        src = self.values[op.inputs[0]]
        if src.level != 1:
            raise ValueError("mod raise expects a level-1 polynomial")
        emit = self.out.emit
        at, rsv = self._at(op.level), self._rsv_at(0, op.level)
        home = src.chips[0]
        coeff = emit(L_INTT, home, (src.limbs[0],), COEFF, at[0])
        copies = self._broadcast(home, self.group(op.stream),
                                 [(coeff, home, "x", at[0])], COEFF)
        limbs, chips = [], []
        for i in range(op.level):
            chip = self.chip_of(op.stream, i)
            if i == 0:
                # Limb 0 is exact: re-use the original residues.
                value = src.limbs[0] if chip == home else emit(
                    L_NTT, chip, (copies[chip][0],), EVAL, at[0])
            else:
                resolved = emit(L_RSV, chip, (copies[chip][0],), COEFF,
                                rsv[i])
                value = emit(L_NTT, chip, (resolved,), EVAL, at[i])
            limbs.append(value)
            chips.append(chip)
        self.values[op.id] = PolyValue(limbs, chips, EVAL)

    def _at_level(self, val: PolyValue, level: int, stream: int) -> PolyValue:
        if val.level == level:
            return val
        if val.level < level:
            raise ValueError("cannot raise polynomial level during lowering")
        return PolyValue(val.limbs[:level], val.chips[:level], val.domain)

    def _galois_element(self, galois) -> int:
        kind, arg = galois
        n = self.params.ring_degree
        if kind == "rotation":
            return pow(5, arg % (n // 2), 2 * n)
        if kind == "conjugation":
            return 2 * n - 1
        if kind == "element":
            return arg
        raise ValueError(f"unknown galois spec {galois!r}")

    # ------------------------------------------------------------------ #
    # Rescale

    def _lower_prescale(self, op):
        src = self.values[op.inputs[0]]
        in_level = src.level
        out_level = op.level
        if in_level != out_level + 1:
            raise ValueError("rescale drops exactly one limb")
        emit = self.out.emit
        last = in_level - 1
        at, rsv = self._at(in_level), self._rsv_at(last, out_level)
        scale = self._rescale_at(last)
        last_chip = src.chips[last]
        last_coeff = emit(L_INTT, last_chip, (src.limbs[last],), COEFF,
                          at[last])
        copies = self._broadcast(last_chip, self.group(op.stream),
                                 [(last_coeff, last_chip, "x", at[last])],
                                 COEFF)
        limbs = []
        for j in range(out_level):
            chip = src.chips[j]
            corr = emit(L_RSV, chip, (copies[chip][0],), COEFF, rsv[j])
            corr = emit(L_NTT, chip, (corr,), EVAL, at[j])
            diff = emit(L_SUB, chip, (src.limbs[j], corr), EVAL, at[j])
            limbs.append(emit(L_MULC, chip, (diff,), EVAL, scale[j]))
        self.values[op.id] = PolyValue(limbs, list(src.chips[:out_level]), EVAL)

    # ------------------------------------------------------------------ #
    # Collectives

    def _collective(self, kind: str, root: int, group: List[int], sends,
                    receives, domain: str, limbs_moved: int) -> List[int]:
        """Emit one ``lcomm`` carrying ``sends`` — ``(value, tag)`` pairs —
        and one ``lrecv`` per ``(chip, tag, position attrs)`` of
        ``receives``; returns the received values in that order."""
        emit = self.out.emit
        cid = self.out.new_comm_id()
        comm = emit(L_COMM, root, tuple(value for value, _ in sends), None,
                    {"kind": kind, "cid": cid, "group": tuple(group),
                     "tags": tuple(tag for _, tag in sends),
                     "limbs_moved": limbs_moved})
        return [emit(L_RECV, chip, (comm,), domain,
                     {"tag": tag, "cid": cid, **at})
                for chip, tag, at in receives]

    def _broadcast(self, root: int, group: List[int], limbs,
                   domain: str) -> Dict[int, List[int]]:
        """Put every limb of ``limbs`` — ``(value, home chip, tag, position
        attrs)`` — on every chip of ``group`` with one broadcast.

        Returns ``{chip: [the value of each limb on that chip]}``; nothing
        is emitted when every chip already holds everything.
        """
        copies = {chip: [value for value, _, _, _ in limbs] for chip in group}
        missing = [(chip, k) for chip in group
                   for k, (_, home, _, _) in enumerate(limbs) if home != chip]
        if missing:
            received = self._collective(
                "broadcast", root, group,
                [(value, tag) for value, _, tag, _ in limbs],
                [(chip, *limbs[k][2:]) for chip, k in missing],
                domain, limbs_moved=len(missing))
            for (chip, k), value in zip(missing, received):
                copies[chip][k] = value
        return copies

    # ------------------------------------------------------------------ #
    # Keyswitching
    #
    # One skeleton, step for step fhe/keyswitch.py: mod-up a digit
    # (_modup_digit), inner product with the evalkey (_evk_inner_product),
    # mod-down (_moddown_positions); _collective and _automorph sit between
    # the steps.  The algorithms of the paper's section 4.3 are placements
    # over it — which chip mods up which digit onto which positions, and
    # where the collective goes (docs/compiler.md, section 6, has the
    # table; tests/core/test_keyswitch_oracle.py pins each placement's
    # emulated limbs to fhe/keyswitch.py bit for bit).

    def _lower_pks(self, op):
        ks_id = op.attrs["ks_id"]
        if ks_id not in self._ks_done:
            self._ks_done[ks_id] = self._expand_keyswitch(op)
        pair = self._ks_done[ks_id]
        self.values[op.id] = pair[op.attrs["component"]]

    def _ks_context(self, level: int, algorithm: str,
                    group: List[int]) -> _KeyswitchContext:
        # Output aggregation's digits are the limb sets resident on the
        # group's chips; every other algorithm uses contiguous digits.
        if algorithm == KS_OUTPUT_AGGREGATION and len(group) > 1:
            sig = f"m{len(group)}"
        else:
            sig = f"c{self.num_digits}"
        ctx = self._ks_contexts.get((level, sig))
        if ctx is None:
            ctx = self._ks_contexts[level, sig] = _KeyswitchContext(
                self.params, level, sig, self._at(level))
        return ctx

    def _evk_prefix(self, kind, ctx: _KeyswitchContext) -> str:
        """Symbol prefix of one switching key's limbs; the inner product
        appends ``digit:component:position``."""
        if isinstance(kind, tuple) and kind[0] == "galois":
            key = f"galois{self._galois_element(kind[1])}"
        else:
            key = "relin"
        self.out.evalkeys.add((key, ctx.level, ctx.partition_sig))
        return f"evk:{key}:{ctx.level}:{ctx.partition_sig}:"

    def _expand_keyswitch(self, op) -> Tuple[PolyValue, PolyValue]:
        algorithm = op.attrs.get("algorithm") or KS_SEQUENTIAL
        d = self._at_level(self.values[op.inputs[0]], op.level, op.stream)
        group = self.group(op.stream)
        if len(group) == 1 or algorithm == KS_SEQUENTIAL:
            algorithm = KS_INPUT_BROADCAST  # degenerates: no comm on 1 chip
        kind, galois = op.attrs["kind"], op.attrs.get("galois")
        ctx = self._ks_context(op.level, algorithm, group)
        if algorithm in (KS_INPUT_BROADCAST, KS_CIFHER):
            return self._ks_input_broadcast(
                d, ctx, kind, galois, op.attrs.get("batch"), group,
                cifher=algorithm == KS_CIFHER)
        if algorithm == KS_OUTPUT_AGGREGATION:
            partials = defaultdict(dict)
            self._ks_resident_digits(d, ctx, kind, galois, group, partials)
            return (self._aggregate_partials(partials, 0, ctx, group),
                    self._aggregate_partials(partials, 1, ctx, group))
        raise ValueError(f"unknown keyswitch algorithm {algorithm!r}")

    # -- the steps --------------------------------------------------------- #

    def _automorph(self, val: PolyValue, galois, level: int) -> PolyValue:
        """Apply one automorphism to ``val``'s first ``level`` limbs, each
        on its own chip."""
        auto = self._auto_at(self._galois_element(galois), level)
        limbs = [self.out.emit(L_AUTO, val.chips[i], (val.limbs[i],), EVAL,
                               auto[i])
                 for i in range(level)]
        return PolyValue(limbs, list(val.chips[:level]), EVAL)

    def _modup_digit(self, ctx: _KeyswitchContext, digit_index: int,
                     chip: int, d: PolyValue, coeff, targets) -> Dict[int, int]:
        """Mod-up one digit of ``d`` on ``chip`` onto the ``targets``
        positions of ``Q u E`` (``fhe.keyswitch.modup_digit``).

        ``coeff(j)`` yields the coefficient-domain limb ``j`` on ``chip``;
        it is called once per digit limb, right before that limb's
        premultiply, so a caller may emit the INTT there.  Returns
        ``{position: evaluation-domain limb}``.
        """
        emit = self.out.emit
        at = ctx.at
        digit = ctx.partition[digit_index]
        pre = tuple(emit(L_MULC, chip, (coeff(j),), COEFF, attrs)
                    for j, attrs in zip(digit, ctx.modup_mulc[digit_index]))
        bconv = ctx.modup_bconv[digit_index]
        extended = {}
        for pos in targets:
            if pos in digit:
                # In-digit positions keep the original evaluation limb.
                extended[pos] = d.limbs[pos] if d.chips[pos] == chip else \
                    emit(L_NTT, chip, (coeff(pos),), EVAL, at[pos])
                continue
            conv = emit(L_BCONV, chip, pre, COEFF, bconv[pos])
            extended[pos] = emit(L_NTT, chip, (conv,), EVAL, at[pos])
        return extended

    def _evk_inner_product(self, ctx: _KeyswitchContext, evk: str, chip: int,
                           component: int, digits: Dict[int, Dict[int, int]],
                           galois_elt: int = None) -> Dict[int, int]:
        """``sum_g digits[g] * evk[g][component]`` on ``chip``, position by
        position (``fhe.keyswitch.evalkey_accumulate``).

        With ``galois_elt`` (a hoisted rotation) every operand first goes
        through that automorphism.  Returns ``{position: accumulator}``.
        """
        emit = self.out.emit
        at = ctx.at
        auto = None if galois_elt is None else ctx.auto_at(
            galois_elt, self._auto_at(galois_elt, ctx.level))
        # Component 1 of every evalkey digit is uniform pseudorandom: the
        # PRNG unit regenerates it on chip instead of streaming it from
        # HBM (ARK-style runtime data generation; Table 1's PRNG FU).
        fetch = L_PRNG if component == 1 and self.regenerate_evalkeys \
            else L_LOAD
        acc = {}
        for digit_index, extended in digits.items():
            symbol = f"{evk}{digit_index}:{component}:"
            for pos, operand in extended.items():
                if auto is not None:
                    operand = emit(L_AUTO, chip, (operand,), EVAL, auto[pos])
                key = emit(fetch, chip, (), EVAL, ctx.fetch_at(symbol, pos))
                term = emit(L_MUL, chip, (operand, key), EVAL, at[pos])
                acc[pos] = term if pos not in acc else emit(
                    L_ADD, chip, (acc[pos], term), EVAL, at[pos])
        return acc

    def _moddown_positions(self, ctx: _KeyswitchContext, chip: int,
                           acc: Dict[int, int], positions,
                           ext_coeff: List[int] = None) -> List[int]:
        """Mod-down the accumulator ``acc`` onto ``positions`` of ``Q`` on
        ``chip`` (``fhe.keyswitch.moddown_poly``).

        ``ext_coeff`` are the coefficient-domain extension limbs when they
        arrived by broadcast (CiFHER); otherwise ``acc`` holds them locally
        and they are INTT'd here.  Returns one limb per position.
        """
        emit = self.out.emit
        at = ctx.at
        if ext_coeff is None:
            ext_coeff = [emit(L_INTT, chip, (acc[pos],), COEFF, at[pos])
                         for pos in range(ctx.level, len(at))]
        pre = tuple(emit(L_MULC, chip, (limb,), COEFF, attrs)
                    for limb, attrs in zip(ext_coeff, ctx.moddown_mulc_ext))
        out = []
        for i in positions:
            conv = emit(L_BCONV, chip, pre, COEFF, ctx.moddown_bconv[i])
            conv = emit(L_NTT, chip, (conv,), EVAL, at[i])
            diff = emit(L_SUB, chip, (acc[i], conv), EVAL, at[i])
            out.append(emit(L_MULC, chip, (diff,), EVAL,
                            ctx.moddown_mulc[i]))
        return out

    # -- the placements ---------------------------------------------------- #

    def _ks_input_broadcast(self, d: PolyValue, ctx: _KeyswitchContext, kind,
                            galois, batch, group: List[int], cifher: bool):
        """Input broadcast and CiFHER: broadcast the input limbs, then every
        chip mods up *every* digit onto the positions it produces.

        Under input broadcast a chip produces its own positions of ``Q``
        and all of ``E`` — the duplicated compute that keeps mod-down local.
        Under CiFHER it produces only its own positions of ``Q u E`` and
        each output polynomial pays a broadcast of ``E`` before mod-down.
        The members of a hoisted batch (rotations of one ciphertext) share
        one broadcast and mod-up; each applies its automorphism to the
        mod-up'd operands inside its inner product.
        """
        emit = self.out.emit
        at = ctx.at
        level, num_ext, n = ctx.level, ctx.num_ext, len(group)
        hoisted = batch is not None and galois is not None
        digits = self._hoist_cache.get(batch)
        if digits is None:
            if galois is not None and not hoisted:
                d = self._automorph(d, galois, level)
            coeff = [emit(L_INTT, d.chips[i], (d.limbs[i],), COEFF, at[i])
                     for i in range(level)]
            copies = self._broadcast(
                group[0], group,
                [(coeff[i], d.chips[i], f"l{i}", at[i])
                 for i in range(level)], COEFF)
            digits = {}
            for c, chip in enumerate(group):
                targets = range(c, level + num_ext, n) if cifher else \
                    (*range(c, level, n), *range(level, level + num_ext))
                digits[chip] = {
                    g: self._modup_digit(ctx, g, chip, d,
                                         copies[chip].__getitem__, targets)
                    for g in range(len(ctx.partition))}
            if batch is not None:
                self._hoist_cache[batch] = digits

        evk = self._evk_prefix(kind, ctx)
        galois_elt = self._galois_element(galois) if hoisted else None
        acc = {(chip, comp): self._evk_inner_product(
                   ctx, evk, chip, comp, digits[chip], galois_elt)
               for chip in group for comp in (0, 1)}

        owner = [group[pos % n] for pos in range(level + num_ext)]
        pair = []
        for comp in (0, 1):
            limbs = [None] * level
            if cifher:
                # The accumulators' extension limbs are spread over the
                # group: INTT each on its owner and broadcast them, then
                # every position is mod-downed where it lives.
                ext = self._broadcast(group[0], group, [
                    (emit(L_INTT, owner[pos], (acc[owner[pos], comp][pos],),
                          COEFF, at[pos]),
                     owner[pos], f"e{pos - level}", at[pos])
                    for pos in range(level, level + num_ext)], COEFF)
                for i in range(level):
                    limbs[i], = self._moddown_positions(
                        ctx, owner[i], acc[owner[i], comp], (i,),
                        ext[owner[i]])
            else:
                for c, chip in enumerate(group):
                    limbs[c::n] = self._moddown_positions(
                        ctx, chip, acc[chip, comp], range(c, level, n))
            pair.append(PolyValue(limbs, owner[:level], EVAL))
        return tuple(pair)

    def _ks_resident_digits(self, d: PolyValue, ctx: _KeyswitchContext, kind,
                            galois, group: List[int], partials) -> None:
        """Output aggregation up to the collective: chip ``g mod n`` mods
        up its resident digit ``g`` onto all of ``Q u E`` (no broadcast),
        multiplies by its evalkey digit and mods down locally.

        The per-chip results over **all** positions of ``Q`` are added into
        ``partials[chip, component]``; :meth:`_aggregate_partials`
        reduce-scatters them — once per keyswitch, or once per fused
        rotate-sum after every member has been accumulated.
        """
        emit = self.out.emit
        at = ctx.at
        level = ctx.level
        if galois is not None:
            d = self._automorph(d, galois, level)
        evk = self._evk_prefix(kind, ctx)
        for digit_index, digit in enumerate(ctx.partition):
            if not digit:
                continue
            chip = group[digit_index % len(group)]

            def coeff(j):
                return emit(L_INTT, chip, (d.limbs[j],), COEFF, at[j])

            extended = self._modup_digit(ctx, digit_index, chip, d, coeff,
                                         range(level + ctx.num_ext))
            for comp in (0, 1):
                acc = self._evk_inner_product(ctx, evk, chip, comp,
                                              {digit_index: extended})
                partial = partials[chip, comp]
                for i, limb in enumerate(self._moddown_positions(
                        ctx, chip, acc, range(level))):
                    partial[i] = limb if i not in partial else emit(
                        L_ADD, chip, (partial[i], limb), EVAL, at[i])

    def _aggregate_partials(self, partials, comp: int,
                            ctx: _KeyswitchContext,
                            group: List[int]) -> PolyValue:
        level, n = ctx.level, len(group)
        if n == 1:
            only = partials[group[0], comp]
            return PolyValue([only[i] for i in range(level)],
                             [group[0]] * level, EVAL)
        owners = [group[i % n] for i in range(level)]
        limbs = self._collective(
            "aggregate", group[0], group,
            [(partials[chip, comp][i], f"l{i}") for chip in group
             for i in range(level) if i in partials[chip, comp]],
            [(owners[i], f"l{i}", ctx.at[i]) for i in range(level)],
            EVAL, limbs_moved=level * (n - 1))
        return PolyValue(limbs, owners, EVAL)

    # -- fused rotate_sum -------------------------------------------------- #

    def _lower_protsum(self, op):
        rs_id = op.attrs["rs_id"]
        key = ("rs", rs_id)
        if key not in self._ks_done:
            self._ks_done[key] = self._expand_rotate_sum(op)
        self.values[op.id] = self._ks_done[key][op.attrs["component"]]

    def _expand_rotate_sum(self, op) -> Tuple[PolyValue, PolyValue]:
        """``sum_i rotate(ct_i, r_i)`` as one output-aggregation batch:
        every rotated member adds its keyswitch into the same per-chip
        partials, which are aggregated once for the whole sum."""
        rotations = op.attrs["rotations"]
        level, stream = op.level, op.stream
        group = self.group(stream)
        ctx = self._ks_context(level, KS_OUTPUT_AGGREGATION, group)
        sum_c0 = passthrough_c1 = None
        partials = defaultdict(dict)
        for index, rotation in enumerate(rotations):
            c0, c1 = (self._at_level(self.values[op.inputs[2 * index + comp]],
                                     level, stream) for comp in (0, 1))
            rotated = rotation % self.params.slot_count != 0
            galois = ("rotation", rotation)
            if rotated:
                c0 = self._automorph(c0, galois, level)
            sum_c0 = c0 if sum_c0 is None else self._add_polys(sum_c0, c0)
            if rotated:
                self._ks_resident_digits(c1, ctx, ("galois", galois), galois,
                                         group, partials)
            else:
                passthrough_c1 = c1 if passthrough_c1 is None else \
                    self._add_polys(passthrough_c1, c1)
        if not partials:
            return sum_c0, passthrough_c1
        f0 = self._aggregate_partials(partials, 0, ctx, group)
        f1 = self._aggregate_partials(partials, 1, ctx, group)
        out0 = self._add_polys(sum_c0, f0)
        out1 = f1 if passthrough_c1 is None else \
            self._add_polys(f1, passthrough_c1)
        return out0, out1

    def _add_polys(self, a: PolyValue, b: PolyValue) -> PolyValue:
        return self._combine(L_ADD, a, b, min(a.level, b.level))


def lower_to_limb(poly: PolyProgram, params, num_chips: int,
                  chips_per_stream: int = None,
                  num_digits: int = None,
                  regenerate_evalkeys: bool = True) -> LimbProgram:
    """Lower a polynomial program to the limb IR for an ``num_chips`` machine."""
    return LimbLowering(poly, params, num_chips, chips_per_stream,
                        num_digits, regenerate_evalkeys).run()
