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
object each the dominant compile cost (docs/compiler.md, section 6).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

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
    (the ``**attrs`` dict :meth:`emit` received) — not as one object per
    op.  The back-end (:mod:`repro.core.isa.codegen`) walks the columns
    and keeps referring to the ``attrs`` dicts from the instruction
    streams it writes, so they must not be mutated after :meth:`emit`.
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

    def emit(self, opcode: str, chip: int, inputs: Tuple[int, ...] = (),
             domain: str = None, **attrs) -> int:
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
    """Digit structure and scalar factors for keyswitching at one level."""

    def __init__(self, params, level: int, partition, partition_sig: str):
        self.level = level
        self.partition = partition
        self.partition_sig = partition_sig
        self.concrete = hasattr(params, "moduli")
        if self.concrete:
            self.active = list(params.basis_at_level(level))
            self.ext = list(params.extension_moduli)
        else:
            self.active = [None] * level
            self.ext = [None] * params.extension_count
        self.extended = self.active + self.ext
        self.num_ext = len(self.ext)

    def digit_primes(self, digit) -> list:
        return [self.active[i] for i in digit]

    def digit_product(self, digit) -> Optional[int]:
        if not self.concrete:
            return None
        prod = 1
        for i in digit:
            prod *= self.active[i]
        return prod

    def ext_product(self) -> Optional[int]:
        if not self.concrete:
            return None
        prod = 1
        for p in self.ext:
            prod *= p
        return prod


class LimbLowering:
    """Lowers a polynomial program onto a chip group layout."""

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
        self._hoist_cache: Dict[str, dict] = {}
        self._broadcast_cache: Dict[str, dict] = {}

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
    # Simple ops

    def _prime(self, level_index: int):
        if hasattr(self.params, "moduli"):
            return self.params.moduli[level_index]
        return None

    def _lower_pinput(self, op):
        name, comp = op.attrs["name"], op.attrs["component"]
        limbs, chips = [], []
        for i in range(op.level):
            chip = self.chip_of(op.stream, i)
            limbs.append(self.out.emit(
                L_LOAD, chip, domain=EVAL,
                symbol=f"input:{name}:{comp}:{i}",
                prime=self._prime(i), prime_index=i))
            chips.append(chip)
        self.values[op.id] = PolyValue(limbs, chips, EVAL)

    def _lower_poutput(self, op):
        val = self.values[op.inputs[0]]
        name, comp = op.attrs["name"], op.attrs["component"]
        for i, (limb, chip) in enumerate(zip(val.limbs, val.chips)):
            self.out.emit(L_STORE, chip, (limb,),
                          symbol=f"output:{name}:{comp}:{i}",
                          prime=self._prime(i), prime_index=i)
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
        limbs, chips = [], []
        for i in range(op.level):
            chip = self.chip_of(op.stream, i)
            limbs.append(self.out.emit(
                L_LOAD, chip, domain=EVAL,
                symbol=f"{key}:{i}", prime=self._prime(i), prime_index=i))
            chips.append(chip)
        self.values[op.id] = PolyValue(limbs, chips, EVAL)

    def _binary(self, op, opcode):
        a = self._at_level(self.values[op.inputs[0]], op.level, op.stream)
        b = self._at_level(self.values[op.inputs[1]], op.level, op.stream)
        limbs = []
        for i in range(op.level):
            chip = a.chips[i]
            rhs = b.limbs[i]
            if b.chips[i] != chip:
                rhs = self.out.emit(L_MOV, chip, (rhs,), domain=a.domain,
                                    from_chip=b.chips[i], prime=self._prime(i),
                                    prime_index=i)
            limbs.append(self.out.emit(
                opcode, chip, (a.limbs[i], rhs), domain=a.domain,
                prime=self._prime(i), prime_index=i))
        self.values[op.id] = PolyValue(limbs, list(a.chips[:op.level]), a.domain)

    def _lower_padd(self, op):
        self._binary(op, L_ADD)

    def _lower_psub(self, op):
        self._binary(op, L_SUB)

    def _lower_pmul(self, op):
        self._binary(op, L_MUL)

    def _lower_pneg(self, op):
        a = self._at_level(self.values[op.inputs[0]], op.level, op.stream)
        limbs = [
            self.out.emit(L_NEG, a.chips[i], (a.limbs[i],), domain=a.domain,
                          prime=self._prime(i), prime_index=i)
            for i in range(op.level)
        ]
        self.values[op.id] = PolyValue(limbs, list(a.chips[:op.level]), a.domain)

    def _lower_pauto(self, op):
        a = self._at_level(self.values[op.inputs[0]], op.level, op.stream)
        galois = self._galois_element(op.attrs["galois"])
        limbs = [
            self.out.emit(L_AUTO, a.chips[i], (a.limbs[i],), domain=EVAL,
                          galois=galois, prime=self._prime(i), prime_index=i)
            for i in range(op.level)
        ]
        self.values[op.id] = PolyValue(limbs, list(a.chips[:op.level]), EVAL)

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
        q0 = self._prime(0)
        home = src.chips[0]
        coeff = self.out.emit(L_INTT, home, (src.limbs[0],), domain=COEFF,
                              prime=q0, prime_index=0)
        copies = self._broadcast_one(coeff, home, op.stream,
                                     prime=q0, prime_index=0)
        limbs, chips = [], []
        for i in range(op.level):
            chip = self.chip_of(op.stream, i)
            q_i = self._prime(i)
            if i == 0:
                # Limb 0 is exact: re-use the original residues.
                value = src.limbs[0] if chip == home else self.out.emit(
                    L_NTT, chip, (copies[chip],), domain=EVAL,
                    prime=q0, prime_index=0)
            else:
                resolved = self.out.emit(
                    L_RSV, chip, (copies[chip],), domain=COEFF,
                    from_prime=q0, to_prime=q_i, prime=q_i, prime_index=i)
                value = self.out.emit(L_NTT, chip, (resolved,), domain=EVAL,
                                      prime=q_i, prime_index=i)
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
        q_last = self._prime(in_level - 1)
        last_chip = src.chips[in_level - 1]
        last_coeff = self.out.emit(
            L_INTT, last_chip, (src.limbs[in_level - 1],), domain=COEFF,
            prime=q_last, prime_index=in_level - 1)
        copies = self._broadcast_one(last_coeff, last_chip, op.stream,
                                     prime=q_last, prime_index=in_level - 1)
        limbs = []
        for j in range(out_level):
            chip = src.chips[j]
            q_j = self._prime(j)
            local = copies[chip]
            corr = self.out.emit(L_RSV, chip, (local,), domain=COEFF,
                                 from_prime=q_last, to_prime=q_j,
                                 prime=q_j, prime_index=j)
            corr = self.out.emit(L_NTT, chip, (corr,), domain=EVAL,
                                 prime=q_j, prime_index=j)
            diff = self.out.emit(L_SUB, chip, (src.limbs[j], corr), domain=EVAL,
                                 prime=q_j, prime_index=j)
            scalar = None
            if q_last is not None:
                from ...fhe.modmath import mod_inv
                scalar = mod_inv(q_last % q_j, q_j)
            limbs.append(self.out.emit(L_MULC, chip, (diff,), domain=EVAL,
                                       scalar=scalar, prime=q_j, prime_index=j))
        self.values[op.id] = PolyValue(limbs, list(src.chips[:out_level]), EVAL)

    def _broadcast_one(self, value_id: int, home: int, stream: int,
                       prime, prime_index) -> Dict[int, int]:
        """Deliver one limb to every chip of the stream's group."""
        group = self.group(stream)
        copies = {home: value_id}
        others = [c for c in group if c != home]
        if not others:
            return copies
        cid = self.out.new_comm_id()
        comm = self.out.emit(L_COMM, home, (value_id,), kind="broadcast",
                             cid=cid, group=tuple(group),
                             tags=("x",), limbs_moved=len(others))
        for chip in others:
            copies[chip] = self.out.emit(
                L_RECV, chip, (comm,), domain=self.out.domains.get(value_id),
                tag="x", cid=cid, prime=prime, prime_index=prime_index)
        return copies

    # ------------------------------------------------------------------ #
    # Keyswitching

    def _lower_pks(self, op):
        ks_id = op.attrs["ks_id"]
        if ks_id not in self._ks_done:
            self._ks_done[ks_id] = self._expand_keyswitch(op)
        pair = self._ks_done[ks_id]
        self.values[op.id] = pair[op.attrs["component"]]

    def _ks_context(self, level: int, algorithm: str, stream: int):
        group = self.group(stream)
        if algorithm == KS_OUTPUT_AGGREGATION and len(group) > 1:
            partition = tuple(
                tuple(i for i in range(level) if i % len(group) == c)
                for c in range(len(group))
            )
            sig = f"m{len(group)}"
        else:
            partition = self.params.digit_partition(level, self.num_digits)
            sig = f"c{self.num_digits}"
        return _KeyswitchContext(self.params, level, partition, sig)

    def _evk_symbol(self, kind, ctx: _KeyswitchContext, digit: int,
                    component: int, pos: int) -> str:
        if isinstance(kind, tuple) and kind[0] == "galois":
            key = f"galois{self._galois_element(kind[1])}"
        else:
            key = "relin"
        sym = (f"evk:{key}:{ctx.level}:{ctx.partition_sig}:"
               f"{digit}:{component}:{pos}")
        self.out.evalkeys.add((key, ctx.level, ctx.partition_sig))
        return sym

    def _expand_keyswitch(self, op) -> Tuple[PolyValue, PolyValue]:
        algorithm = op.attrs.get("algorithm") or KS_SEQUENTIAL
        d = self._at_level(self.values[op.inputs[0]], op.level, op.stream)
        group = self.group(op.stream)
        if len(group) == 1 or algorithm == KS_SEQUENTIAL:
            algorithm = KS_INPUT_BROADCAST  # degenerates: no comm on 1 chip
        kind = op.attrs["kind"]
        galois = op.attrs.get("galois")
        batch = op.attrs.get("batch")
        ctx = self._ks_context(op.level, algorithm, op.stream)
        if algorithm in (KS_INPUT_BROADCAST, KS_CIFHER):
            return self._ks_input_broadcast(
                d, ctx, kind, galois, batch, op.stream,
                cifher=(algorithm == KS_CIFHER and len(group) > 1))
        if algorithm == KS_OUTPUT_AGGREGATION:
            f0, f1, _ = self._ks_output_aggregation_partials(
                d, ctx, kind, galois, op.stream, aggregate=True)
            return f0, f1
        raise ValueError(f"unknown keyswitch algorithm {algorithm!r}")

    # -- input broadcast / CiFHER ---------------------------------------- #

    def _ks_input_broadcast(self, d: PolyValue, ctx, kind, galois, batch,
                            stream, cifher: bool):
        group = self.group(stream)
        n = len(group)
        level = ctx.level
        cache_key = batch if batch is not None else None
        hoisted = cache_key is not None and galois is not None

        decomposed = None
        if cache_key is not None:
            decomposed = self._hoist_cache.get(cache_key)
        if decomposed is None:
            decomposed = self._decompose_for_group(
                d, ctx, stream, cifher=cifher,
                pre_galois=(None if hoisted else galois))
            if cache_key is not None:
                self._hoist_cache[cache_key] = decomposed
        # decomposed: {chip: {digit_index: {pos: limb value (eval)}}}

        galois_elt = self._galois_element(galois) if (hoisted and galois) else None

        # Inner products per chip over its owned positions (+ ext for IB).
        f_limbs = {0: {}, 1: {}}  # component -> pos -> (chip, value)
        partial = {}
        for chip in group:
            for comp in (0, 1):
                acc = {}
                for digit_index, digit_vals in decomposed[chip].items():
                    for pos, val in digit_vals.items():
                        operand = val
                        if galois_elt is not None:
                            operand = self.out.emit(
                                L_AUTO, chip, (val,), domain=EVAL,
                                galois=galois_elt,
                                prime=self._ctx_prime(ctx, pos), prime_index=pos)
                        # Component 1 of every evalkey digit is uniform
                        # pseudorandom: the PRNG unit regenerates it on chip
                        # instead of streaming it from HBM (ARK-style
                        # runtime data generation; Table 1's PRNG FU).
                        regen = comp == 1 and self.regenerate_evalkeys
                        evk = self.out.emit(
                            L_PRNG if regen else L_LOAD, chip, domain=EVAL,
                            symbol=self._evk_symbol(kind, ctx, digit_index,
                                                    comp, pos),
                            prime=self._ctx_prime(ctx, pos), prime_index=pos)
                        term = self.out.emit(
                            L_MUL, chip, (operand, evk), domain=EVAL,
                            prime=self._ctx_prime(ctx, pos), prime_index=pos)
                        if pos in acc:
                            acc[pos] = self.out.emit(
                                L_ADD, chip, (acc[pos], term), domain=EVAL,
                                prime=self._ctx_prime(ctx, pos), prime_index=pos)
                        else:
                            acc[pos] = term
                partial[(chip, comp)] = acc

        if not cifher:
            # Mod-down locally: every chip holds all extension limbs.
            out_pair = []
            for comp in (0, 1):
                limbs = [None] * level
                chips = [None] * level
                for chip in group:
                    acc = partial[(chip, comp)]
                    owned = [i for i in range(level) if group[i % n] == chip]
                    ext_positions = list(range(level, level + ctx.num_ext))
                    down = self._moddown_local(acc, owned, ext_positions,
                                               ctx, chip)
                    for i, v in down.items():
                        limbs[i] = v
                        chips[i] = chip
                out_pair.append(PolyValue(limbs, chips, EVAL))
            return tuple(out_pair)

        # CiFHER: extension limbs of the accumulators are distributed; they
        # must be broadcast (2 broadcasts) before each chip can mod-down.
        out_pair = []
        for comp in (0, 1):
            acc_by_pos: Dict[int, Tuple[int, int]] = {}
            for chip in group:
                for pos, v in partial[(chip, comp)].items():
                    if pos in acc_by_pos:
                        # Positions are uniquely owned under CiFHER layout.
                        raise AssertionError("duplicate position in CiFHER flow")
                    acc_by_pos[pos] = (chip, v)
            # INTT extension limbs on their owners, then broadcast them.
            ext_coeff = {}
            cid = self.out.new_comm_id()
            entries = []
            for e in range(ctx.num_ext):
                pos = level + e
                chip, v = acc_by_pos[pos]
                c = self.out.emit(L_INTT, chip, (v,), domain=COEFF,
                                  prime=self._ctx_prime(ctx, pos),
                                  prime_index=pos)
                entries.append((c, f"e{e}", chip, pos))
            comm = self.out.emit(
                L_COMM, group[0], tuple(e[0] for e in entries),
                kind="broadcast", cid=cid, group=tuple(group),
                tags=tuple(e[1] for e in entries),
                limbs_moved=ctx.num_ext * (n - 1))
            for chip in group:
                for c_val, tag, home, pos in entries:
                    if home == chip:
                        ext_coeff[(chip, pos)] = c_val
                    else:
                        ext_coeff[(chip, pos)] = self.out.emit(
                            L_RECV, chip, (comm,), domain=COEFF, tag=tag,
                            cid=cid, prime=self._ctx_prime(ctx, pos),
                            prime_index=pos)
            limbs = [None] * level
            chips = [None] * level
            for i in range(level):
                chip, f_val = acc_by_pos[i]
                ext_vals = {level + e: ext_coeff[(chip, level + e)]
                            for e in range(ctx.num_ext)}
                down = self._moddown_positions(
                    {i: f_val}, ext_vals, ctx, chip)
                limbs[i] = down[i]
                chips[i] = chip
            out_pair.append(PolyValue(limbs, chips, EVAL))
        return tuple(out_pair)

    def _ctx_prime(self, ctx: _KeyswitchContext, pos: int):
        return ctx.extended[pos]

    def _decompose_for_group(self, d: PolyValue, ctx, stream, cifher: bool,
                             pre_galois=None):
        """Digit decomposition + mod-up, computed per chip.

        Returns ``{chip: {digit_index: {pos: eval-domain limb value}}}``.
        With ``cifher`` each chip produces only the positions it owns
        (initial *and* extension); otherwise (input broadcast) each chip
        produces its owned initial positions plus **all** extension
        positions (the algorithm's duplicated compute).
        """
        group = self.group(stream)
        n = len(group)
        level = ctx.level

        limbs = d.limbs
        if pre_galois is not None:
            galois_elt = self._galois_element(pre_galois)
            limbs = [
                self.out.emit(L_AUTO, d.chips[i], (limbs[i],), domain=EVAL,
                              galois=galois_elt, prime=self._ctx_prime(ctx, i),
                              prime_index=i)
                for i in range(level)
            ]

        # INTT every limb on its owner, then broadcast all coeff limbs.
        coeff = [
            self.out.emit(L_INTT, d.chips[i], (limbs[i],), domain=COEFF,
                          prime=self._ctx_prime(ctx, i), prime_index=i)
            for i in range(level)
        ]
        copies: Dict[Tuple[int, int], int] = {}
        if n > 1:
            cid = self.out.new_comm_id()
            tags = tuple(f"l{i}" for i in range(level))
            comm = self.out.emit(L_COMM, group[0], tuple(coeff),
                                 kind="broadcast", cid=cid, group=tuple(group),
                                 tags=tags, limbs_moved=level * (n - 1))
            for chip in group:
                for i in range(level):
                    if d.chips[i] == chip:
                        copies[(chip, i)] = coeff[i]
                    else:
                        copies[(chip, i)] = self.out.emit(
                            L_RECV, chip, (comm,), domain=COEFF, tag=f"l{i}",
                            cid=cid, prime=self._ctx_prime(ctx, i),
                            prime_index=i)
        else:
            for i in range(level):
                copies[(group[0], i)] = coeff[i]

        from ...fhe.modmath import mod_inv

        result = {}
        for chip in group:
            owned_initial = [i for i in range(level) if group[i % n] == chip]
            if cifher:
                ext_positions = [level + e for e in range(ctx.num_ext)
                                 if group[(level + e) % n] == chip]
            else:
                ext_positions = [level + e for e in range(ctx.num_ext)]
            per_digit = {}
            for digit_index, digit in enumerate(ctx.partition):
                digit = list(digit)
                q_digit = ctx.digit_product(digit)
                # Premultiply each digit limb by (Q_g/q_j)^{-1} mod q_j.
                pre = []
                for j in digit:
                    scalar = None
                    if q_digit is not None:
                        q_j = ctx.active[j]
                        scalar = mod_inv((q_digit // q_j) % q_j, q_j)
                    pre.append(self.out.emit(
                        L_MULC, chip, (copies[(chip, j)],), domain=COEFF,
                        scalar=scalar, prime=self._ctx_prime(ctx, j),
                        prime_index=j))
                vals = {}
                targets = [p for p in owned_initial + ext_positions]
                for pos in targets:
                    if pos in digit:
                        # In-digit positions reuse the original eval limb.
                        vals[pos] = limbs[pos] if d.chips[pos] == chip else \
                            self.out.emit(L_NTT, chip,
                                          (copies[(chip, pos)],), domain=EVAL,
                                          prime=self._ctx_prime(ctx, pos),
                                          prime_index=pos)
                        continue
                    conv = self.out.emit(
                        L_BCONV, chip, tuple(pre), domain=COEFF,
                        source_primes=tuple(ctx.active[j] for j in digit),
                        source_indices=tuple(digit),
                        target_prime=self._ctx_prime(ctx, pos),
                        prime=self._ctx_prime(ctx, pos), prime_index=pos)
                    vals[pos] = self.out.emit(
                        L_NTT, chip, (conv,), domain=EVAL,
                        prime=self._ctx_prime(ctx, pos), prime_index=pos)
                per_digit[digit_index] = vals
            result[chip] = per_digit
        return result

    def _moddown_local(self, acc: Dict[int, int], owned: List[int],
                       ext_positions: List[int], ctx, chip) -> Dict[int, int]:
        """Mod-down on one chip that holds all extension limbs locally."""
        ext_vals = {}
        for pos in ext_positions:
            ext_vals[pos] = self.out.emit(
                L_INTT, chip, (acc[pos],), domain=COEFF,
                prime=self._ctx_prime(ctx, pos), prime_index=pos)
        return self._moddown_positions(
            {i: acc[i] for i in owned}, ext_vals, ctx, chip)

    def _moddown_positions(self, initial: Dict[int, int],
                           ext_coeff: Dict[int, int], ctx, chip) -> Dict[int, int]:
        """Shared mod-down tail: bconv ext limbs onto each initial position."""
        from ...fhe.modmath import mod_inv

        p_total = ctx.ext_product()
        # Premultiply extension limbs by (P/p_e)^{-1} mod p_e once.
        pre = []
        ext_positions = sorted(ext_coeff)
        for pos in ext_positions:
            scalar = None
            if p_total is not None:
                p_e = ctx.extended[pos]
                scalar = mod_inv((p_total // p_e) % p_e, p_e)
            pre.append(self.out.emit(
                L_MULC, chip, (ext_coeff[pos],), domain=COEFF, scalar=scalar,
                prime=self._ctx_prime(ctx, pos), prime_index=pos))
        out = {}
        for i, f_val in initial.items():
            q_i = ctx.active[i] if ctx.concrete else None
            conv = self.out.emit(
                L_BCONV, chip, tuple(pre), domain=COEFF,
                source_primes=tuple(ctx.extended[p] for p in ext_positions),
                source_indices=tuple(ext_positions),
                target_prime=q_i, prime=q_i, prime_index=i)
            conv = self.out.emit(L_NTT, chip, (conv,), domain=EVAL,
                                 prime=q_i, prime_index=i)
            diff = self.out.emit(L_SUB, chip, (f_val, conv), domain=EVAL,
                                 prime=q_i, prime_index=i)
            scalar = None
            if p_total is not None:
                scalar = mod_inv(p_total % q_i, q_i)
            out[i] = self.out.emit(L_MULC, chip, (diff,), domain=EVAL,
                                   scalar=scalar, prime=q_i, prime_index=i)
        return out

    # -- output aggregation ---------------------------------------------- #

    def _ks_output_aggregation_partials(self, d: PolyValue, ctx, kind, galois,
                                        stream, aggregate: bool,
                                        pre_partials=None):
        """Digit-parallel keyswitch with deferred aggregation.

        Each chip mods up its resident digit, inner-products with its digit
        evalkey, and mods down locally, yielding per-chip partial sums over
        **all** initial positions.  With ``aggregate`` the partials are
        reduce-scattered; otherwise they are returned for batching (the
        rotate_sum lowering accumulates them across members first).
        """
        from ...fhe.modmath import mod_inv

        group = self.group(stream)
        n = len(group)
        level = ctx.level

        limbs = d.limbs
        if galois is not None:
            galois_elt = self._galois_element(galois)
            limbs = [
                self.out.emit(L_AUTO, d.chips[i], (limbs[i],), domain=EVAL,
                              galois=galois_elt, prime=self._ctx_prime(ctx, i),
                              prime_index=i)
                for i in range(level)
            ]

        partials = pre_partials if pre_partials is not None else \
            {(chip, comp): {} for chip in group for comp in (0, 1)}
        for digit_index, digit in enumerate(ctx.partition):
            if not digit:
                continue
            chip = group[digit_index % n]
            digit = list(digit)
            q_digit = ctx.digit_product(digit)
            coeff = {}
            pre = []
            for j in digit:
                c = self.out.emit(L_INTT, chip, (limbs[j],), domain=COEFF,
                                  prime=self._ctx_prime(ctx, j), prime_index=j)
                coeff[j] = c
                scalar = None
                if q_digit is not None:
                    q_j = ctx.active[j]
                    scalar = mod_inv((q_digit // q_j) % q_j, q_j)
                pre.append(self.out.emit(
                    L_MULC, chip, (c,), domain=COEFF, scalar=scalar,
                    prime=self._ctx_prime(ctx, j), prime_index=j))
            extended = {}
            for pos in range(level + ctx.num_ext):
                if pos in digit:
                    extended[pos] = limbs[pos]
                    continue
                conv = self.out.emit(
                    L_BCONV, chip, tuple(pre), domain=COEFF,
                    source_primes=tuple(ctx.active[j] for j in digit),
                    source_indices=tuple(digit),
                    target_prime=self._ctx_prime(ctx, pos),
                    prime=self._ctx_prime(ctx, pos), prime_index=pos)
                extended[pos] = self.out.emit(
                    L_NTT, chip, (conv,), domain=EVAL,
                    prime=self._ctx_prime(ctx, pos), prime_index=pos)
            for comp in (0, 1):
                acc = {}
                for pos, val in extended.items():
                    regen = comp == 1 and self.regenerate_evalkeys
                    evk = self.out.emit(
                        L_PRNG if regen else L_LOAD, chip, domain=EVAL,
                        symbol=self._evk_symbol(kind, ctx, digit_index, comp, pos),
                        prime=self._ctx_prime(ctx, pos), prime_index=pos)
                    acc[pos] = self.out.emit(
                        L_MUL, chip, (val, evk), domain=EVAL,
                        prime=self._ctx_prime(ctx, pos), prime_index=pos)
                ext_positions = list(range(level, level + ctx.num_ext))
                down = self._moddown_local(acc, list(range(level)),
                                           ext_positions, ctx, chip)
                target = partials[(chip, comp)]
                for i, v in down.items():
                    if i in target:
                        target[i] = self.out.emit(
                            L_ADD, chip, (target[i], v), domain=EVAL,
                            prime=self._ctx_prime(ctx, i), prime_index=i)
                    else:
                        target[i] = v
        if not aggregate:
            return partials
        f0 = self._aggregate_partials(partials, 0, ctx, stream)
        f1 = self._aggregate_partials(partials, 1, ctx, stream)
        return f0, f1, partials

    def _aggregate_partials(self, partials, comp, ctx, stream) -> PolyValue:
        group = self.group(stream)
        n = len(group)
        level = ctx.level
        if n == 1:
            only = partials[(group[0], comp)]
            return PolyValue([only[i] for i in range(level)],
                             [group[0]] * level, EVAL)
        cid = self.out.new_comm_id()
        contributions = []
        tags = []
        for chip in group:
            for i in range(level):
                v = partials[(chip, comp)].get(i)
                if v is not None:
                    contributions.append(v)
                    tags.append(f"l{i}")
        comm = self.out.emit(
            L_COMM, group[0], tuple(contributions), kind="aggregate",
            cid=cid, group=tuple(group), tags=tuple(tags),
            limbs_moved=level * (n - 1))
        limbs, chips = [], []
        for i in range(level):
            owner = group[i % n]
            limbs.append(self.out.emit(
                L_RECV, owner, (comm,), domain=EVAL, tag=f"l{i}", cid=cid,
                prime=self._ctx_prime(ctx, i), prime_index=i))
            chips.append(owner)
        return PolyValue(limbs, chips, EVAL)

    # -- fused rotate_sum -------------------------------------------------- #

    def _lower_protsum(self, op):
        rs_id = op.attrs["rs_id"]
        key = ("rs", rs_id)
        if key not in self._ks_done:
            self._ks_done[key] = self._expand_rotate_sum(op)
        self.values[op.id] = self._ks_done[key][op.attrs["component"]]

    def _expand_rotate_sum(self, op) -> Tuple[PolyValue, PolyValue]:
        rotations = op.attrs["rotations"]
        stream = op.stream
        level = op.level
        group = self.group(stream)
        pairs = [
            (self._at_level(self.values[op.inputs[2 * i]], level, stream),
             self._at_level(self.values[op.inputs[2 * i + 1]], level, stream))
            for i in range(len(rotations))
        ]
        ctx = self._ks_context(level, KS_OUTPUT_AGGREGATION, stream)

        sum_c0 = None
        passthrough_c1 = None
        partials = {(chip, comp): {} for chip in group for comp in (0, 1)}
        any_rotated = False
        for (c0, c1), rotation in zip(pairs, rotations):
            if rotation % self.params.slot_count == 0:
                rc0, rc1 = c0, c1
                sum_c0 = rc0 if sum_c0 is None else self._add_polys(sum_c0, rc0, ctx)
                passthrough_c1 = rc1 if passthrough_c1 is None else \
                    self._add_polys(passthrough_c1, rc1, ctx)
                continue
            any_rotated = True
            galois = ("rotation", rotation)
            galois_elt = self._galois_element(galois)
            rc0 = PolyValue(
                [self.out.emit(L_AUTO, c0.chips[i], (c0.limbs[i],),
                               domain=EVAL, galois=galois_elt,
                               prime=self._ctx_prime(ctx, i), prime_index=i)
                 for i in range(level)],
                list(c0.chips[:level]), EVAL)
            sum_c0 = rc0 if sum_c0 is None else self._add_polys(sum_c0, rc0, ctx)
            partials = self._ks_output_aggregation_partials(
                c1, ctx, ("galois", galois), galois, stream,
                aggregate=False, pre_partials=partials)
        if not any_rotated:
            return sum_c0, passthrough_c1
        f0 = self._aggregate_partials(partials, 0, ctx, stream)
        f1 = self._aggregate_partials(partials, 1, ctx, stream)
        out0 = self._add_polys(sum_c0, f0, ctx)
        out1 = f1 if passthrough_c1 is None else \
            self._add_polys(f1, passthrough_c1, ctx)
        return out0, out1

    def _add_polys(self, a: PolyValue, b: PolyValue, ctx) -> PolyValue:
        limbs = []
        for i in range(min(a.level, b.level)):
            chip = a.chips[i]
            rhs = b.limbs[i]
            if b.chips[i] != chip:
                rhs = self.out.emit(L_MOV, chip, (rhs,), domain=b.domain,
                                    from_chip=b.chips[i],
                                    prime=self._ctx_prime(ctx, i), prime_index=i)
            limbs.append(self.out.emit(
                L_ADD, chip, (a.limbs[i], rhs), domain=a.domain,
                prime=self._ctx_prime(ctx, i), prime_index=i))
        return PolyValue(limbs, list(a.chips[:len(limbs)]), a.domain)


def lower_to_limb(poly: PolyProgram, params, num_chips: int,
                  chips_per_stream: int = None,
                  num_digits: int = None,
                  regenerate_evalkeys: bool = True) -> LimbProgram:
    """Lower a polynomial program to the limb IR for an ``num_chips`` machine."""
    return LimbLowering(poly, params, num_chips, chips_per_stream,
                        num_digits, regenerate_evalkeys).run()
