"""Cinnamon ISA instruction definitions.

Every register holds one limb: a 28-bit-wide vector of ``N`` elements
(Section 4.6), so all instructions operate on a uniform vector size.
Scalar-operand variants (``vmulc``) avoid expanding scalars to vectors.
Inter-chip communication is exposed as collective instructions (``col`` to
contribute, ``rcv`` to materialize a delivered limb), mirroring the
broadcast/aggregation primitives of the interconnect (Section 4.5).

========  ========================================  =====================
opcode    meaning                                    functional unit
========  ========================================  =====================
vadd      rd <- ra + rb (mod q)                      add
vsub      rd <- ra - rb (mod q)                      add
vneg      rd <- -ra (mod q)                          add
vmul      rd <- ra * rb (mod q)                      multiply
vmulc     rd <- ra * scalar (mod q)                  multiply
vntt      rd <- NTT(ra)                              NTT
vintt     rd <- INTT(ra)                             NTT
vauto     rd <- permute(ra) (eval-domain galois)     transpose/rotation
vrsv      rd <- centered re-reduction q_a -> q_b     RNS resolve + Barrett
vbcv      rd <- base-conversion MAC over srcs        BCU
vprng     rd <- regenerate pseudorandom limb         PRNG
ld        rd <- HBM[symbol]                          memory
st        HBM[symbol] <- ra                          memory
snd/mov   point-to-point limb transfer               network
col       contribute limbs to collective #cid        network
rcv       rd <- limb `tag` from collective #cid      network
========  ========================================  =====================

A chip's stream is an :class:`InstructionStream`: typed numpy columns,
not one object per instruction, with opcodes numbered by :data:`OPCODES`.
:class:`Instruction` is the value type that iterating or indexing a
stream yields (and that hand-written streams and the assembler are built
from).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..columns import CodeNames, ColumnView, OptionalIds, Rows, row_starts

VADD = "vadd"
VSUB = "vsub"
VNEG = "vneg"
VMUL = "vmul"
VMULC = "vmulc"
VNTT = "vntt"
VINTT = "vintt"
VAUTO = "vauto"
VRSV = "vrsv"
VBCV = "vbcv"
VPRNG = "vprng"
LD = "ld"
ST = "st"
SND = "snd"
MOV = "mov"
COL = "col"
RCV = "rcv"

COMPUTE = (VADD, VSUB, VNEG, VMUL, VMULC, VNTT, VINTT, VAUTO, VRSV,
           VBCV, VPRNG)
MEMORY = (LD, ST)
NETWORK = (SND, MOV, COL, RCV)

#: The one opcode numbering of every typed ``opcode`` column: abstract and
#: allocated streams, the simulator engine's and the emulator's arrays.
#: The compute opcodes come first, in ``COMPUTE`` order.  A hand-built
#: stream names any other opcode by a code past the table, into its own
#: ``foreign`` names; running it raises ``ValueError``.
OPCODES = COMPUTE + MEMORY + NETWORK
CODES = {opcode: code for code, opcode in enumerate(OPCODES)}

#: Register numbers and value ids are int32 in the typed columns.
ID_LIMIT = 1 << 31


def opcode_column(names: Sequence[str]) -> Tuple[np.ndarray, tuple]:
    """``(codes, foreign)``: ``names`` as int8 codes, and the names the
    table lacks, in order of appearance (code ``len(OPCODES) + k`` names
    ``foreign[k]``)."""
    foreign: Dict[str, int] = {}

    def code(name):
        known = CODES.get(name)
        if known is None:
            known = foreign.setdefault(name, len(OPCODES) + len(foreign))
        return known

    codes = [code(name) for name in names]
    if len(OPCODES) + len(foreign) > np.iinfo(np.int8).max:
        raise ValueError("a stream may name at most "
                         f"{np.iinfo(np.int8).max - len(OPCODES)} opcodes "
                         "outside the ISA")
    return np.array(codes, dtype=np.int8), tuple(foreign)


def id_column(values: Iterable, count: int, error: ValueError) -> np.ndarray:
    """``values`` as an int32 column; raises ``error`` unless every one is
    a non-negative int below :data:`ID_LIMIT`."""
    try:
        column = np.fromiter(values, dtype=np.int64, count=count)
    except (OverflowError, TypeError, ValueError):
        raise error from None
    if count and (column.min() < 0 or column.max() >= ID_LIMIT):
        raise error
    return column.astype(np.int32)


def optional_id_column(values: Sequence, error: ValueError) -> np.ndarray:
    """Like :func:`id_column`, but a None becomes -1."""
    given = [value is not None for value in values]
    column = np.full(len(values), -1, dtype=np.int32)
    column[np.array(given, dtype=bool)] = id_column(
        (value for value in values if value is not None), sum(given), error)
    return column


def csr_column(rows: Sequence[tuple], error: ValueError
               ) -> Tuple[np.ndarray, np.ndarray]:
    """``(start, flat)``: the int tuples ``rows`` in CSR form, each id
    checked by :func:`id_column`."""
    start = row_starts(np.fromiter(map(len, rows), dtype=np.int64,
                                   count=len(rows)))
    return start, id_column(chain.from_iterable(rows), int(start[-1]), error)


_NO_CODES = np.zeros(0, dtype=np.int8)
_NO_IDS = np.zeros(0, dtype=np.int32)
_NO_ROWS = np.zeros(1, dtype=np.int64)
for _empty in (_NO_CODES, _NO_IDS, _NO_ROWS):
    _empty.flags.writeable = False


@dataclass(slots=True)
class Instruction:
    """One Cinnamon ISA instruction on one chip.

    ``dest``/``srcs`` are register indices; ``attrs`` carries the limb-op
    metadata (prime, scalar, galois element, symbol, collective info) the
    emulator and simulator need.
    """

    opcode: str
    dest: Optional[int] = None
    srcs: Tuple[int, ...] = ()
    attrs: dict = field(default_factory=dict)

    def __repr__(self):
        d = f"r{self.dest} <- " if self.dest is not None else ""
        s = ",".join(f"r{r}" for r in self.srcs)
        sym = self.attrs.get("symbol")
        extra = f" [{sym}]" if sym else ""
        return f"{self.opcode} {d}{s}{extra}"


class InstructionStream(ColumnView):
    """One chip's instruction stream, stored as typed columns.

    Instruction ``pc`` is ``opcode[pc]`` (int8, :data:`OPCODES`),
    ``dest[pc]`` (int32, -1 for none) and the sources
    ``src[src_start[pc]:src_start[pc + 1]]`` (int32 in CSR form, int64
    ``src_start``), plus its attrs, which are not stored per instruction:
    ``side[pc]``, when present, is the complete attrs dict (what codegen
    and the allocator build themselves — ``col``/``snd``/``mov``/``rcv``,
    spill stores, reloads and rematerialisations); otherwise the attrs are
    the limb op's own dict ``limb_attrs[limb_op[pc]]`` — shared *by
    reference* with the limb program and every other stream of the
    module — plus ``"limb_op"``.  :meth:`attrs_at` composes them on
    demand.

    ``opcodes`` / ``dests`` / ``srcs`` / ``limb_ops`` read the columns as
    read-only sequences of ``str`` / ``int`` or None / ``int`` tuples /
    ``int`` or None.  As a sequence the stream itself is read-only and
    yields fresh :class:`Instruction` values; their ``attrs`` may alias
    the shared dicts, so treat them as read-only too.  Hot consumers
    (simulator, emulator, counters) read the arrays.
    """

    __slots__ = ("opcode", "dest", "src_start", "src", "limb_op",
                 "limb_attrs", "side", "foreign")

    def __init__(self, limb_attrs: List[dict] = None, *,
                 opcode: np.ndarray = _NO_CODES, dest: np.ndarray = _NO_IDS,
                 src_start: np.ndarray = _NO_ROWS, src: np.ndarray = _NO_IDS,
                 limb_op: np.ndarray = _NO_IDS,
                 side: Dict[int, dict] = None, foreign: tuple = ()):
        self.opcode = opcode
        self.dest = dest
        self.src_start = src_start
        self.src = src
        self.limb_op = limb_op
        self.limb_attrs = limb_attrs
        self.side: Dict[int, dict] = {} if side is None else side
        self.foreign = foreign

    @classmethod
    def from_instructions(cls, instructions: Iterable[Instruction]
                          ) -> "InstructionStream":
        """Columns of a hand-built or parsed instruction list.  Raises
        ``ValueError`` for a register that is negative or not below
        2**31."""
        instructions = list(instructions)
        bad = ValueError(
            "register indices must be non-negative ints below 2**31")
        opcode, foreign = opcode_column([ins.opcode for ins in instructions])
        src_start, src = csr_column(
            [tuple(ins.srcs) for ins in instructions], bad)
        return cls(opcode=opcode,
                   dest=optional_id_column(
                       [ins.dest for ins in instructions], bad),
                   src_start=src_start, src=src,
                   limb_op=np.full(len(instructions), -1, dtype=np.int32),
                   side={pc: ins.attrs for pc, ins in enumerate(instructions)},
                   foreign=foreign)

    @property
    def opcodes(self) -> CodeNames:
        return CodeNames(self.opcode, OPCODES + self.foreign)

    @property
    def dests(self) -> OptionalIds:
        return OptionalIds(self.dest)

    @property
    def srcs(self) -> Rows:
        return Rows(self.src_start, self.src)

    @property
    def limb_ops(self) -> OptionalIds:
        return OptionalIds(self.limb_op)

    def attrs_at(self, pc: int) -> dict:
        attrs = self.side.get(pc)
        if attrs is None:
            limb_op = int(self.limb_op[pc])
            attrs = dict(self.limb_attrs[limb_op])
            attrs["limb_op"] = limb_op
        return attrs

    def operation_attrs(self) -> List[dict]:
        """Every instruction's attrs *by reference*, nothing composed.

        For readers that only look up operation parameters (primes,
        symbols, collective ids): a plain instruction gets its limb op's
        own dict, so unlike :meth:`attrs_at` there is no ``"limb_op"`` key
        — and no dict is built.
        """
        side, limb_attrs = self.side, self.limb_attrs
        return [side[pc] if pc in side else limb_attrs[limb_op]
                for pc, limb_op in enumerate(self.limb_op.tolist())]

    def _all_attrs(self) -> Iterator[dict]:
        side, limb_attrs = self.side, self.limb_attrs
        for pc, limb_op in enumerate(self.limb_op.tolist()):
            attrs = side.get(pc)
            if attrs is None:
                attrs = dict(limb_attrs[limb_op])
                attrs["limb_op"] = limb_op
            yield attrs

    def __len__(self) -> int:
        return len(self.opcode)

    def __iter__(self) -> Iterator[Instruction]:
        return map(Instruction, self.opcodes, self.dests, self.srcs,
                   self._all_attrs())

    def _at(self, pc: int) -> Instruction:
        return Instruction(self.opcodes._at(pc), self.dests._at(pc),
                           self.srcs._at(pc), self.attrs_at(pc))
