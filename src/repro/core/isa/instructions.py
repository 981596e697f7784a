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

A chip's stream is an :class:`InstructionStream`: parallel columns, not
one object per instruction.  :class:`Instruction` is the value type that
iterating or indexing a stream yields (and that hand-written streams and
the assembler are built from).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..columns import ColumnView

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
    """One chip's instruction stream, stored column-wise.

    Instruction ``pc`` is ``(opcodes[pc], dests[pc], srcs[pc])`` plus its
    attrs, which are not stored per instruction: ``side[pc]``, when
    present, is the complete attrs dict (what codegen and the allocator
    build themselves — ``col``/``snd``/``mov``/``rcv``, spill stores,
    reloads and rematerialisations); otherwise the attrs are the limb op's
    own dict ``limb_attrs[limb_ops[pc]]`` — shared *by reference* with the
    limb program and every other stream of the module — plus
    ``"limb_op"``.  :meth:`attrs_at` composes them on demand.

    As a sequence the stream is read-only and yields fresh
    :class:`Instruction` values; their ``attrs`` may alias the shared
    dicts, so treat them as read-only too.  Hot consumers (simulator,
    emulator, counters) read the columns directly.
    """

    __slots__ = ("opcodes", "dests", "srcs", "limb_ops", "limb_attrs",
                 "side")

    def __init__(self, limb_attrs: List[dict] = None):
        self.opcodes: List[str] = []
        self.dests: List[Optional[int]] = []
        self.srcs: List[Tuple[int, ...]] = []
        self.limb_ops: List[Optional[int]] = []
        self.limb_attrs = limb_attrs
        self.side: Dict[int, dict] = {}

    @classmethod
    def from_instructions(cls, instructions: Iterable[Instruction]
                          ) -> "InstructionStream":
        """Columns of a hand-built or parsed instruction list."""
        stream = cls()
        for pc, ins in enumerate(instructions):
            stream.opcodes.append(ins.opcode)
            stream.dests.append(ins.dest)
            stream.srcs.append(tuple(ins.srcs))
            stream.limb_ops.append(None)
            stream.side[pc] = ins.attrs
        return stream

    def attrs_at(self, pc: int) -> dict:
        attrs = self.side.get(pc)
        if attrs is None:
            limb_op = self.limb_ops[pc]
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
                for pc, limb_op in enumerate(self.limb_ops)]

    def __len__(self) -> int:
        return len(self.opcodes)

    def __iter__(self) -> Iterator[Instruction]:
        return map(Instruction, self.opcodes, self.dests, self.srcs,
                   map(self.attrs_at, range(len(self.opcodes))))

    def _at(self, pc: int) -> Instruction:
        return Instruction(self.opcodes[pc], self.dests[pc], self.srcs[pc],
                           self.attrs_at(pc))
