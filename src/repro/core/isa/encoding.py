"""Textual encoding of Cinnamon ISA programs.

The paper positions the Cinnamon ISA as a compilation target for external
toolchains (Section 8: "the Cinnamon ISA can serve as a compilation target
for the HEIR framework").  This module gives the ISA a stable textual
form: ``disassemble`` renders an :class:`IsaModule` as one assembly file,
``assemble`` parses it back — a lossless round trip, so instruction
streams can be exchanged with other tools or checked into artifacts.

Format (one instruction per line, per-chip sections)::

    .chip 0
    ld r3 {"symbol": "input:x:0:0", ...}
    vntt r4 r3 {"prime": 268369921, ...}
    col {"cid": 7, "kind": "broadcast", ...}
"""

from __future__ import annotations

import json
from typing import Dict, List

from .codegen import IsaModule
from .instructions import Instruction
from .regalloc import AllocationStats


def _encode_attrs(attrs: dict) -> str:
    def default(value):
        if isinstance(value, tuple):
            return list(value)
        raise TypeError(f"cannot encode {type(value)}")

    return json.dumps(attrs, default=default, sort_keys=True)


def disassemble(module: IsaModule) -> str:
    """Render all chip streams as one assembly text."""
    lines: List[str] = []
    for chip in sorted(module.streams):
        lines.append(f".chip {chip}")
        for ins in module.streams[chip]:
            parts = [ins.opcode]
            if ins.dest is not None:
                parts.append(f"r{ins.dest}")
            parts.extend(f"r{r}" for r in ins.srcs)
            if ins.attrs:
                parts.append(_encode_attrs(ins.attrs))
            lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"

_DEFINING = {
    "vadd", "vsub", "vneg", "vmul", "vmulc", "vntt", "vintt", "vauto",
    "vrsv", "vbcv", "vprng", "ld", "mov", "rcv",
}


def assemble(text: str) -> IsaModule:
    """Parse assembly text back into an :class:`IsaModule`.

    Attribute values survive as JSON types; tuple-valued attributes come
    back as lists (semantically equivalent for the emulator/simulator).
    The parsed :class:`Instruction` values become column streams when the
    module is built.
    """
    streams: Dict[int, list] = {}
    current: list = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(".chip"):
            chip = int(line.split()[1])
            current = streams.setdefault(chip, [])
            continue
        if current is None:
            raise ValueError("instruction before any .chip directive")
        attrs = {}
        brace = line.find("{")
        if brace >= 0:
            attrs = json.loads(line[brace:])
            line = line[:brace].strip()
        tokens = line.split()
        opcode = tokens[0]
        regs = [int(t[1:]) for t in tokens[1:]]
        if opcode in _DEFINING and regs:
            dest, srcs = regs[0], tuple(regs[1:])
        else:
            dest, srcs = None, tuple(regs)
        current.append(Instruction(opcode, dest, srcs, attrs))
    return IsaModule(streams, {chip: AllocationStats() for chip in streams})
