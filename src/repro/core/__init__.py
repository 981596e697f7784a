"""The Cinnamon framework core: DSL, compiler IRs, ISA, and emulator.

This subpackage is the paper's primary contribution, reimplemented:

* :mod:`repro.core.dsl` — the Python-embedded DSL with concurrent
  execution streams (program-level parallelism).
* :mod:`repro.core.ir` — the polynomial-level IR, the keyswitch compiler
  pass (algorithm selection + communication batching), and the limb-level
  IR with modular limb partitioning across chips.
* :mod:`repro.core.isa` — the Cinnamon vector ISA (one register = one
  limb), Belady's-MIN register allocation, per-chip code generation, and a
  functional CPU emulator used to validate compiled programs against the
  :mod:`repro.fhe` evaluator.
"""

from .dsl import CinnamonProgram, StreamPool
from .compiler import (
    CompiledProgram,
    CompilerDriver,
    CompilerOptions,
    CompileStats,
    CommSummary,
    PassTiming,
)
from .ir.passes import (
    KEYSWITCH_POLICIES,
    KS_CIFHER,
    KS_CINNAMON,
    KS_INPUT_BROADCAST,
    KS_SEQUENTIAL,
    normalize_keyswitch_policy,
)

__all__ = [
    "CinnamonProgram",
    "StreamPool",
    "CompilerDriver",
    "CompilerOptions",
    "CompiledProgram",
    "CompileStats",
    "CommSummary",
    "PassTiming",
    "KEYSWITCH_POLICIES",
    "KS_CINNAMON",
    "KS_INPUT_BROADCAST",
    "KS_CIFHER",
    "KS_SEQUENTIAL",
    "normalize_keyswitch_policy",
]
