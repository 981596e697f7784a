"""The Cinnamon compiler driver.

Pipeline (Figure 7):

    DSL program
      -> bootstrap expansion        (ct level; inlines bootstrap op graphs)
      -> keyswitch pass             (pattern detection, algorithm selection)
      -> alignment + scale inference
      -> polynomial IR              (ciphertexts -> component polynomials)
      -> limb IR                    (limb partitioning, keyswitch expansion,
                                     explicit communication)
      -> Cinnamon ISA               (per-chip streams, Belady registers)

Every pass is wall-clock timed and the op counts of each IR level are
recorded into a :class:`CompileStats` attached to the produced
:class:`CompiledProgram` — the observability substrate of the
:mod:`repro.runtime` session traces.

:class:`CompilerDriver` is the implementation; application code should
go through :func:`repro.compile` or a
:class:`repro.runtime.CinnamonSession`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from .dsl.program import CinnamonProgram
from .ir import ctpasses
from .ir.limb_ir import LimbProgram, lower_to_limb
from .ir.passes import KeyswitchPass, KeyswitchPassStats
from .ir.poly_ir import PolyProgram, lower_to_poly


@dataclass
class CompilerOptions:
    """Machine layout and optimization switches.

    ``machine`` accepts anything :func:`repro.sim.config.resolve_machine`
    understands (a name like ``"cinnamon_4"``, a chip count, or a
    :class:`~repro.sim.config.MachineConfig`); when given it is resolved
    once and overrides ``num_chips`` and ``registers_per_chip``, removing
    the historical duplication between compiler options and ``sim.config``.

    ``num_chips`` is the whole machine; ``chips_per_stream`` carves it into
    stream groups (defaults to an even split across the program's streams).
    ``keyswitch_policy`` and ``enable_batching`` drive the keyswitch pass
    (Section 7.3's configurations).  ``registers_per_chip`` sizes the
    register file for allocation (224 x 256 KB limbs = 56 MB by default).
    """

    num_chips: int = 4
    chips_per_stream: Optional[int] = None
    keyswitch_policy: str = "cinnamon"
    enable_batching: bool = True
    num_digits: Optional[int] = None
    registers_per_chip: int = 224
    bootstrap_plan: object = None  # BootstrapPlan; default chosen per params
    regenerate_evalkeys: bool = True  # PRNG unit regenerates evk 'a' limbs
    enable_optimizations: bool = True  # ct-level CSE + DCE
    machine: object = None  # MachineConfig | name | chip count; see above

    def __post_init__(self):
        from .ir.passes import normalize_keyswitch_policy

        # Canonicalize early so equivalent spellings ("KS_CIFHER",
        # "cifher") produce identical cache fingerprints and a bad policy
        # fails at options construction, not mid-pipeline.
        self.keyswitch_policy = normalize_keyswitch_policy(
            self.keyswitch_policy)
        if self.machine is not None:
            from ..sim.config import resolve_machine

            resolved = resolve_machine(self.machine)
            self.machine = resolved
            self.num_chips = resolved.num_chips
            self.registers_per_chip = resolved.chip.registers


@dataclass
class PassTiming:
    """Wall-clock cost of one compiler pass."""

    name: str
    seconds: float

    def as_dict(self) -> dict:
        return {"name": self.name, "seconds": self.seconds}


@dataclass
class CompileStats:
    """Per-pass timings and IR-size counters for one compilation.

    ``passes`` lists every pipeline stage that actually ran, in order;
    ``counters`` records the op count at each IR level (``ct_ops``,
    ``poly_ops``, ``limb_ops``, ``isa_instructions``, ``keyswitches``).
    """

    passes: List[PassTiming] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    total_seconds: float = 0.0

    def pass_seconds(self, name: str) -> float:
        return sum(p.seconds for p in self.passes if p.name == name)

    def as_dict(self) -> dict:
        return {
            "passes": [p.as_dict() for p in self.passes],
            "counters": dict(self.counters),
            "total_seconds": self.total_seconds,
        }


@dataclass
class CommSummary:
    """Communication statistics distilled from the limb IR.

    Computed by :meth:`CompiledProgram.summarize_comm`; callers that are
    done with the limb IR release it afterwards (it is by far the largest
    in-memory object of a compilation).
    """

    broadcast_events: int
    aggregate_events: int
    comm_limbs: int
    limb_ops: int

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class CompiledProgram:
    """Everything the simulator, emulator, and benchmarks consume."""

    name: str
    options: CompilerOptions
    ct_program: CinnamonProgram
    poly_program: PolyProgram
    limb_program: LimbProgram
    isa: object = None  # IsaModule when emit_isa was requested
    pass_stats: Optional[KeyswitchPassStats] = None
    comm_summary: Optional[CommSummary] = None
    compile_stats: Optional[CompileStats] = None
    params: object = None  # CKKSParams/ArchParams used for the compile
    cache_key: Optional[str] = None  # set by the runtime session

    @property
    def instruction_count(self) -> int:
        return 0 if self.isa is None else self.isa.instruction_count

    # ------------------------------------------------------------------ #
    # Convenience surface (the `repro.compile()` facade returns this).

    def simulate(self, machine=None, tag: str = ""):
        """Cycle-simulate the compiled ISA on ``machine``.

        ``machine`` accepts any spec :func:`resolve_machine` understands;
        ``None`` simulates on the standard machine matching the compile's
        chip count.  ``tag`` is carried into runtime traces by sessions.
        """
        del tag  # meaningful only for the caching session wrapper
        if self.isa is None:
            raise ValueError(
                "program was compiled with emit_isa=False; nothing to "
                "simulate")
        from ..sim.config import resolve_machine
        from ..sim.simulator import SimulatorEngine

        resolved = resolve_machine(
            machine if machine is not None
            else (self.options.machine or self.options.num_chips))
        return SimulatorEngine(resolved).run(self.isa)

    def emulate(self, inputs: dict, *, context, plaintexts: dict = None):
        """Run the compiled ISA on real limb data and return output cts.

        ``context`` is the :class:`repro.fhe.CKKSContext` that produced
        the input ciphertexts (the emulator needs its keys to build the
        memory image).
        """
        if self.isa is None:
            raise ValueError(
                "program was compiled with emit_isa=False; nothing to "
                "emulate")
        from .isa.emulator import emulate as _emulate

        return _emulate(self, context, inputs, plaintexts)

    def summarize_comm(self, release: bool = False) -> CommSummary:
        """Distill (and cache) the limb IR's communication statistics.

        With ``release=True`` the limb IR op list is dropped afterwards to
        reclaim memory — compiled bootstraps run to ~1 GB of Python
        objects, of which the limb IR is most.
        """
        if self.comm_summary is None:
            lp = self.limb_program
            self.comm_summary = CommSummary(
                broadcast_events=lp.comm_events("broadcast"),
                aggregate_events=lp.comm_events("aggregate"),
                comm_limbs=lp.comm_limbs(),
                limb_ops=len(lp.opcodes),
            )
        if release:
            self.limb_program.release()
        return self.comm_summary


class CompilerDriver:
    """Compiles DSL programs for a Cinnamon machine configuration.

    The one compiler entry point: :func:`repro.compile` and
    :class:`repro.runtime.CinnamonSession` add caching and tracing around
    it.
    """

    def __init__(self, params, options: CompilerOptions = None):
        """``params`` is a :class:`repro.fhe.CKKSParams` (functional, enables
        emulation) or :class:`repro.fhe.ArchParams` (symbolic, N = 64K).
        """
        self.params = params
        self.options = options or CompilerOptions()

    def compile(self, program: CinnamonProgram,
                emit_isa: bool = True) -> CompiledProgram:
        opts = self.options
        stats = CompileStats()
        clock = time.perf_counter
        started = clock()

        def timed(name, fn):
            t0 = clock()
            result = fn()
            stats.passes.append(PassTiming(name, clock() - t0))
            return result

        prog = timed("bootstrap_expansion",
                     lambda: self._expand_bootstraps(program))
        if opts.enable_optimizations:
            from .ir.optimize import optimize

            prog = timed("optimize", lambda: optimize(
                prog, self.params.slot_count))
        ks_pass = KeyswitchPass(opts.keyswitch_policy, opts.enable_batching)
        prog = timed("keyswitch", lambda: ks_pass.run(prog))
        prog = timed("alignment", lambda: ctpasses.insert_alignment(prog))
        if hasattr(self.params, "moduli"):
            timed("scale_inference",
                  lambda: ctpasses.infer_scales(prog, self.params))
        poly = timed("lower_to_poly", lambda: lower_to_poly(prog))
        limb = timed("lower_to_limb", lambda: lower_to_limb(
            poly, self.params, opts.num_chips,
            chips_per_stream=opts.chips_per_stream,
            num_digits=opts.num_digits,
            regenerate_evalkeys=opts.regenerate_evalkeys,
        ))
        compiled = CompiledProgram(
            name=program.name,
            options=opts,
            ct_program=prog,
            poly_program=poly,
            limb_program=limb,
            pass_stats=ks_pass.stats,
            compile_stats=stats,
            params=self.params,
        )
        if emit_isa:
            from .isa.codegen import abstract_streams, allocate_streams

            streams = timed("codegen", lambda: abstract_streams(
                limb, opts.num_chips))
            compiled.isa = timed("regalloc", lambda: allocate_streams(
                *streams, opts.registers_per_chip))
        stats.total_seconds = clock() - started
        stats.counters = {
            "ct_ops": len(prog.ops),
            "poly_ops": len(poly.ops),
            "limb_ops": len(limb.opcodes),
            "isa_instructions": compiled.instruction_count,
            "keyswitches": ks_pass.stats.keyswitches,
        }
        return compiled

    # ------------------------------------------------------------------ #

    def _expand_bootstraps(self, program: CinnamonProgram) -> CinnamonProgram:
        if any(op.opcode == "bootstrap" for op in program.ops):
            from .ir.bootstrap_graph import expand_bootstraps

            return expand_bootstraps(program, self.params,
                                     plan=self.options.bootstrap_plan)
        return program

