"""Golden identity of the compiler back-end (limb IR -> ISA -> cycles).

The pins in ``codegen_golden.json`` must keep passing unmodified: every
compile below has to produce byte-identical assembly text (opcode,
registers *and* attrs), the same content digest, the same allocator
statistics, IR counters and simulated cycles, and a limb program that
``verify_limb_program`` accepts.  The first five cases were recorded on
the commit *before* the limb IR and the ISA streams became columnar
(PR 16); the keyswitch-policy cases (``cifher_*``, ``input_broadcast_*``,
``cinnamon_2x2_c4``) on the commit before the limb lowering's keyswitch
expanders became one skeleton (PR 22, recorded at 59ba347).

The register-starved case (HELR on one chip with 16 registers) exercises
spill stores, spill reloads and ``ld`` rematerialisation; ``vprng`` values
are consumed right where they are generated in every program the
lowering emits, so their rematerialisation is pinned by
``test_regalloc.py`` and the differential oracle instead.

``cold_compile_cycles`` / ``cold_compile_stream_sha256`` hold the per-pair
cycles and stream hashes of the contract benchmark's ``cold_compile``
workload (copied from a run's ``detail.pairs``); CI's
``cold-compile-identity`` step (``.github/workflows/tests.yml``) compares
a run against them.

Recording.  ``--record`` pins only the cases the file does not hold yet
and leaves every existing entry byte-for-byte alone, so adding a case can
never re-baseline the others; ``--record --all`` re-records everything
(only when a PR *means* to change the streams)::

    PYTHONPATH=src python tests/core/test_codegen_golden.py --record
    PYTHONPATH=src python tests/core/test_codegen_golden.py --record --all
"""

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.core import CompilerDriver, CompilerOptions
from repro.core.dsl import CinnamonProgram, StreamPool
from repro.core.ir.bootstrap_graph import bsgs_matmul_ops
from repro.core.ir.limb_ir import L_COMM, L_MOV, LimbLowering
from repro.core.ir.verifier import verify_limb_program
from repro.core.isa.encoding import disassemble
from repro.fhe import ArchParams
from repro.trust import artifact_digest
from repro.workloads import SMALL_BOOTSTRAP_PLAN, bootstrap_program, nn_mix
from repro.workloads.kernels import bootstrap_kernel, matmul_kernel

PINS_PATH = Path(__file__).with_name("codegen_golden.json")


def _helr():
    entry = nn_mix("small")["nn-helr"]
    return entry.build(), entry.params


def _bootstrap():
    return bootstrap_program(), ArchParams(max_level=24)


def _matmul():
    return matmul_kernel("golden", 8, 8), ArchParams(max_level=16)


def _small_bootstrap():
    return (bootstrap_kernel(SMALL_BOOTSTRAP_PLAN, entry_level=2),
            ArchParams(max_level=SMALL_BOOTSTRAP_PLAN.top_level))


def _two_streams():
    """Two streams of a matmul plus a rotate-sum; stream 1's sum also takes
    stream 0's input as its zero-rotation member, so the fused lowering
    has to move limbs between the two chip groups."""
    prog = CinnamonProgram("k-golden-2x2", level=8)
    inputs = {}

    def stream_fn(stream_id: int):
        x = inputs[stream_id] = prog.input(f"x{stream_id}")
        summed = x.rotate(1) + x.rotate(2)
        if stream_id == 1:
            summed = x.rotate(4) + x.rotate(8) + inputs[0]
        prog.output(f"s{stream_id}", summed)
        prog.output(f"y{stream_id}", bsgs_matmul_ops(
            prog, x * x, 8, f"golden_w{stream_id}"))

    StreamPool(prog, 2, stream_fn)
    return prog, ArchParams(max_level=16)


#: name -> (program + params builder, compiler options)
CASES = {
    "helr_c4": (_helr, dict(machine="cinnamon_4")),
    "bootstrap_c1": (_bootstrap, dict(machine="cinnamon_1")),
    "bootstrap_c4": (_bootstrap, dict(machine="cinnamon_4")),
    "matmul_c2": (_matmul, dict(num_chips=2)),
    "helr_starved_c1": (_helr, dict(num_chips=1, registers_per_chip=16)),
    "cifher_c4": (_small_bootstrap,
                  dict(num_chips=4, keyswitch_policy="cifher")),
    "cifher_unbatched_c4": (_matmul, dict(
        num_chips=4, keyswitch_policy="cifher", enable_batching=False)),
    "input_broadcast_c4": (_small_bootstrap, dict(
        num_chips=4, keyswitch_policy="input_broadcast")),
    "input_broadcast_unbatched_c4": (_matmul, dict(
        num_chips=4, keyswitch_policy="input_broadcast",
        enable_batching=False)),
    "cinnamon_2x2_c4": (_two_streams,
                        dict(num_chips=4, chips_per_stream=2)),
}


def compile_case(name: str):
    build, options = CASES[name]
    program, params = build()
    return CompilerDriver(params, CompilerOptions(**options)).compile(
        program)


def observe(compiled) -> dict:
    isa = compiled.isa
    return {
        "disassemble_sha256": hashlib.sha256(
            disassemble(isa).encode()).hexdigest(),
        "artifact_digest": artifact_digest(compiled),
        "alloc_stats": {
            str(chip): [stats.spill_stores, stats.reloads,
                        stats.peak_registers]
            for chip, stats in sorted(isa.alloc_stats.items())
        },
        "counters": dict(compiled.compile_stats.counters),
        "cycles": compiled.simulate().cycles,
    }


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())["cases"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_backend_is_bit_identical_to_the_pins(name, pins):
    compiled = compile_case(name)
    assert verify_limb_program(compiled.limb_program) == \
        compiled.compile_stats.counters["limb_ops"]
    assert observe(compiled) == pins[name]


def test_starved_case_spills_reloads_and_rematerialises(pins):
    spill_stores, reloads, peak = pins["helr_starved_c1"]["alloc_stats"]["0"]
    assert spill_stores > 0 and reloads > spill_stores and peak == 16


def expander_paths(compiled) -> Counter:
    """Which keyswitch-expansion paths a compile took, read off the limb
    ops each keyswitching polynomial op lowered to (a span of op ids)."""
    options = compiled.options
    lowering = LimbLowering(
        compiled.poly_program, compiled.params, options.num_chips,
        options.chips_per_stream, options.num_digits,
        options.regenerate_evalkeys)
    out = lowering.out
    paths = Counter()
    for op in lowering.poly.ops:
        start = len(out.opcodes)
        getattr(lowering, f"_lower_{op.opcode}")(op)
        span = range(start, len(out.opcodes))
        if not span or op.opcode not in ("pks", "protsum"):
            continue
        comms = [out.attrs[i] for i in span if out.opcodes[i] == L_COMM]
        if op.opcode == "protsum":
            zero = any(r % compiled.params.slot_count == 0
                       for r in op.attrs["rotations"])
            paths["rotate_sum+zero" if zero else "rotate_sum"] += 1
            paths["aggregate"] += sum(
                c["kind"] == "aggregate" for c in comms)
            paths["rotate_sum_lmov"] += sum(
                out.opcodes[i] == L_MOV for i in span)
            continue
        algorithm = op.attrs["algorithm"]
        multi_chip = len(lowering.group(op.stream)) > 1
        if op.attrs["batch"] is not None and op.attrs["galois"] is not None:
            # Every member of a hoisted batch but the first re-uses the
            # batch's mod-up: no input broadcast of its own.
            own_modup = len(comms) == (3 if algorithm == "cifher" else 1)
            paths[f"{algorithm}:hoisted"
                  + (":first" if own_modup or not multi_chip else "")] += 1
        else:
            paths[f"{algorithm}:unhoisted"] += 1
        if algorithm == "cifher" and multi_chip:
            # CiFHER's tail: one extension-limb broadcast per component.
            assert sum(c["tags"][0].startswith("e") for c in comms) == 2
            paths["cifher_tail"] += 1
    return paths


def test_the_pinned_cases_reach_every_expander_path():
    paths = Counter()
    for name in ("helr_c4", "cifher_c4", "cifher_unbatched_c4",
                 "input_broadcast_c4", "input_broadcast_unbatched_c4",
                 "cinnamon_2x2_c4"):
        paths += expander_paths(compile_case(name))
    for path in ("input_broadcast:hoisted:first", "input_broadcast:hoisted",
                 "input_broadcast:unhoisted", "cifher:hoisted:first",
                 "cifher:hoisted", "cifher:unhoisted", "cifher_tail",
                 "rotate_sum", "rotate_sum+zero", "aggregate",
                 "rotate_sum_lmov"):
        assert paths[path] > 0, (path, dict(paths))


if __name__ == "__main__":
    if sys.argv[1:] not in (["--record"], ["--record", "--all"]):
        sys.exit(__doc__)
    recorded = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
    cases = recorded.setdefault("cases", {})
    for name in sorted(CASES):
        if "--all" in sys.argv or name not in cases:
            cases[name] = observe(compile_case(name))
            print(f"recorded {name}")
    PINS_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
