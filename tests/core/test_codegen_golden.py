"""Golden identity of the compiler back-end (limb IR -> ISA -> cycles).

The pins in ``codegen_golden.json`` were recorded on the commit *before*
the limb IR and the ISA streams became columnar (PR 16) and must keep
passing unmodified: every compile below has to produce byte-identical
assembly text (opcode, registers *and* attrs), the same content digest,
the same allocator statistics, IR counters and simulated cycles.

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

Re-record (only when a PR *means* to change the streams)::

    PYTHONPATH=src python tests/core/test_codegen_golden.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core import CompilerDriver, CompilerOptions
from repro.core.isa.encoding import disassemble
from repro.fhe import ArchParams
from repro.trust import artifact_digest
from repro.workloads import bootstrap_program, nn_mix
from repro.workloads.kernels import matmul_kernel

PINS_PATH = Path(__file__).with_name("codegen_golden.json")


def _helr():
    entry = nn_mix("small")["nn-helr"]
    return entry.build(), entry.params


def _bootstrap():
    return bootstrap_program(), ArchParams(max_level=24)


def _matmul():
    return matmul_kernel("golden", 8, 8), ArchParams(max_level=16)


#: name -> (program + params builder, compiler options)
CASES = {
    "helr_c4": (_helr, dict(machine="cinnamon_4")),
    "bootstrap_c1": (_bootstrap, dict(machine="cinnamon_1")),
    "bootstrap_c4": (_bootstrap, dict(machine="cinnamon_4")),
    "matmul_c2": (_matmul, dict(num_chips=2)),
    "helr_starved_c1": (_helr, dict(num_chips=1, registers_per_chip=16)),
}


def observe(name: str) -> dict:
    build, options = CASES[name]
    program, params = build()
    compiled = CompilerDriver(params, CompilerOptions(**options)).compile(
        program)
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
    assert observe(name) == pins[name]


def test_starved_case_spills_reloads_and_rematerialises(pins):
    spill_stores, reloads, peak = pins["helr_starved_c1"]["alloc_stats"]["0"]
    assert spill_stores > 0 and reloads > spill_stores and peak == 16


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    recorded = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
    recorded["cases"] = {name: observe(name) for name in sorted(CASES)}
    PINS_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
