"""Limb ops with equal attrs share one dict, and nothing writes to it.

``lower_to_limb`` passes one prebuilt attrs dict to every op of one kind
at one limb position (docs/compiler.md, section 6), and the instruction
streams refer to the same dicts.  So a write anywhere downstream would
change many ops at once: these tests run every consumer of a compiled
artifact and check that every dict still holds what the lowering put in
it, and that the sharing keeps happening (counted, not timed).
"""

import copy

import numpy as np
import pytest

from repro.core import CompilerDriver, CinnamonProgram, CompilerOptions
from repro.core.isa.codegen import abstract_streams, allocate_streams
from repro.core.isa.encoding import disassemble
from repro.fhe import ArchParams, CKKSContext, make_params
from repro.runtime.cache import CompileCache
from repro.trust import artifact_digest
from repro.workloads import bootstrap_program


def _program():
    prog = CinnamonProgram("shared", level=5)
    a, b = prog.input("a"), prog.input("b")
    prog.output("y", (a * b).rotate(1) + a)   # a relin and a rotation
    return prog


def attrs_per_op(limb) -> float:
    """Distinct attrs objects per limb op."""
    return len({id(attrs) for attrs in limb.attrs}) / len(limb.attrs)


@pytest.fixture(scope="module")
def env():
    params = make_params(ring_degree=64, levels=5, prime_bits=28,
                         num_digits=2)
    return params, CKKSContext(params, seed=21)


def test_no_consumer_writes_to_the_shared_attrs(env, tmp_path):
    params, ctx = env
    opts = CompilerOptions(num_chips=2)
    compiled = CompilerDriver(params, opts).compile(_program(),
                                                    emit_isa=False)
    limb = compiled.limb_program
    assert attrs_per_op(limb) < 1   # the dicts are shared
    snapshot = [(attrs, copy.deepcopy(list(attrs.items())))
                for attrs in limb.attrs]

    compiled.isa = allocate_streams(*abstract_streams(limb, 2),
                                    opts.registers_per_chip)
    cycles = compiled.simulate().cycles
    rng = np.random.default_rng(3)
    inputs = {name: ctx.encrypt_values(rng.uniform(-1, 1, params.slot_count))
              for name in ("a", "b")}
    compiled.emulate(inputs, context=ctx)
    digest = artifact_digest(compiled)
    for stream in compiled.isa.streams.values():
        for pc in range(len(stream)):
            stream.attrs_at(pc)
        stream.operation_attrs()
    text = disassemble(compiled.isa)

    CompileCache(cache_dir=tmp_path).put("shared", compiled)
    restored, source = CompileCache(cache_dir=tmp_path).get("shared")
    assert source == "disk"
    assert artifact_digest(restored) == digest
    assert disassemble(restored.isa) == text
    assert restored.simulate().cycles == cycles
    assert attrs_per_op(restored.limb_program) == attrs_per_op(limb)

    changed = [i for i, (attrs, items) in enumerate(snapshot)
               if list(attrs.items()) != items]
    assert not changed, f"{len(changed)} attrs dicts were written to"


def test_keyswitch_heavy_lowering_shares_attrs():
    """A keyswitch-heavy compile holds at most one attrs object per three
    limb ops (0.23 here): only loads, PRNG ops, stores and collectives
    get a dict of their own."""
    compiled = CompilerDriver(
        ArchParams(max_level=24), CompilerOptions(machine="cinnamon_4"),
    ).compile(bootstrap_program(), emit_isa=False)
    limb = compiled.limb_program
    assert compiled.compile_stats.counters["keyswitches"] > 0
    assert attrs_per_op(limb) <= 1 / 3
