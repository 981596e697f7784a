"""The `repro.compile()` facade, machine-spec unification, and the
deprecated legacy entry points."""

import warnings

import numpy as np
import pytest

import repro
from repro.core.compiler import CompilerOptions
from repro.core.dsl.program import CinnamonProgram
from repro.fhe import ArchParams
from repro.sim.config import (
    CINNAMON_4,
    CINNAMON_M,
    MachineConfig,
    resolve_machine,
)

PARAMS = ArchParams(max_level=6)


def build_program(name="facade"):
    prog = CinnamonProgram(name, level=6)
    a, b = prog.input("a"), prog.input("b")
    prog.output("y", a * b + a.rotate(1))
    return prog


class TestResolveMachine:
    def test_passthrough_and_int(self):
        assert resolve_machine(CINNAMON_4) is CINNAMON_4
        assert resolve_machine(4) is CINNAMON_4
        assert resolve_machine(None, default_chips=4) is CINNAMON_4

    def test_names(self):
        assert resolve_machine("cinnamon_4") is CINNAMON_4
        assert resolve_machine("Cinnamon-4") is CINNAMON_4
        assert resolve_machine("CINNAMON_M") is CINNAMON_M
        assert resolve_machine("4") is CINNAMON_4

    def test_nonstandard_size(self):
        machine = resolve_machine("cinnamon_6")
        assert isinstance(machine, MachineConfig)
        assert machine.num_chips == 6

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="unknown machine"):
            resolve_machine("cinnamon_x")
        with pytest.raises(TypeError):
            resolve_machine(3.5)
        with pytest.raises(ValueError):
            resolve_machine(None)

    def test_options_machine_replaces_numchips_duplication(self):
        opts = CompilerOptions(machine="cinnamon_8")
        assert opts.num_chips == 8
        assert opts.registers_per_chip == CINNAMON_4.chip.registers
        assert opts.machine.name == "Cinnamon-8"


class TestFacade:
    def test_compile_and_simulate_by_name(self):
        compiled = repro.compile(build_program("facade-name"), PARAMS,
                                 machine="cinnamon_4")
        assert compiled.options.num_chips == 4
        result = compiled.simulate("cinnamon_4")
        assert result.machine == "Cinnamon-4"
        assert result.cycles > 0

    def test_simulate_defaults_to_compile_machine(self):
        compiled = repro.compile(build_program("facade-default"), PARAMS,
                                 machine=2)
        assert compiled.simulate().machine == "Cinnamon-2"

    def test_facade_uses_default_session_cache(self):
        before = repro.default_session().cache_stats.memory_hits
        repro.compile(build_program("facade-cached"), PARAMS, machine=2)
        repro.compile(build_program("facade-cached"), PARAMS, machine=2)
        assert repro.default_session().cache_stats.memory_hits > before

    def test_explicit_session_is_honoured(self):
        session = repro.CinnamonSession()
        compiled = repro.compile(build_program("facade-own"), PARAMS,
                                 machine=2, session=session)
        assert session.cache_stats.stores == 1
        assert compiled.cache_key is not None

    def test_emulate_convenience_matches_evaluator(self, small_context,
                                                   small_evaluator, rng):
        params = small_context.params
        prog = CinnamonProgram("facade-emulate", level=params.max_level)
        a, b = prog.input("x"), prog.input("y")
        prog.output("out", a * b + a.rotate(1))
        compiled = repro.compile(prog, params, machine=2)

        x = rng.uniform(-1, 1, params.slot_count)
        y = rng.uniform(-1, 1, params.slot_count)
        ct_x = small_context.encrypt_values(x)
        ct_y = small_context.encrypt_values(y)
        outputs = compiled.emulate({"x": ct_x, "y": ct_y},
                                   context=small_context)
        decrypted = small_context.decrypt_values(outputs["out"]).real
        expected = x * y + np.roll(x, -1)
        assert np.max(np.abs(decrypted - expected)) < 1e-3


class TestDeprecatedEntryPoints:
    def test_engine_does_not_warn(self):
        from repro.sim import SimulatorEngine

        compiled = repro.compile(build_program("engine-sim"), PARAMS,
                                 machine=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            SimulatorEngine("cinnamon_2").run(compiled.isa)
