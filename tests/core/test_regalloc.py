"""Unit tests for Belady's-MIN register allocation."""

import pytest

from repro.core.isa.instructions import LD, ST
from repro.core.isa.regalloc import AbstractStream
from repro.core.isa.regalloc import allocate_registers as allocate_stream


def _op(defines=None, uses=(), opcode="vadd", **attrs):
    return opcode, defines, tuple(uses), attrs


def allocate_registers(entries, num_registers, load_symbols):
    """Feed a list of ``_op`` entries to the columnar allocator."""
    return allocate_stream(AbstractStream.from_entries(entries),
                           num_registers, load_symbols)


class TestBasicAllocation:
    def test_straight_line(self):
        entries = [
            _op(defines=0, opcode="ld", symbol="a"),
            _op(defines=1, opcode="ld", symbol="b"),
            _op(defines=2, uses=(0, 1)),
        ]
        out, stats = allocate_registers(entries, 16, {0: ("ld", "a"),
                                                      1: ("ld", "b")})
        assert len(out) == 3
        assert stats.spill_stores == 0
        assert stats.reloads == 0

    def test_registers_reused_after_death(self):
        entries = []
        symbols = {}
        for i in range(100):
            entries.append(_op(defines=i, opcode="ld", symbol=f"s{i}"))
            symbols[i] = ("ld", f"s{i}")
            if i > 0:
                entries.append(_op(defines=100 + i, uses=(i - 1, i)))
        out, stats = allocate_registers(entries, 16, symbols)
        regs = {ins.dest for ins in out if ins.dest is not None}
        assert max(regs) < 16
        assert stats.reloads == 0  # values die quickly; no pressure

    def test_too_few_registers_rejected(self):
        with pytest.raises(ValueError):
            allocate_registers([_op(defines=0, opcode="ld", symbol="x")],
                               4, {0: ("ld", "x")})


class TestSpilling:
    def _long_lived(self, count):
        """Many simultaneously-live loads, then uses in reverse order."""
        entries = []
        symbols = {}
        for i in range(count):
            entries.append(_op(defines=i, opcode="vntt", uses=()))
        # vntt without uses would be invalid; use computed chain instead.
        entries = []
        for i in range(count):
            entries.append(_op(defines=i, opcode="ld", symbol=f"v{i}"))
            symbols[i] = ("ld", f"v{i}")
        for i in range(count - 1, -1, -1):
            entries.append(_op(defines=count + i, uses=(i,)))
        return entries, symbols

    def test_rematerialization_for_loads(self):
        entries, symbols = self._long_lived(40)
        out, stats = allocate_registers(entries, 16, symbols)
        # Loaded values are rematerialized (re-loaded), never spill-stored.
        assert stats.reloads > 0
        assert stats.spill_stores == 0
        assert all(ins.opcode != ST for ins in out)

    def test_computed_values_spill(self):
        entries = [_op(defines=0, opcode="ld", symbol="x")]
        symbols = {0: ("ld", "x")}
        # Long chain of computed values, all used again at the end.
        n = 40
        for i in range(1, n):
            entries.append(_op(defines=i, uses=(i - 1,)))
        final_uses = tuple(range(n))
        for u in final_uses:
            entries.append(_op(defines=n + u, uses=(u,)))
        out, stats = allocate_registers(entries, 16, symbols)
        assert stats.spill_stores > 0
        assert any(ins.opcode == ST for ins in out)
        # Every spilled value gets reloaded before its later use.
        assert stats.reloads >= stats.spill_stores

    def test_belady_prefers_distant_values(self):
        """With pressure 1 over capacity, the evicted value must be the
        one used furthest in the future."""
        symbols = {i: ("ld", f"v{i}") for i in range(17)}
        entries = [_op(defines=i, opcode="ld", symbol=f"v{i}")
                   for i in range(17)]
        # v0 is used immediately; v16 is used last.
        entries.append(_op(defines=100, uses=(0, 1)))
        entries.append(_op(defines=101, uses=(16,)))
        out, stats = allocate_registers(entries, 16, symbols)
        reload_syms = [ins.attrs["symbol"] for ins in out
                       if ins.opcode == LD and
                       out.index(ins) > 16]
        # v0 must NOT be the reloaded one (it is needed right away).
        assert "v0" not in reload_syms

    def test_use_before_definition_rejected(self):
        with pytest.raises(RuntimeError):
            allocate_registers([_op(defines=1, uses=(0,))], 16, {})


class TestVprngRemat:
    def test_prng_values_rematerialize_as_vprng(self):
        symbols = {i: ("vprng", f"evk:{i}") for i in range(20)}
        entries = [_op(defines=i, opcode="vprng", symbol=f"evk:{i}")
                   for i in range(20)]
        for i in range(20):
            entries.append(_op(defines=50 + i, uses=(i,)))
        out, stats = allocate_registers(entries, 16, symbols)
        remats = [ins for ins in out[20:] if ins.opcode == "vprng"
                  and not ins.srcs]
        assert stats.reloads > 0
        assert any(ins.opcode == "vprng" for ins in out[20:])
        assert all(ins.opcode != LD for ins in out)  # regenerated, not loaded
