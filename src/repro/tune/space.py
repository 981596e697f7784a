"""The typed configuration search space of the autotuner.

A :class:`SearchSpace` is an ordered set of :class:`Axis` objects (one
per tunable knob) plus validity constraints; enumerating it yields
:class:`Candidate` assignments that translate into
:class:`~repro.core.compiler.CompilerOptions` overrides and a simulation
machine.  The default space (:func:`default_space`) covers the knobs the
paper sweeps by hand: the keyswitch policy and batching switch of
Section 7.3, ``num_digits`` (the scheme's dnum), ``chips_per_stream``
(program-level parallelism), the register-file allocation budget, and —
optionally — Figure 16's resource-scaled machine variants.

Everything in an assignment is JSON-serializable so candidates round-trip
through the :class:`~repro.tune.db.TuningDB` unchanged; the machine axis
uses :class:`MachineVariant` (a named base machine plus an optional
``resource x factor`` scaling) rather than raw ``MachineConfig`` objects
for exactly that reason.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.compiler import CompilerOptions
from ..core.ir.passes import (
    KEYSWITCH_POLICIES,
    KS_SEQUENTIAL,
    normalize_keyswitch_policy,
)
from ..sim.config import MachineConfig, machine_with, resolve_machine


@dataclass(frozen=True)
class MachineVariant:
    """One point on the machine axis, serializable by name.

    ``base`` is any *named* spec :func:`repro.sim.config.resolve_machine`
    understands; ``resource``/``factor`` optionally scale one chip
    resource via :func:`repro.sim.config.machine_with` (Figure 16's
    sweep axes).  The variant resolves lazily so a DB entry written on
    one process reconstructs the exact machine in another.
    """

    base: str
    resource: Optional[str] = None
    factor: float = 1.0

    @classmethod
    def of(cls, machine, resource: Optional[str] = None,
           factor: float = 1.0) -> "MachineVariant":
        """Variant for any machine spec (named config, name, or count)."""
        if isinstance(machine, MachineVariant):
            base = machine.base
        elif isinstance(machine, MachineConfig):
            base = machine.name
        else:
            base = str(resolve_machine(machine).name)
        return cls(base=base, resource=resource, factor=factor)

    def resolve(self) -> MachineConfig:
        resolved = resolve_machine(self.base)
        if self.resource is None or self.factor == 1.0:
            return resolved
        return machine_with(resolved, self.resource, self.factor)

    @property
    def label(self) -> str:
        """Stable human-readable identity (also the DB machine key)."""
        return self.resolve().name

    def as_dict(self) -> dict:
        out = {"base": self.base}
        if self.resource is not None and self.factor != 1.0:
            out["resource"] = self.resource
            out["factor"] = self.factor
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MachineVariant":
        return cls(base=data["base"], resource=data.get("resource"),
                   factor=float(data.get("factor", 1.0)))


@dataclass(frozen=True)
class Axis:
    """One tunable dimension: a name and its finite value set."""

    name: str
    values: Tuple

    def __post_init__(self):
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")


#: Assignment axes that map straight onto ``CompilerOptions`` fields.
_OPTION_AXES = ("keyswitch_policy", "enable_batching", "num_digits",
                "chips_per_stream", "registers_per_chip")


@dataclass(frozen=True)
class Candidate:
    """One full assignment of every axis, hashable and JSON-stable."""

    items: Tuple[Tuple[str, object], ...]

    @classmethod
    def of(cls, **assignment) -> "Candidate":
        return cls(tuple(sorted(assignment.items())))

    @property
    def config(self) -> Dict[str, object]:
        return dict(self.items)

    @property
    def machine(self) -> MachineVariant:
        variant = self.config.get("machine")
        if variant is None:
            raise KeyError("candidate has no machine axis")
        return variant

    def key(self) -> str:
        """Canonical JSON identity (dedup + deterministic tie-breaks)."""
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))

    def options(self, base: Optional[CompilerOptions] = None
                ) -> CompilerOptions:
        """``base`` options re-targeted at this candidate.

        The machine axis contributes its chip count only (the compiler
        needs the layout); ``registers_per_chip`` stays the axis value so
        the register budget can be tuned *below* the physical file.  The
        simulation machine itself comes from :meth:`MachineVariant.resolve`.
        """
        base = base or CompilerOptions()
        overrides = {name: value for name, value in self.items
                     if name in _OPTION_AXES}
        machine = self.config.get("machine")
        if machine is not None:
            overrides["num_chips"] = machine.resolve().num_chips
        return replace(base, machine=None, **overrides)

    def as_dict(self) -> dict:
        """JSON form (machine variant flattened to its dict)."""
        out = {}
        for name, value in self.items:
            out[name] = (value.as_dict()
                         if isinstance(value, MachineVariant) else value)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Candidate":
        assignment = dict(data)
        if isinstance(assignment.get("machine"), dict):
            assignment["machine"] = MachineVariant.from_dict(
                assignment["machine"])
        return cls.of(**assignment)

    def describe(self) -> str:
        """Compact one-line summary for leaderboards."""
        parts = []
        for name, value in self.items:
            if isinstance(value, MachineVariant):
                parts.append(f"machine={value.label}")
            else:
                parts.append(f"{name}={value}")
        return " ".join(parts)


Constraint = Callable[[Dict[str, object]], bool]


class SearchSpace:
    """Axes plus validity constraints, enumerable and sampleable."""

    def __init__(self, axes: Sequence[Axis],
                 constraints: Sequence[Constraint] = ()):
        names = [axis.name for axis in axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names in {names}")
        self.axes: List[Axis] = list(axes)
        self.constraints: List[Constraint] = list(constraints)

    @property
    def size(self) -> int:
        """Cartesian-product size, before constraint pruning."""
        total = 1
        for axis in self.axes:
            total *= len(axis.values)
        return total

    def is_valid(self, assignment: Dict[str, object]) -> bool:
        return all(check(assignment) for check in self.constraints)

    def enumerate(self) -> List[Candidate]:
        """Every constraint-satisfying candidate, deterministic order."""
        out = []
        names = [axis.name for axis in self.axes]
        for combo in itertools.product(*(axis.values for axis in self.axes)):
            assignment = dict(zip(names, combo))
            if self.is_valid(assignment):
                out.append(Candidate.of(**assignment))
        return out

    def sample(self, n: int, rng: random.Random) -> List[Candidate]:
        """``n`` distinct valid candidates (all of them if fewer exist)."""
        candidates = self.enumerate()
        if n >= len(candidates):
            return candidates
        return rng.sample(candidates, n)


def _divisors(n: int) -> Tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def default_space(machine, *, params=None, tune_machine: bool = False,
                  extra_constraints: Sequence[Constraint] = ()
                  ) -> SearchSpace:
    """The standard (CompilerOptions x machine) space for one target.

    ``machine`` is the deployment target (any resolvable spec).  With
    ``tune_machine=True`` the machine axis additionally sweeps Figure
    16's halved/doubled resource variants — capacity-planning mode.
    ``params`` (when given) contributes the parameter set's own digit
    count to the ``num_digits`` axis.  ``extra_constraints`` append
    per-workload validity rules.
    """
    variant = MachineVariant.of(machine)
    resolved = variant.resolve()
    num_chips = resolved.num_chips
    physical_registers = resolved.chip.registers

    if num_chips == 1:
        # Parallel keyswitch dataflows are meaningless on one chip.
        policies: Tuple[str, ...] = (KS_SEQUENTIAL,)
    else:
        policies = tuple(KEYSWITCH_POLICIES)

    digits = {2, 3, 4}
    if params is not None and getattr(params, "num_digits", None):
        digits.add(int(params.num_digits))
    register_values = sorted({max(64, physical_registers // 2),
                              max(64, (physical_registers * 3) // 4),
                              physical_registers})

    machines: List[MachineVariant] = [variant]
    if tune_machine:
        from ..sim.config import MACHINE_RESOURCES

        for resource in MACHINE_RESOURCES:
            for factor in (0.5, 2.0):
                machines.append(MachineVariant.of(variant, resource, factor))

    axes = [
        Axis("keyswitch_policy", policies),
        Axis("enable_batching", (True, False)),
        Axis("num_digits", tuple(sorted(digits))),
        Axis("chips_per_stream", _divisors(num_chips)),
        Axis("registers_per_chip", tuple(register_values)),
        Axis("machine", tuple(machines)),
    ]

    def _canonical_sequential(assignment: Dict[str, object]) -> bool:
        # Batching is a no-op under the sequential policy; keep only the
        # canonical spelling so the space holds no duplicate configs.
        if assignment.get("keyswitch_policy") == KS_SEQUENTIAL:
            return assignment.get("enable_batching", True) is True
        return True

    def _registers_fit(assignment: Dict[str, object]) -> bool:
        # A scaled-down register file cannot host the full budget.
        m = assignment.get("machine")
        regs = assignment.get("registers_per_chip")
        if m is None or regs is None:
            return True
        return regs <= m.resolve().chip.registers

    constraints = [_canonical_sequential, _registers_fit,
                   *extra_constraints]
    return SearchSpace(axes, constraints)


def default_candidate(machine, options: Optional[CompilerOptions] = None,
                      params=None) -> Candidate:
    """The stock-configuration candidate for ``machine``.

    Captures what :class:`CompilerOptions` would do untouched — the
    baseline every search must beat (or match) and the config the
    leaderboard reports speedups against.
    """
    options = options or CompilerOptions()
    variant = MachineVariant.of(machine)
    resolved = variant.resolve()
    num_digits = options.num_digits
    if num_digits is None:
        num_digits = getattr(params, "num_digits", None) or 3
    chips_per_stream = options.chips_per_stream or resolved.num_chips
    return Candidate.of(
        keyswitch_policy=normalize_keyswitch_policy(
            options.keyswitch_policy),
        enable_batching=bool(options.enable_batching),
        num_digits=int(num_digits),
        chips_per_stream=int(chips_per_stream),
        registers_per_chip=int(min(options.registers_per_chip,
                                   resolved.chip.registers)),
        machine=variant,
    )
