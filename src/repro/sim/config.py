"""Machine configurations (Section 5 / 6.1).

A Cinnamon chip: four 256-lane compute clusters at 1 GHz, a 56 MB vector
register file (224 limb registers at N = 64K), four HBM2E stacks totalling
2 TB/s, and two 256 GB/s network PHYs.  ``CINNAMON_M`` is the scaled-up
monolithic chip of Section 6.1 (224 MB register file, 8 clusters, doubled
NTT/transpose/BCU resources).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Union


@dataclass(frozen=True)
class ChipConfig:
    """Per-chip microarchitectural parameters."""

    name: str = "cinnamon"
    clock_ghz: float = 1.0
    clusters: int = 4
    lanes_per_cluster: int = 256
    vector_length: int = 65536          # N: elements per limb register
    word_bytes: int = 4                  # 28-bit words in 4 B lanes
    register_file_mb: float = 56.0
    hbm_gbps: float = 2048.0             # 4 x 512 GB/s HBM2E
    link_gbps: float = 512.0             # 2 x 256 GB/s network PHYs
    # Functional-unit counts (chip-wide; Table 1's 2x add/mul + 1x rest).
    fu_counts: Dict[str, int] = field(default_factory=lambda: {
        "ntt": 1, "auto": 1, "add": 2, "mul": 2, "bconv": 1, "rsv": 1,
        "prng": 2,
    })
    bconv_lanes_per_cluster: int = 128   # Section 4.7's space-optimized BCU
    bconv_max_inputs: int = 13
    pipeline_latency: int = 40           # fill latency of the vector FUs
    issue_width: int = 4

    @property
    def total_lanes(self) -> int:
        return self.clusters * self.lanes_per_cluster

    @property
    def limb_bytes(self) -> int:
        return self.vector_length * self.word_bytes

    @property
    def registers(self) -> int:
        """Limb registers that fit in the register file."""
        return int(self.register_file_mb * 2**20 // self.limb_bytes)

    def occupancy(self, fu: str) -> int:
        """Cycles one limb occupies a unit of the given FU class."""
        if fu == "bconv":
            lanes = self.clusters * self.bconv_lanes_per_cluster
        else:
            lanes = self.total_lanes
        return max(1, self.vector_length // lanes)

    @property
    def hbm_bytes_per_cycle(self) -> float:
        return self.hbm_gbps / self.clock_ghz

    @property
    def link_bytes_per_cycle(self) -> float:
        return self.link_gbps / self.clock_ghz

    def scaled(self, **changes) -> "ChipConfig":
        return replace(self, **changes)


@dataclass(frozen=True)
class MachineConfig:
    """A scale-out machine: chips plus interconnect topology."""

    name: str
    num_chips: int
    chip: ChipConfig
    topology: str = "ring"   # "ring" (<= 8 chips) or "switch"
    hop_latency: int = 50    # per-hop network latency in cycles

    def __post_init__(self):
        if self.topology not in ("ring", "switch"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.topology == "ring" and self.num_chips > 8:
            raise ValueError("ring topology supports at most eight chips "
                             "(use the switch for larger machines)")

    @property
    def collective_latency(self) -> int:
        if self.num_chips == 1:
            return 0
        if self.topology == "ring":
            return self.hop_latency * (self.num_chips // 2)
        return 2 * self.hop_latency

    def scaled(self, **chip_changes) -> "MachineConfig":
        return replace(self, chip=self.chip.scaled(**chip_changes))


_CHIP = ChipConfig()

CINNAMON_1 = MachineConfig("Cinnamon-1", 1, _CHIP)
CINNAMON_4 = MachineConfig("Cinnamon-4", 4, _CHIP)
CINNAMON_8 = MachineConfig("Cinnamon-8", 8, _CHIP)
CINNAMON_12 = MachineConfig("Cinnamon-12", 12, _CHIP, topology="switch")

# Section 6.1's monolithic comparison chip: one big die with roughly the
# resources of four Cinnamon chips (224 MB RF, 8 clusters, 2x NTT and
# transpose units, wider BCU, 5x add/mul).
CINNAMON_M_CHIP = ChipConfig(
    name="cinnamon-m",
    clusters=8,
    register_file_mb=224.0,
    hbm_gbps=4096.0,
    fu_counts={"ntt": 2, "auto": 2, "add": 5, "mul": 5, "bconv": 2,
               "rsv": 2, "prng": 4},
    bconv_lanes_per_cluster=128,
    bconv_max_inputs=32,
)
CINNAMON_M = MachineConfig("Cinnamon-M", 1, CINNAMON_M_CHIP)


def config_for(num_chips: int) -> MachineConfig:
    """The standard configuration with ``num_chips`` Cinnamon chips."""
    presets = {1: CINNAMON_1, 4: CINNAMON_4, 8: CINNAMON_8, 12: CINNAMON_12}
    if num_chips in presets:
        return presets[num_chips]
    topology = "ring" if num_chips <= 8 else "switch"
    return MachineConfig(f"Cinnamon-{num_chips}", num_chips, _CHIP,
                         topology=topology)


#: Chip counts a machine can fall back through after losing a die — the
#: paper's deployable configurations, largest first.  Degraded-mode
#: recompilation re-partitions limbs across the next chip count that fits
#: the survivors (12 chips with one dead -> 8, 8 -> 4, and so on).
DEGRADE_LADDER = (12, 8, 4, 2, 1)


def degraded_machine(machine, dead_chips: int = 1,
                     ladder=DEGRADE_LADDER) -> MachineConfig:
    """The machine a run falls back to after losing ``dead_chips`` dies.

    Picks the largest chip count on the ladder that the survivors can
    populate.  Raises :class:`ValueError` when none fits (the machine is
    out of spares entirely).
    """
    resolved = resolve_machine(machine)
    survivors = resolved.num_chips - dead_chips
    for chips in sorted(ladder, reverse=True):
        if chips <= survivors and chips < resolved.num_chips:
            return config_for(chips)
    raise ValueError(
        f"no degraded configuration fits {survivors} surviving chip(s) "
        f"of {resolved.name} (ladder {tuple(ladder)})")


#: Resources :func:`machine_with` can scale, in Figure 16's order.
MACHINE_RESOURCES = ("register_file", "link_bandwidth", "memory_bandwidth",
                     "vector_width")


def machine_with(machine, resource: str, factor: float) -> "MachineConfig":
    """``machine`` with one chip resource scaled by ``factor``.

    The resource axis of Figure 16's sensitivity sweep and of the
    autotuner's machine dimension (:mod:`repro.tune`): ``resource`` is one
    of :data:`MACHINE_RESOURCES`, ``machine`` is any spec
    :func:`resolve_machine` understands.  ``factor == 1.0`` returns the
    resolved machine unchanged; otherwise the result is renamed
    ``"<name>[<resource>x<factor>]"`` so traces and sim-cache keys
    distinguish it from the stock configuration.
    """
    resolved = resolve_machine(machine)
    if resource not in MACHINE_RESOURCES:
        raise ValueError(
            f"unknown resource {resource!r}; valid choices: "
            + ", ".join(repr(r) for r in MACHINE_RESOURCES))
    if factor <= 0:
        raise ValueError(f"resource factor must be positive, got {factor}")
    if factor == 1.0:
        return resolved
    chip = resolved.chip
    if resource == "register_file":
        scaled = chip.scaled(register_file_mb=chip.register_file_mb * factor)
    elif resource == "link_bandwidth":
        scaled = chip.scaled(link_gbps=chip.link_gbps * factor)
    elif resource == "memory_bandwidth":
        scaled = chip.scaled(hbm_gbps=chip.hbm_gbps * factor)
    else:  # vector_width
        lanes = int(chip.lanes_per_cluster * factor)
        if lanes < 1:
            raise ValueError(
                f"vector_width factor {factor} leaves no lanes per cluster")
        scaled = chip.scaled(lanes_per_cluster=lanes)
    return replace(resolved, chip=scaled,
                   name=f"{resolved.name}[{resource}x{factor:g}]")


MachineSpec = Union["MachineConfig", str, int, None]


def resolve_machine(machine: MachineSpec, *,
                    default_chips: int = None) -> MachineConfig:
    """Resolve any machine specification to a :class:`MachineConfig`.

    Accepted forms (the single spelling rule for compiler options, the
    simulator, and the runtime session):

    * a :class:`MachineConfig` — returned unchanged;
    * an ``int`` chip count — the standard machine of that size;
    * a name string: ``"cinnamon_4"`` / ``"Cinnamon-4"`` / ``"4"`` /
      ``"cinnamon_m"`` (case-insensitive, ``-``/``_`` interchangeable);
    * ``None`` — the standard machine with ``default_chips`` chips.
    """
    if machine is None:
        if default_chips is None:
            raise ValueError("no machine given and no default chip count")
        return config_for(default_chips)
    if isinstance(machine, MachineConfig):
        return machine
    if isinstance(machine, bool):
        raise TypeError("machine spec cannot be a bool")
    if isinstance(machine, int):
        return config_for(machine)
    if isinstance(machine, str):
        norm = machine.strip().lower().replace("_", "-")
        if norm in ("cinnamon-m", "m"):
            return CINNAMON_M
        if norm.startswith("cinnamon-"):
            norm = norm[len("cinnamon-"):]
        if norm.isdigit():
            return config_for(int(norm))
        raise ValueError(
            f"unknown machine name {machine!r} "
            "(expected e.g. 'cinnamon_4', 'cinnamon_m', or a chip count)")
    raise TypeError(f"cannot resolve a machine from {type(machine).__name__}")
