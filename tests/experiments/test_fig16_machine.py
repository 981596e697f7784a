"""Unit tests for the resource-scaling helper behind Figure 16.

The helper is the public :func:`repro.sim.config.machine_with`, shared
with the autotuner's machine axis.
"""

import pytest

from repro.experiments.fig16_sensitivity import RESOURCES
from repro.sim.config import CINNAMON_4, MACHINE_RESOURCES, machine_with


class TestMachineScaling:
    def test_register_file(self):
        scaled = machine_with(CINNAMON_4, "register_file", 2.0)
        assert scaled.chip.register_file_mb == 112.0
        assert CINNAMON_4.chip.register_file_mb == 56.0  # original intact

    def test_link_bandwidth(self):
        scaled = machine_with(CINNAMON_4, "link_bandwidth", 0.5)
        assert scaled.chip.link_gbps == 256.0

    def test_memory_bandwidth(self):
        scaled = machine_with(CINNAMON_4, "memory_bandwidth", 2.0)
        assert scaled.chip.hbm_gbps == 4096.0

    def test_vector_width(self):
        scaled = machine_with(CINNAMON_4, "vector_width", 0.5)
        assert scaled.chip.lanes_per_cluster == 128
        # Halving the lanes doubles each op's occupancy.
        assert scaled.chip.occupancy("ntt") == \
            2 * CINNAMON_4.chip.occupancy("ntt")

    def test_accepts_named_specs(self):
        scaled = machine_with("cinnamon_4", "link_bandwidth", 2.0)
        assert scaled.num_chips == 4
        assert scaled.chip.link_gbps == 1024.0

    def test_scaled_machine_is_renamed(self):
        scaled = machine_with(CINNAMON_4, "memory_bandwidth", 0.5)
        assert scaled.name == "Cinnamon-4[memory_bandwidthx0.5]"

    def test_identity_factor_returns_stock_config(self):
        assert machine_with(CINNAMON_4, "vector_width", 1.0) is CINNAMON_4

    def test_unknown_resource(self):
        with pytest.raises(ValueError, match="register_file"):
            machine_with(CINNAMON_4, "quantumness", 2.0)

    def test_nonpositive_factor(self):
        with pytest.raises(ValueError):
            machine_with(CINNAMON_4, "link_bandwidth", 0.0)

    def test_resource_list_complete(self):
        assert set(RESOURCES) == {"register_file", "link_bandwidth",
                                  "memory_bandwidth", "vector_width"}
        assert tuple(RESOURCES) == MACHINE_RESOURCES
