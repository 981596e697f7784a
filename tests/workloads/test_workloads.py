"""Tests for workload generators, schedules, and composition."""

import math

import pytest

from repro.core.ir.bootstrap_graph import BOOTSTRAP_13, BOOTSTRAP_21
from repro.fhe import ArchParams
from repro.core import CompilerDriver, CompilerOptions
from repro.sim.config import CINNAMON_4, CINNAMON_8, ChipConfig, MachineConfig
from repro.workloads import (
    KernelSpec,
    WorkloadSchedule,
    WorkloadTimer,
    baselines,
    bert_schedule,
    bootstrap_program,
    helr_schedule,
    resnet20_schedule,
)
from repro.workloads.kernels import (
    activation_kernel,
    bootstrap_kernel,
    elementwise_kernel,
    matmul_kernel,
)


class TestPrograms:
    def test_bootstrap_program_streams(self):
        prog = bootstrap_program(BOOTSTRAP_13, num_streams=2)
        assert prog.num_streams == 2
        assert prog.count("bootstrap") == 2
        assert len(prog.inputs) == 2

    def test_plans_differ(self):
        assert BOOTSTRAP_21.top_level > BOOTSTRAP_13.top_level
        assert BOOTSTRAP_21.output_level - 1 == 21
        assert BOOTSTRAP_13.output_level - 1 == 13

    def test_matmul_kernel_structure(self):
        prog = matmul_kernel("m", 16, 10)
        assert prog.count("rotate") > 0
        assert prog.count("mul_plain") == 16

    def test_activation_kernel_depth(self):
        prog = activation_kernel("act", 31, 12)
        out_level = prog.ops[prog.outputs["y"]].level
        consumed = 12 - out_level
        assert consumed <= 2 * math.ceil(math.log2(32)) + 2

    def test_elementwise_kernel(self):
        prog = elementwise_kernel("e", 3, 8)
        assert prog.count("mul") == 3

    def test_bootstrap_kernel_compiles(self):
        params = ArchParams(max_level=BOOTSTRAP_13.top_level)
        compiled = CompilerDriver(
            params, CompilerOptions(num_chips=4,
                                    bootstrap_plan=BOOTSTRAP_13)).compile(
            bootstrap_kernel(BOOTSTRAP_13), emit_isa=False)
        assert compiled.poly_program.keyswitch_count > 20


class TestSchedules:
    def test_resnet_schedule_counts(self):
        sched = resnet20_schedule()
        by_name = {k.name: k for k in sched.kernels}
        assert by_name["resnet-bootstrap"].count == 45
        assert not by_name["resnet-bootstrap"].parallel  # single ciphertext

    def test_helr_schedule_parallel(self):
        sched = helr_schedule()
        assert all(k.parallel for k in sched.kernels)

    def test_bert_schedule_bootstraps(self):
        sched = bert_schedule()
        total = sum(k.count for k in sched.kernels
                    if k.name.startswith("bert-bootstrap"))
        assert abs(total - 1400) <= 5
        by_name = {k.name: k for k in sched.kernels}
        assert by_name["bert-bootstrap-attention"].max_parallel == 6
        assert by_name["bert-bootstrap-gelu"].max_parallel == 12
        assert not by_name["bert-bootstrap-serial"].parallel

    def test_bert_parallel_fraction(self):
        sched = bert_schedule()
        parallel = sum(k.count for k in sched.kernels
                       if k.parallel and "bootstrap" in k.name)
        serial = sum(k.count for k in sched.kernels
                     if not k.parallel and "bootstrap" in k.name)
        assert 0.80 < parallel / (parallel + serial) < 0.90


class TestComposition:
    @pytest.fixture(scope="class")
    def tiny_schedule(self):
        """A cheap schedule using a small matmul kernel only."""
        return WorkloadSchedule(
            name="tiny",
            max_level=10,
            kernels=[
                KernelSpec("tiny-par",
                           lambda: matmul_kernel("tp", 8, 8),
                           count=8, parallel=True),
                KernelSpec("tiny-ser",
                           lambda: matmul_kernel("ts", 8, 8),
                           count=2, parallel=False),
            ],
        )

    def test_estimate_composes(self, tiny_schedule):
        timer = WorkloadTimer()
        est = timer.estimate(tiny_schedule, CINNAMON_4)
        assert est.seconds > 0
        assert set(est.kernel_seconds) == {"tiny-par", "tiny-ser"}
        assert est.seconds == pytest.approx(
            sum(est.kernel_seconds.values()))

    def test_parallel_kernels_scale_with_groups(self, tiny_schedule):
        timer = WorkloadTimer()
        e4 = timer.estimate(tiny_schedule, CINNAMON_4)
        e8 = timer.estimate(tiny_schedule, CINNAMON_8)
        # 8 parallel instances over 2 groups halve the parallel part.
        assert e8.kernel_seconds["tiny-par"] == pytest.approx(
            e4.kernel_seconds["tiny-par"] / 2, rel=0.01)

    def test_max_parallel_caps_concurrency(self):
        capped = WorkloadSchedule(
            name="capped", max_level=10,
            kernels=[KernelSpec("c", lambda: matmul_kernel("c", 8, 8),
                                count=8, parallel=True, max_parallel=1)])
        timer = WorkloadTimer()
        e4 = timer.estimate(capped, CINNAMON_4)
        e8 = timer.estimate(capped, CINNAMON_8)
        assert e8.kernel_seconds["c"] == pytest.approx(
            e4.kernel_seconds["c"], rel=0.01)

    def test_cache_reused(self, tiny_schedule):
        timer = WorkloadTimer()
        timer.estimate(tiny_schedule, CINNAMON_4)
        before = len(timer._cache)
        timer.estimate(tiny_schedule, CINNAMON_4)
        assert len(timer._cache) == before

    def test_utilization_weighted(self, tiny_schedule):
        timer = WorkloadTimer()
        est = timer.estimate(tiny_schedule, CINNAMON_4)
        util = est.utilization()
        assert set(util) == {"compute", "memory", "network"}
        assert all(0 <= v <= 1 for v in util.values())


class TestBaselines:
    def test_reported_lookup(self):
        assert baselines.reported_seconds("bootstrap", "ARK") == 3.5e-3
        assert baselines.reported_seconds("bert-base-128", "CPU") == \
            pytest.approx(62250.0)

    def test_missing_cells_are_none(self):
        assert baselines.reported_seconds("helr", "ARK") is None
        assert baselines.reported_seconds("bert-base-128", "CraterLake") is None

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            baselines.reported_seconds("doom", "CPU")

    @pytest.mark.slow
    def test_cpu_smallscale_measurement(self):
        seconds = baselines.cpu_smallscale_seconds(ring_degree=256, levels=16)
        assert seconds > 0.1  # even a toy bootstrap takes real CPU time


class TestBertScaling:
    def test_layer_scaling(self):
        full = bert_schedule(num_layers=12)
        half = bert_schedule(num_layers=6)
        full_boot = sum(k.count for k in full.kernels if "bootstrap" in k.name)
        half_boot = sum(k.count for k in half.kernels if "bootstrap" in k.name)
        assert abs(half_boot - full_boot / 2) <= 2

    def test_total_instances_positive(self):
        assert bert_schedule().total_kernel_instances() > 1400
