"""The lowered models as serving and tuning workloads.

The three ``nn-*`` classes ride the same MixEntry plumbing as the
kernel mix, so the contracts here are about *consistency*: the lowered
programs must fit the chains their entries advertise, and the
paper-scale deep models must schedule their refreshes against exactly
the bootstrap plan the server's default compile options will expand
(``default_plan``), or steady-state levels would disagree at compile
time.
"""

import pytest

from repro.core.ir.bootstrap_graph import BOOTSTRAP_13, default_plan
from repro.fhe.params import ArchParams
from repro.serve import CinnamonServer
from repro.serve.loadgen import main as loadgen_main
from repro.serve.request import InferenceRequest
from repro.tune.workloads import WORKLOAD_NAMES, get_workload
from repro.workloads.serving import NN_SMALL_LEVELS, nn_mix, serving_mix

NN_CLASSES = {"nn-helr", "nn-resnet20", "nn-bert-encoder"}


class TestNnMix:
    def test_small_entries_fit_their_chains(self):
        mix = nn_mix("small")
        assert set(mix) == NN_CLASSES
        for name, entry in mix.items():
            assert entry.params.max_level == NN_SMALL_LEVELS[name]
            program = entry.build()
            levels = [op.level for op in program.ops]
            assert max(levels) <= entry.params.max_level
            assert min(levels) >= 1
            # The small scale stays bootstrap-free by construction.
            assert program.count("bootstrap") == 0

    def test_small_resnet20_cycles_are_pinned(self):
        """The exact per-model pin no other test holds (the BERT, HELR
        and bootstrap cycles live in tests/core/codegen_golden.json): a
        change that moves it moved the compiler or the simulator."""
        import repro

        entry = nn_mix("small")["nn-resnet20"]
        result = repro.compile(entry.build(), entry.params,
                               machine="cinnamon_4").simulate("cinnamon_4")
        assert (result.cycles, result.instructions) == (1_462_944, 184_564)

    def test_paper_deep_models_target_default_plan(self):
        # The server compiles mix programs with default options, which
        # expand bootstraps via default_plan(params); the lowering must
        # have budgeted against the same plan.
        assert default_plan(ArchParams()).name == BOOTSTRAP_13.name
        mix = nn_mix("paper")
        bert = mix["nn-bert-encoder"].build()
        assert bert.count("bootstrap") > 0
        assert bert.input_level == BOOTSTRAP_13.output_level

    def test_include_nn_merges_into_kernel_mix(self):
        merged = serving_mix("small", include_nn=True)
        assert NN_CLASSES < set(merged)
        assert {"bootstrap", "resnet-block"} < set(merged)
        # Default mix is unchanged: nn traffic is opt-in.
        assert not NN_CLASSES & set(serving_mix("small"))

    def test_weights_reweight_and_drop_nn_classes(self):
        mix = nn_mix("small", weights={"nn-resnet20": 0, "nn-helr": 2.5})
        assert "nn-resnet20" not in mix
        assert mix["nn-helr"].weight == 2.5
        with pytest.raises(ValueError, match="unknown mix classes"):
            serving_mix("small", weights={"nn-helr": 1})


class TestNnServing:
    def test_helr_serves_end_to_end(self):
        entry = nn_mix("small")["nn-helr"]
        with CinnamonServer(num_workers=1) as server:
            result = server.submit(InferenceRequest(
                program=entry.build(), params=entry.params,
                machine=2, name="nn-helr")).result(timeout=120)
        assert result.ok

    def test_loadgen_nn_only_flag(self, capsys):
        # Pure-nn traffic, narrowed to the cheapest class so the CLI
        # path stays fast.
        code = loadgen_main([
            "--requests", "4", "--workers", "1", "--mode", "closed",
            "--concurrency", "2", "--nn", "only",
            "--mix", "nn-resnet20=0,nn-bert-encoder=0",
            "--fail-on-errors"])
        assert code == 0
        out = capsys.readouterr().out
        assert "nn-helr=4" in out


class TestNnTuning:
    def test_registered_at_both_scales(self):
        assert NN_CLASSES < set(WORKLOAD_NAMES)

    def test_small_materializes_without_plan(self):
        program, params, options = get_workload(
            "nn-bert-encoder", "small").materialize()
        assert program.count("bootstrap") == 0
        assert options.bootstrap_plan is None
        assert max(op.level for op in program.ops) <= params.max_level

    def test_paper_materializes_with_bootstrap_13(self):
        program, params, options = get_workload(
            "nn-resnet20", "paper").materialize()
        assert options.bootstrap_plan is BOOTSTRAP_13
        assert program.count("bootstrap") > 0
        assert program.input_level == BOOTSTRAP_13.output_level
