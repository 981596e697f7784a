"""Load generator: both arrival modes, the workload mix, and the CLI."""

import json

import pytest

from repro.serve import CinnamonServer
from repro.serve.loadgen import (
    LoadGenerator,
    build_report,
    main,
    parse_mix_weights,
)
from repro.workloads.serving import serving_mix


class TestMix:
    def test_small_mix_has_four_paper_workloads(self):
        mix = serving_mix("small")
        assert set(mix) == {"bootstrap", "resnet-block", "helr-step",
                            "bert-layer"}
        prog = mix["bootstrap"].build()
        assert any(op.opcode == "bootstrap" for op in prog.ops)

    def test_paper_mix_same_classes(self):
        assert set(serving_mix("paper")) == set(serving_mix("small"))

    def test_weights_reweight_and_drop(self):
        mix = serving_mix("small", weights={"bootstrap": 0,
                                            "bert-layer": 3.5})
        assert "bootstrap" not in mix
        assert mix["bert-layer"].weight == 3.5

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            serving_mix("small", weights={"gpt": 1})
        with pytest.raises(ValueError):
            serving_mix("huge")

    def test_parse_mix_weights(self):
        assert parse_mix_weights("bootstrap=2, helr-step=0.5") == \
            {"bootstrap": 2.0, "helr-step": 0.5}
        assert parse_mix_weights("") == {}


class TestRuns:
    MIX = None  # cached across tests; programs are immutable

    @classmethod
    def mix(cls):
        if cls.MIX is None:
            cls.MIX = serving_mix("small")
        return cls.MIX

    def test_closed_loop_serves_everything(self):
        import time

        with CinnamonServer(num_workers=2) as server:
            generator = LoadGenerator(server, self.mix(), seed=7)
            start = time.monotonic()
            results = generator.run_closed_loop(24, concurrency=4,
                                                machine=2)
            server.drain()
            duration = time.monotonic() - start
        assert len(results) == 24
        assert all(r.ok for r in results)
        report = build_report(server, results, duration, mode="closed",
                              machine="2", scale="small", offered=24,
                              per_class=generator._sent_per_class)
        assert report.failed == 0
        assert report.throughput_rps > 0
        assert report.cache["hit_rate"] > 0.5  # 4 compiles, 20 hits
        assert report.latency["p50"] <= report.latency["p99"]
        assert sum(report.per_class.values()) == 24
        json.dumps(report.as_dict())
        assert "throughput" in report.render()

    def test_open_loop_poisson_arrivals(self):
        import time

        with CinnamonServer(num_workers=2) as server:
            generator = LoadGenerator(server, self.mix(), seed=11)
            start = time.monotonic()
            results = generator.run_open_loop(16, rate_rps=400.0,
                                              machine=2)
            server.drain()
            duration = time.monotonic() - start
        assert len(results) == 16
        assert all(r.ok for r in results)
        assert duration >= 16 / 400.0 * 0.5  # arrivals actually paced

    def test_open_loop_counts_rejections(self):
        with CinnamonServer(num_workers=1, queue_depth=1,
                            max_batch=64) as server:
            generator = LoadGenerator(server, self.mix(), seed=3)
            results = generator.run_open_loop(30, rate_rps=5000.0,
                                              machine=2)
            server.drain()
        assert len(results) == 30
        statuses = {r.status.value for r in results}
        assert "rejected" in statuses  # overload surfaced, not hidden


class TestCli:
    def test_cli_smoke_writes_metrics_and_trace(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        code = main([
            "--requests", "16", "--mode", "closed", "--concurrency", "4",
            "--workers", "2", "--machine", "cinnamon_2",
            "--scale", "small", "--seed", "1",
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
            "--fail-on-errors",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "outcomes      ok=16" in out
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["loadgen"]["counts"] == {"ok": 16}
        assert "serve_request_latency_seconds" in snapshot
        trace = json.loads(trace_path.read_text())
        assert sum(1 for j in trace["jobs"] if j["kind"] == "serve") == 16

    def test_chaos_report_counts_what_the_journal_records(self, tmp_path,
                                                          capsys):
        """A tamper is detected inside a shard session, whose rows never
        reach the server's registry: the report reads the fold of the
        drained journal, so it counts them all the same."""
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        code = main([
            "--requests", "24", "--mode", "closed", "--concurrency", "2",
            "--workers", "1", "--machine", "cinnamon_2",
            "--scale", "small", "--seed", "1",
            "--chaos-tamper-cache", "2",
            "--cache-dir", str(tmp_path / "cache"), "--capacity", "1",
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
            "--fail-on-errors",
        ])
        assert code == 0
        chaos = json.loads(metrics_path.read_text())["loadgen"]["chaos"]
        detections = [row for row in
                      json.loads(trace_path.read_text())["jobs"]
                      if row["kind"] == "trust"
                      and row["event"] == "tamper_detected"]
        assert chaos["tamper_detected"] == len(detections) >= 1
        assert chaos["tamper_flips"] >= chaos["tamper_detected"]
        assert f"tamper_detected={len(detections)}" in \
            capsys.readouterr().out

    def test_cli_fail_on_errors_exit_code(self, capsys):
        # Impossible deadline: everything times out -> exit 1.
        code = main([
            "--requests", "4", "--mode", "closed", "--concurrency", "2",
            "--workers", "1", "--machine", "cinnamon_2",
            "--scale", "small", "--deadline", "0.0", "--fail-on-errors",
        ])
        assert code == 1
