"""Tests of the benchmark itself: ``python -m pytest bench -q``.

Tier-1 (``python -m pytest -q``) collects only ``tests/``; these run the
benchmark's ``--quick`` mode end to end, so they are kept beside it.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import compare, spec, surface          # noqa: E402
from bench.spans import SpanRecorder               # noqa: E402

RUN = [sys.executable, str(ROOT / "bench" / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def quick_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    started = time.monotonic()
    done = subprocess.run(RUN + ["--quick", "--seed", "7", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 60, f"--quick took {elapsed:.1f} s"
    return out


def test_quick_result_carries_every_workload_and_metric(quick_result):
    document = json.loads(quick_result.read_text())
    assert document["correct"]
    assert list(document["workloads"]) == list(spec.WORKLOADS)
    table = document["end_to_end"]
    assert set(table) == set(spec.END_TO_END) and len(table) == 13
    for name, meta in table.items():
        assert NAME.match(name)
        assert UNIT.match(meta["unit"])
        assert meta["better"] in ("lower", "higher")
        assert 0 <= meta["bound"] <= 0.25
        assert set(meta["workloads"]) <= set(spec.WORKLOADS)
    for workload, result in document["workloads"].items():
        assert result["ops_attempted"] >= 1 and result["ops_failed"] == 0
        assert set(result["contract"]) == set(spec.CONTRACT)
        for name, metric in result["metrics"].items():
            assert workload in table[name]["workloads"]
            assert metric["value"] > 0
        context = result["context"]
        for key in ("nproc", "loadavg_start", "python", "numpy",
                    "kernel_backend", "git_commit", "seed"):
            assert key in context
        assert result["wall_s"] > 0
    # ``--quick`` compiles only HELR, so only the scale-out ratio and the
    # bootstrap are legitimately absent.
    measured = {name for result in document["workloads"].values()
                for name in result["metrics"]}
    assert set(table) - measured == {"scaleout_speedup_12v1", "bootstrap_s"}


def test_run_leaves_the_tree_clean(quick_result):
    assert not (ROOT / ".bench_work").exists()


def test_compare_of_a_file_with_itself_is_all_ok(quick_result, capsys):
    assert compare.compare([quick_result], [quick_result]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows and all("  ok  " in row for row in rows)


def test_compare_flags_worse_and_unresolved(quick_result, tmp_path, capsys):
    document = json.loads(quick_result.read_text())
    thrash = document["workloads"]["serve_thrash"]["metrics"]
    thrash["req_p50_ms"]["value"] *= 2
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(document))
    assert compare.compare([quick_result], [slower]) == 1
    assert "worse" in capsys.readouterr().out
    # A base side that disagrees with itself by more than the bound
    # cannot resolve a small difference either way.
    assert compare.verdict([1.0, 1.5, 2.0, 2.5], [1.9, 2.0], "lower",
                           0.10) == "unresolved"
    assert compare.verdict([1.0, 1.5, 2.0, 2.5], [0.8, 0.9], "lower",
                           0.10) == "ok"
    assert compare.verdict([100, 100], [100], "lower", 0.0) == "ok"
    assert compare.verdict([100, 100], [101], "lower", 0.0) == "worse"
    assert compare.verdict([50.0, 51.0], [44.0], "higher", 0.10) == "worse"


def test_every_pinned_import_resolves():
    for name in surface.SURFACE:
        assert getattr(surface, name) is not None
    # ... and nothing else in bench/ reaches into the library.
    for path in (ROOT / "bench").glob("*.py"):
        if path.name in ("surface.py", "test_bench.py"):
            continue
        assert not re.search(r"^\s*(from|import) repro\b", path.read_text(),
                             re.MULTILINE), path.name
    for banned in ("loadgen", "CinnamonCompiler", "CycleSimulator",
                   "baseline"):
        assert banned not in surface.SURFACE
        assert not any(banned in module for module in
                       surface.SURFACE.values())


def test_benchmark_json_is_the_spec_and_within_the_contract_limits():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == spec.benchmark_json()
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert document["paths"] == ["bench"]
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in document[key]]
    assert len(names) == len(set(names)) and all(map(NAME.match, names))
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in document["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in document["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_form_ends_with_the_contract_line(trace, tmp_path):
    spans = tmp_path / "spans.json"
    done = subprocess.run(
        RUN + ["--workload", "cold_compile", "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--quick", "--trace-out", str(spans)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    expected = spec.PER_LAYER if trace else spec.CONTRACT
    assert set(last["metrics"]) == set(expected)
    for name, metric in last["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == expected[name][0]
    if not trace:
        assert all(m["value"] > 0 for m in last["metrics"].values())
        return
    # The traced run wrote its spans once, at exit: they nest, and under
    # every root the self times add up to the root's duration.
    recorded = json.loads(spans.read_text())["spans"]
    _assert_spans_nest_and_sum(recorded)
    assert {"core.ir", "core.isa", "sim", "runtime", "nn"} <= {
        s["layer"] for s in recorded}


def _assert_spans_nest_and_sum(recorded):
    recorder = SpanRecorder()
    recorder.spans = recorded
    own = recorder.self_times()
    totals = {}
    for index, span in enumerate(recorded):
        assert span["end"] >= span["start"]
        root = index
        while recorded[root]["parent"] is not None:
            parent = recorded[root]["parent"]
            assert parent < root
            root = parent
        if span["parent"] is not None:
            outer = recorded[span["parent"]]
            assert outer["start"] <= span["start"]
            assert span["end"] <= outer["end"] + 1e-9
        totals[root] = totals.get(root, 0.0) + own[index]
    assert totals
    for root, total in totals.items():
        duration = recorded[root]["end"] - recorded[root]["start"]
        assert total == pytest.approx(duration, abs=1e-6)


def test_span_recorder_self_time():
    recorder = SpanRecorder()
    with recorder.span("request", "cluster", request_id=9) as root:
        with recorder.span("submit", "serve"):
            time.sleep(0.002)
        time.sleep(0.002)
    start = recorder.spans[root]["start"]
    # Reported after the fact, overlapping each other and the root's end.
    recorder.add("queue", "serve", start, start + 0.001, root, 9)
    recorder.add("execute", "runtime", start + 0.0005, start + 10, root, 9)
    assert [s["request_id"] for s in recorder.spans] == [9, 9, 9, 9]
    own = recorder.self_times()
    duration = recorder.spans[root]["end"] - start
    assert own[root] == pytest.approx(0.0, abs=1e-9)   # fully covered
    assert all(value >= 0 for value in own)
    assert SpanRecorder(enabled=False).add("x", "y", 0, 1) is None
    assert duration > 0.004


def test_missing_library_exits_nonzero_without_a_result(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ there is no
    program to measure: the run must fail, and print no result line."""
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serve_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
