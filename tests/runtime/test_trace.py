"""TraceRecorder's resident bound: older rows spill to an anonymous
file, and every reader still sees every row, in record order."""

import json

from repro.obs.metrics import MetricsRegistry
from repro.runtime import trace
from repro.runtime.trace import RESIDENT_ROWS, TraceRecorder


def _fill(recorder, count):
    """Record ``count`` rows, alternating ``record`` and ``absorb``
    (tuples included: they read back as lists once spilled); returns
    the rows as they were recorded and the largest resident size seen."""
    expected, peak = [], 0
    for i in range(count):
        if i % 3:
            row = recorder.record("trust", event="keys_installed",
                                  target=f"r{i}", detail={"seq": (i, i)})
        else:
            recorder.absorb([{"kind": "compile", "job": f"a{i}"}],
                            worker="w0")
            row = {"kind": "compile", "job": f"a{i}", "worker": "w0"}
        expected.append(row)
        peak = max(peak, len(recorder._jobs))
    return expected, peak


def _json(rows):
    return json.loads(json.dumps(rows))


def test_resident_rows_are_bounded_and_every_row_reads_back():
    recorder = TraceRecorder(registry=MetricsRegistry())
    expected, peak = _fill(recorder, 5 * RESIDENT_ROWS)
    assert peak <= RESIDENT_ROWS
    assert recorder._spilled > 0
    assert _json(recorder.jobs) == _json(expected)
    document = json.loads(recorder.to_json())
    assert document["jobs"] == _json(expected)


def test_rows_since_matches_a_slice_of_jobs_across_the_spill_boundary():
    recorder = TraceRecorder(registry=MetricsRegistry())
    _fill(recorder, 5 * RESIDENT_ROWS)
    jobs = _json(recorder.jobs)
    spilled = recorder._spilled
    for cursor in (0, 1, spilled - 1, spilled, spilled + 1,
                   len(jobs) - 1, len(jobs), len(jobs) + 5):
        rows, after = recorder.rows_since(cursor)
        assert _json(rows) == jobs[cursor:], cursor
        assert after == len(jobs)


def test_clear_empties_resident_and_spilled_rows():
    recorder = TraceRecorder(registry=MetricsRegistry())
    _fill(recorder, 2 * RESIDENT_ROWS)
    recorder.clear()
    assert recorder.jobs == [] and recorder.rows_since(0) == ([], 0)
    recorder.record("trust", event="keys_installed", target="after")
    assert [row["target"] for row in recorder.jobs] == ["after"]


def test_spilled_rows_stay_counted(monkeypatch):
    """A row is folded when recorded: spilling it changes no metric."""
    monkeypatch.setattr(trace, "RESIDENT_ROWS", 4)
    registry = MetricsRegistry()
    recorder = TraceRecorder(registry=registry)
    for i in range(20):
        recorder.record("trust", event="keys_installed", target=f"t{i}")
    assert len(recorder._jobs) <= 4 and len(recorder.jobs) == 20
    (series,) = registry.snapshot()["trust_events_total"]["series"]
    assert series["value"] == 20
