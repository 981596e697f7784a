"""Reproducibility gate: cold rebuilds must produce bit-identical
content digests."""

import pytest

from repro.trust.rebuild import rebuild_check, verify_cache_dir
from repro.workloads.serving import serving_mix


@pytest.fixture(scope="module")
def small_mix():
    # Two workload classes keep the double-compile fast while still
    # exercising distinct program shapes.
    mix = serving_mix("small")
    return dict(sorted(mix.items())[:2])


def test_cold_rebuild_is_reproducible(small_mix):
    report = rebuild_check(small_mix, machine="cinnamon_4")
    assert report["ok"], report["mismatched"]
    assert report["artifacts"] == len(small_mix)
    assert report["warm"] == report["cold"]
    # Digests are real sha256 hex, keyed by cache fingerprint.
    assert all(len(d) == 64 for d in report["warm"].values())


def test_reference_drift_detected(small_mix):
    baseline = rebuild_check(small_mix)
    reference = dict(baseline["warm"])
    key = next(iter(reference))
    reference[key] = "0" * 64  # simulate a drifted committed digest
    report = rebuild_check(small_mix, reference=reference)
    assert report["reference_drift"] == [key]
    assert report["ok"] is False


def test_verify_cache_dir_audits_real_session_output(small_mix, tmp_path):
    from repro.runtime.session import CinnamonSession

    cache_dir = tmp_path / "cache"
    session = CinnamonSession(cache_dir=cache_dir)
    name, entry = next(iter(small_mix.items()))
    session.compile(entry.build(), entry.params, machine="cinnamon_4",
                    job=name)
    report = verify_cache_dir(cache_dir)
    assert report["verified"] and not report["tampered"]
    # Flip one artifact byte: the audit reports it without deleting it.
    victim = sorted(cache_dir.glob("*.pkl"))[0]
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 0x01
    victim.write_bytes(bytes(data))
    report = verify_cache_dir(cache_dir)
    assert victim.name in report["tampered"]
    assert victim.exists()
