"""Smoke tests: every example script runs to completion and exits zero.

Examples that check their decrypted results against a plaintext
reference (``keyswitch_comparison.py``, ``private_analytics.py``) exit
non-zero on a mismatch, so a wrong answer fails here.

The heavyweight ones (bootstrap, the N=64K simulations) are marked slow.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

FAST = ["keyswitch_comparison.py", "nn_quickstart.py"]
SLOW = [
    "quickstart.py",
    "private_analytics.py",
    "bootstrap_demo.py",
    "bert_attention_streams.py",
]


def _run(name: str):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=900,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


@pytest.mark.parametrize("name", FAST)
def test_fast_examples(name):
    out = _run(name)
    assert out.strip()


@pytest.mark.slow
@pytest.mark.parametrize("name", SLOW)
def test_slow_examples(name):
    assert _run(name).strip()


def test_all_examples_listed():
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    assert on_disk == set(FAST) | set(SLOW)
