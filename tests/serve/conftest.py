"""Shared helpers: fast small-scale inference requests."""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.fhe import ArchParams
from repro.core.dsl.program import CinnamonProgram
from repro.runtime import CinnamonSession
from repro.serve import InferenceRequest
from repro.serve.executor import ShardExecutor

PARAMS = ArchParams(max_level=6)


def make_program(name="serve-prog", rotation=1):
    prog = CinnamonProgram(name, level=6)
    a, b = prog.input("a"), prog.input("b")
    prog.output("y", a * b + a.rotate(rotation))
    return prog


def make_request(name="req", rotation=1, program_name="serve-prog",
                 machine=2, **kwargs):
    """A request compiling in ~30 ms; same ``rotation`` + ``program_name``
    => same fingerprint (coalesces/caches), different => distinct."""
    return InferenceRequest(
        program=make_program(program_name, rotation), params=PARAMS,
        machine=machine, name=name, **kwargs)


@pytest.fixture
def requests_factory():
    return make_request


@pytest.fixture
def slow_run(monkeypatch):
    """Every job takes at least 0.3 s longer (a GC pause, a slow NIC)."""
    run = CinnamonSession.run

    def slow(session, job):
        time.sleep(0.3)
        return run(session, job)

    monkeypatch.setattr(CinnamonSession, "run", slow)


@pytest.fixture
def held_shard(monkeypatch):
    """The first batch any shard executes blocks until ``release()``:
    ``busy`` is set once a shard holds it, and everything submitted
    meanwhile waits in the admission queue."""
    busy, release = threading.Event(), threading.Event()
    execute = ShardExecutor.execute

    def held(executor, requests):
        if not busy.is_set():
            busy.set()
            release.wait(30)
        return execute(executor, requests)

    monkeypatch.setattr(ShardExecutor, "execute", held)
    return SimpleNamespace(busy=busy, release=release.set)
