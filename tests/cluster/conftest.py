"""Shared helpers: fast requests + one 2-worker cluster per module."""

import types

import pytest

from repro.fhe import ArchParams
from repro.core.dsl.program import CinnamonProgram
from repro.serve import InferenceRequest

PARAMS = ArchParams(max_level=6)


def make_program(name="cluster-prog", rotation=1):
    prog = CinnamonProgram(name, level=6)
    a, b = prog.input("a"), prog.input("b")
    prog.output("y", a * b + a.rotate(rotation))
    return prog


def make_request(name="req", rotation=1, program_name="cluster-prog",
                 machine=2, **kwargs):
    """Compiles in ~30 ms; same ``rotation`` + ``program_name`` => same
    fingerprint (routes to the same worker), different => distinct."""
    return InferenceRequest(
        program=make_program(program_name, rotation), params=PARAMS,
        machine=machine, name=name, **kwargs)


def stub_proc():
    """Stands in for a worker's ``Popen`` in routers built with
    ``spawn_workers=False``: the failover and teardown paths dereference
    ``proc.pid`` / ``.poll`` / ``.kill`` / ``.wait``."""
    return types.SimpleNamespace(pid=4242, poll=lambda: 0,
                                 kill=lambda: None,
                                 wait=lambda timeout=None: 0)


@pytest.fixture
def requests_factory():
    return make_request
