"""Shared helpers: fast requests + one 2-worker cluster per module."""

import contextlib
import socket
import types

import pytest

from repro.cluster.protocol import PROTOCOL_VERSION, send_frame
from repro.cluster.router import _Worker
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


@contextlib.contextmanager
def dial_as_worker(router, worker_id="wfake", protocol=PROTOCOL_VERSION):
    """Play a worker against a ``spawn_workers=False`` router: register
    the id by hand (the accept loop only admits hellos from ids the
    router spawned), say a real hello over the wire, and hand back
    ``(record, client_socket)``."""
    record = _Worker(worker_id, 0, proc=stub_proc())
    record.token = router._token
    router._workers[worker_id] = record
    client = socket.create_connection(("127.0.0.1", router._port),
                                      timeout=5)
    client.settimeout(10)
    try:
        send_frame(client, {"kind": "hello", "worker_id": worker_id,
                            "token": router._token, "pid": 4242,
                            "protocol": protocol},
                   token=router._token)
        yield record, client
    finally:
        # The record has no process: deregister before the router's
        # shutdown tries to reap it.
        router._workers.pop(worker_id, None)
        client.close()


@pytest.fixture
def requests_factory():
    return make_request
