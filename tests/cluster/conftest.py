"""Shared helpers: fast requests, a worker played over the wire, and a
router core driven by hand."""

import contextlib
import socket
import time

import pytest

from repro.cluster.core import RouterCore, Send
from repro.cluster.protocol import PROTOCOL_VERSION, pack_result, send_frame
from repro.fhe import ArchParams
from repro.core.dsl.program import CinnamonProgram
from repro.obs.metrics import MetricsRegistry
from repro.runtime.trace import TraceRecorder
from repro.serve import InferenceRequest, RequestResult, RequestStatus
from repro.serve.lifecycle import RequestLifecycle

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


@contextlib.contextmanager
def dial_as_worker(router, worker_id="wfake", protocol=PROTOCOL_VERSION):
    """Play a worker against a ``spawn_workers=False`` router: register
    the id with its core (only registered ids may say hello), say a real
    hello over the wire, and hand back ``(record, client_socket)`` —
    ``record`` is the core's :class:`~repro.cluster.core.WorkerState`."""
    record = router._in_loop(lambda: router._core.add_worker(worker_id))
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
        client.close()


class CoreDriver:
    """A :class:`RouterCore` over a real :class:`RequestLifecycle`, driven
    one event at a time on a virtual clock; every action the core
    returns is kept, in order, in :attr:`actions`."""

    def __init__(self, max_retries=2, liveness_timeout_s=15.0, target=1,
                 spawn=False):
        self.metrics = MetricsRegistry()
        self.lifecycle = RequestLifecycle(
            self.metrics, TraceRecorder(registry=self.metrics))
        self.core = RouterCore(self.lifecycle, target=target,
                               max_retries=max_retries,
                               liveness_timeout_s=liveness_timeout_s,
                               spawn=spawn)
        self.now = time.monotonic()
        self.actions = []

    def _keep(self, actions):
        self.actions += actions or []
        return actions

    def submit(self, name="req", deadline_s=None, **kwargs):
        """Admit one request and hand it to the core; returns its handle."""
        handle = self.lifecycle.admit(
            make_request(name=name, deadline_s=deadline_s, **kwargs))
        handle.request.submitted_at = self.now
        self._keep(self.core.submit(handle.request, self.now))
        return handle

    def up(self, worker_id):
        self.core.add_worker(worker_id)
        return self._keep(self.core.worker_up(worker_id, 4242, self.now))

    def lost(self, worker_id):
        return self._keep(self.core.worker_lost(worker_id, self.now))

    def frame(self, worker_id, header, blob=b""):
        return self._keep(self.core.frame(worker_id, header, blob,
                                          self.now))

    def result(self, worker_id, request, status=RequestStatus.OK,
               **header):
        """``worker_id`` answers ``request``."""
        res_header, blob = pack_result(RequestResult(
            request_id=request.request_id, name=request.label,
            status=status, batch_size=1, cycles=7,
            error=None if status is RequestStatus.OK else "boom"))
        return self.frame(worker_id, {**res_header, **header}, blob)

    def tick(self, dt=0.0, exited=()):
        self.now += dt
        return self._keep(self.core.tick(self.now, exited))

    def shutdown(self, drain):
        return self._keep(self.core.shutdown(drain, self.now))

    def submits_to(self, worker_id):
        """Request ids the core has sent to ``worker_id``, in order."""
        return [a.request.request_id for a in self.actions
                if type(a) is Send and a.worker == worker_id
                and a.request is not None]

    def counter(self, name):
        return self.metrics.snapshot()[name]["series"][0]["value"]


@pytest.fixture
def requests_factory():
    return make_request
