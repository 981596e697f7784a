"""One fingerprint per request: admission hashes the program, and the
session (a server shard or a cluster worker) compiles and caches under
that key instead of hashing the program again — unless the job changes
the layout admission hashed."""

import importlib
import socket

import pytest

from repro.cluster.protocol import pack_submit, recv_frame, unpack_result
from repro.cluster.worker import ClusterWorker
from repro.core.compiler import CompilerOptions
from repro.obs.metrics import MetricsRegistry
from repro.runtime import CinnamonSession
from repro.runtime.session import CompileJob
from repro.runtime.trace import TraceRecorder
from repro.serve import (CinnamonServer, FaultInjector, InferenceRequest,
                         RequestStatus)
from repro.serve.lifecycle import RequestLifecycle
from repro.workloads import nn_mix, serving_mix

from .conftest import make_request

TOKEN = "fingerprint-test-token"
# The module, not the function ``repro.runtime`` re-exports as this name.
fingerprint_module = importlib.import_module("repro.runtime.fingerprint")


@pytest.fixture
def hashes(monkeypatch):
    """Counts program hashes: every fingerprint hashes its program once,
    through :func:`repro.runtime.fingerprint.program_signature`."""
    calls = []
    signature = fingerprint_module.program_signature

    def counted(program):
        calls.append(program.name)
        return signature(program)

    monkeypatch.setattr(fingerprint_module, "program_signature", counted)
    return calls


def test_server_hashes_each_request_once(hashes):
    requests = [make_request(f"once-{i}", rotation=1 + i % 2)
                for i in range(6)]
    with CinnamonServer(num_workers=1, queue_depth=0) as server:
        handles = server.submit_many(requests)
        results = [handle.result(timeout=120) for handle in handles]
    assert all(result.ok for result in results)
    assert {result.cache for result in results} >= {"miss", "memory"}
    assert len(hashes) == len(requests)


def test_chip_loss_recompiles_under_a_recomputed_key(hashes):
    """The degrade ladder recompiles for the survivors: a new layout,
    so the session hashes the program for it."""
    faults = FaultInjector().chip_crash(chip=1, cycle=1000)
    with CinnamonServer(num_workers=1, faults=faults,
                        max_recoveries=2) as server:
        request = make_request("degraded")
        result = server.submit(request).result(timeout=120)
    assert result.status is RequestStatus.OK
    assert faults.injected["chip_crash"] == 1
    assert result.compiled.options.machine.name == "Cinnamon-1"
    assert result.compiled.cache_key != request.key
    assert len(hashes) == 2       # admission, then the degraded compile


@pytest.fixture
def worker():
    """A worker (not running its loop) whose router end is a socket
    pair: ``_execute`` runs one submit inline and writes its result."""
    ours, theirs = socket.socketpair()
    theirs.settimeout(10)
    node = ClusterWorker("w-fp", "127.0.0.1", 0, token=TOKEN)
    node._sock = ours
    yield node, theirs
    node._pool.shutdown(wait=True)
    ours.close()
    theirs.close()


def submit_frame(request, key):
    lifecycle = RequestLifecycle(MetricsRegistry(), TraceRecorder())
    lifecycle.admit(request)
    return pack_submit(request, request.options,
                       request.key if key is None else key)


def run_on(node, sock, header, blob):
    node._execute(header, blob)
    while True:
        frame, payload = recv_frame(sock, token=TOKEN)
        if frame["kind"] == "result":
            return unpack_result(frame, payload)


def test_worker_compiles_under_the_header_key(worker, hashes):
    node, sock = worker
    header, blob = submit_frame(make_request("keyed"), key=None)
    result = run_on(node, sock, header, blob)
    assert result.ok
    assert len(hashes) == 1       # the admission in the test, not the worker
    assert header["key"] in node.executor.session._cache._memory


@pytest.mark.parametrize("bad", ["../../escape", "ab" * 40, 7])
def test_worker_recomputes_a_malformed_header_key(worker, hashes, bad):
    node, sock = worker
    request = make_request("malformed")
    header, blob = submit_frame(request, key=bad)
    result = run_on(node, sock, header, blob)
    assert result.ok
    assert len(hashes) == 2       # the admission in the test, the worker
    assert list(node.executor.session._cache._memory) == [request.key]


def programs():
    mix = {**serving_mix("small"), **nn_mix("small")}
    return [(name, entry.build(), entry.params)
            for name, entry in sorted(mix.items())]


@pytest.mark.parametrize("shape", ["machine", "tuned", "tuned+machine"])
def test_admission_key_is_the_session_key(shape):
    """The key admission computes is the one the session computes for
    the job the executor builds from the admitted request."""
    session = CinnamonSession()
    lifecycle = RequestLifecycle(MetricsRegistry(), TraceRecorder())
    tuned = CompilerOptions(num_chips=4, keyswitch_policy="cifher",
                            num_digits=2)
    for name, program, params in programs():
        request = InferenceRequest(
            program=program, params=params, name=name,
            machine=None if shape == "tuned" else 4,
            options=None if shape == "machine" else tuned)
        lifecycle.admit(request)
        job = CompileJob(program=request.program, params=request.params,
                         options=request.options, name=request.label)
        opts = session._resolve_options(job.machine, job.options, {})
        assert request.key == fingerprint_module.fingerprint(
            job.program, job.params, opts, job.emit_isa,
            schema_version=session.schema_version), name
