"""ClusterWorker's side of the heartbeat, against a scripted router
socket: the pong is the one worker->router state channel."""

import socket
import threading

import pytest

from repro.cluster.protocol import (PROTOCOL_VERSION, ConnectionClosed,
                                    pack_submit, recv_frame, send_frame,
                                    unpack_rows, unpack_state)
from repro.cluster.worker import ClusterWorker

from .conftest import make_request

TOKEN = "worker-test-token"


@pytest.fixture
def served(tmp_path):
    """A worker's ``run()`` loop in a thread, dialled into a listener the
    test owns; yields ``(worker, router_side_socket, threads_expected)``
    once the hello has been checked."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    before = set(threading.enumerate())
    worker = ClusterWorker("w-test", "127.0.0.1",
                           listener.getsockname()[1], token=TOKEN,
                           cache_dir=tmp_path / "cache")
    outcome = []
    runner = threading.Thread(target=lambda: outcome.append(worker.run()),
                              daemon=True)
    runner.start()
    sock, _ = listener.accept()
    sock.settimeout(10)
    hello, _ = recv_frame(sock, token=TOKEN)
    assert (hello["kind"], hello["protocol"]) == ("hello", PROTOCOL_VERSION)
    try:
        yield worker, sock, before | {runner}
    finally:
        send_frame(sock, {"kind": "shutdown"}, token=TOKEN)
        runner.join(timeout=10)
        sock.close()
        listener.close()
    assert not runner.is_alive() and outcome == [0]


def ask(sock, **header):
    send_frame(sock, header, token=TOKEN)
    answer, blob = recv_frame(sock, token=TOKEN)
    return answer, unpack_state(blob)


def test_pong_echoes_seq_and_carries_the_state(served):
    worker, sock, _threads = served
    header, state = ask(sock, kind="ping", seq=41)
    assert (header["kind"], header["seq"]) == ("pong", 41)
    assert header["worker_id"] == "w-test"
    assert state["snapshot"]["cluster_worker_submits_total"]["type"] \
        == "counter"
    assert state["cache"] == worker.executor.session.cache_stats.as_dict()
    assert state["journal"] == []


def test_each_journal_row_crosses_the_wire_once(served):
    worker, sock, _threads = served
    record = worker.executor.session.record
    record("trust", event="keys_installed", target="first")
    _, state = ask(sock, kind="ping", seq=1)
    assert [row["target"] for row in state["journal"]] == ["first"]
    record("trust", event="keys_installed", target="second")
    header, state = ask(sock, kind="drain")
    assert header["kind"] == "drained"
    assert [row["target"] for row in state["journal"]] == ["second"]


def test_state_rides_the_heartbeat_not_a_thread_of_its_own(served):
    """The worker starts no telemetry thread: after serving heartbeats
    the only thread it added to the process is the one running it."""
    _worker, sock, expected = served
    for seq in (1, 2, 3):
        ask(sock, kind="ping", seq=seq)
    extra = set(threading.enumerate()) - expected
    assert not extra, [t.name for t in extra]


class _CountingSocket:
    """The worker's socket, with every ``sendall`` payload kept."""

    def __init__(self, sock):
        self._sock = sock
        self.writes = []

    def sendall(self, data):
        self.writes.append(bytes(data))
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _parse_frames(data: bytes) -> list:
    left, right = socket.socketpair()
    with left, right:
        left.sendall(data)
        left.shutdown(socket.SHUT_WR)
        frames = []
        while True:
            try:
                frames.append(recv_frame(right, token=TOKEN))
            except ConnectionClosed:
                return frames


def test_a_result_and_its_rows_leave_in_one_write(served):
    worker, sock, _threads = served
    counting = worker._sock = _CountingSocket(worker._sock)
    worker.executor.session.record("trust", event="keys_installed",
                                   target="ahead")
    header, blob = pack_submit(make_request(name="one-write"), None, None)
    send_frame(sock, header, blob, token=TOKEN)
    journal, journal_blob = recv_frame(sock, token=TOKEN)
    result, _ = recv_frame(sock, token=TOKEN)
    assert (journal["kind"], result["kind"]) == ("journal", "result")
    rows = unpack_rows(journal_blob)
    assert rows[0]["target"] == "ahead"
    assert {"compile", "simulate"} <= {row["kind"] for row in rows}
    (write,) = counting.writes
    assert [h["kind"] for h, _ in _parse_frames(write)] == [
        "journal", "result"]


def test_worker_socket_has_nodelay(served):
    worker, _sock, _threads = served
    assert worker._sock.getsockopt(socket.IPPROTO_TCP,
                                   socket.TCP_NODELAY)
