"""Fuzz the CNC1 wire framing with malformed frames.

Every corruption must surface as a *typed* error (:class:`ProtocolError`
/ :class:`ConnectionClosed` / :class:`FrameTimeout`) — never a hang,
never an unpickle of untrusted bytes, never a stray KeyError/struct.error
escaping the protocol layer."""

import json
import pickle
import random
import socket
import struct
import threading
import zlib

import pytest

from repro.cluster.protocol import (MAGIC, MAX_BLOB_BYTES,
                                    MAX_HEADER_BYTES, ConnectionClosed,
                                    FrameTimeout, ProtocolError,
                                    frame_auth, pack_rows, pack_state,
                                    recv_frame, send_frame, unpack_rows,
                                    unpack_state)

#: Every fuzz read is bounded: a hang is a test failure, not a CI stall.
READ_TIMEOUT_S = 2.0

_U32 = struct.Struct(">I")


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    right.settimeout(READ_TIMEOUT_S)
    yield left, right
    left.close()
    right.close()


def raw_frame(header: dict, blob: bytes = b"") -> bytes:
    if blob:
        header = dict(header, crc32=zlib.crc32(blob) & 0xFFFFFFFF)
    header_bytes = json.dumps(header, separators=(",", ":"),
                              sort_keys=True).encode()
    return b"".join((MAGIC, _U32.pack(len(header_bytes)), header_bytes,
                     _U32.pack(len(blob)), blob))


def deliver(sock, data: bytes):
    sock.sendall(data)
    sock.shutdown(socket.SHUT_WR)


class TestMalformedFrames:
    def test_bad_magic(self, pair):
        left, right = pair
        deliver(left, b"EVIL" + b"\x00" * 64)
        with pytest.raises(ProtocolError, match="magic"):
            recv_frame(right)

    def test_header_length_bomb(self, pair):
        """A corrupt length prefix must not trigger a giant allocation."""
        left, right = pair
        deliver(left, MAGIC + _U32.pack(MAX_HEADER_BYTES + 1))
        with pytest.raises(ProtocolError, match="header length"):
            recv_frame(right)

    def test_blob_length_bomb(self, pair):
        left, right = pair
        header = json.dumps({"kind": "ping"}).encode()
        deliver(left, MAGIC + _U32.pack(len(header)) + header
                + _U32.pack(MAX_BLOB_BYTES + 1))
        with pytest.raises(ProtocolError, match="blob length"):
            recv_frame(right)

    def test_unparseable_header_json(self, pair):
        left, right = pair
        garbage = b"{not json!!"
        deliver(left, MAGIC + _U32.pack(len(garbage)) + garbage)
        with pytest.raises(ProtocolError, match="unparseable"):
            recv_frame(right)

    def test_header_without_kind(self, pair):
        left, right = pair
        deliver(left, raw_frame({"request_id": "r1"}))
        with pytest.raises(ProtocolError, match="kind"):
            recv_frame(right)

    def test_header_not_a_dict(self, pair):
        left, right = pair
        header = json.dumps(["submit"]).encode()
        deliver(left, MAGIC + _U32.pack(len(header)) + header
                + _U32.pack(0))
        with pytest.raises(ProtocolError, match="kind"):
            recv_frame(right)

    def test_blob_crc_mismatch(self, pair):
        left, right = pair
        frame = bytearray(raw_frame({"kind": "result"}, b"p" * 256))
        frame[-10] ^= 0xFF  # flip a blob byte after the CRC was computed
        deliver(left, bytes(frame))
        with pytest.raises(ProtocolError, match="crc"):
            recv_frame(right)

    def test_truncated_everywhere(self, pair):
        """Cutting the stream at any byte offset is a typed error."""
        frame = raw_frame({"kind": "submit", "request_id": "r1"},
                          b"payload-bytes")
        for cut in range(len(frame)):
            left, right = socket.socketpair()
            right.settimeout(READ_TIMEOUT_S)
            try:
                deliver(left, frame[:cut])
                with pytest.raises((ProtocolError, ConnectionClosed)):
                    recv_frame(right)
            finally:
                left.close()
                right.close()

    def test_random_bitflips_never_hang_or_leak(self, pair):
        """Seeded random single-bit corruption across whole frames.  A
        blob flip is a CRC mismatch; header flips are magic/length/JSON
        errors.  A flip that happens to keep the frame well-formed (e.g.
        inside an unchecked header value) may legally still parse —
        accept that too, but never a hang and never a raw
        struct/json/KeyError escaping the protocol layer."""
        rng = random.Random(20250808)
        base = raw_frame({"kind": "submit", "request_id": "q", "seq": 4},
                         b"x" * 128)
        for _ in range(200):
            corrupted = bytearray(base)
            corrupted[rng.randrange(len(base))] ^= 1 << rng.randrange(8)
            left, right = socket.socketpair()
            right.settimeout(READ_TIMEOUT_S)
            try:
                deliver(left, bytes(corrupted))
                try:
                    header, blob = recv_frame(right)
                except (ProtocolError, ConnectionClosed):
                    continue  # typed rejection: the contract held
                # Parsed despite the flip: framing invariants must hold.
                assert isinstance(header, dict) and "kind" in header
                assert len(blob) == 128
            finally:
                left.close()
                right.close()


class TestTimeouts:
    def test_timeout_between_frames_is_clean(self, pair):
        """No bytes on the wire -> FrameTimeout: the stream is still in
        sync and the caller may retry on the same socket."""
        left, right = pair
        right.settimeout(0.1)
        with pytest.raises(FrameTimeout):
            recv_frame(right)
        # The boundary really was clean: a full frame sent afterwards is
        # received intact on the same socket.
        send_frame(left, {"kind": "ping"})
        header, _ = recv_frame(right)
        assert header["kind"] == "ping"

    def test_timeout_mid_frame_is_desync(self, pair):
        left, right = pair
        right.settimeout(0.1)
        left.sendall(MAGIC + _U32.pack(64))  # promises 64 header bytes...
        with pytest.raises(ProtocolError, match="mid-frame") as info:
            recv_frame(right)
        assert not isinstance(info.value, FrameTimeout)


class TestFrameAuth:
    def test_authenticated_roundtrip(self, pair):
        left, right = pair
        send_frame(left, {"kind": "hello", "worker_id": "w0"},
                   b"blob", token="secret")
        header, blob = recv_frame(right, token="secret")
        assert header["kind"] == "hello" and blob == b"blob"

    def test_tampered_header_field_rejected(self, pair):
        left, right = pair
        header = {"kind": "submit", "tenant": "alice"}
        blob = b"payload"
        header["crc32"] = zlib.crc32(blob) & 0xFFFFFFFF
        header["auth"] = frame_auth(header, blob, "secret")
        header["tenant"] = "mallory"  # tamper after signing
        header_bytes = json.dumps(header, separators=(",", ":"),
                                  sort_keys=True).encode()
        deliver(left, MAGIC + _U32.pack(len(header_bytes)) + header_bytes
                + _U32.pack(len(blob)) + blob)
        with pytest.raises(ProtocolError, match="auth"):
            recv_frame(right, token="secret")

    def test_wrong_token_rejected(self, pair):
        left, right = pair
        send_frame(left, {"kind": "ping"}, token="token-a")
        with pytest.raises(ProtocolError, match="auth"):
            recv_frame(right, token="token-b")

    def test_unauthenticated_frame_rejected(self, pair):
        """A receiver holding a token refuses a frame whose ``auth`` was
        stripped: nothing unsigned may reach ``pickle.loads``."""
        left, right = pair
        send_frame(left, {"kind": "result"}, b"would-be-pickle")
        with pytest.raises(ProtocolError, match="auth"):
            recv_frame(right, token="secret")


class TestStateBlob:
    """The ``pong``/``drained`` payload is JSON from a peer process:
    anything but the agreed shape is a typed reject."""

    GOOD = pack_state({"m": {"type": "counter", "series": []}},
                      {"misses": 1}, [{"kind": "compile", "job": "a"}])

    def test_roundtrip(self):
        state = unpack_state(self.GOOD)
        assert state["cache"] == {"misses": 1}
        assert state["journal"] == [{"kind": "compile", "job": "a"}]
        assert state["snapshot"]["m"]["type"] == "counter"

    def test_truncated_everywhere(self):
        for cut in range(len(self.GOOD)):
            with pytest.raises(ProtocolError):
                unpack_state(self.GOOD[:cut])

    @pytest.mark.parametrize("doc", [
        [], "state", 7, None,
        {},
        {"snapshot": {}, "cache": {}},
        {"snapshot": [], "cache": {}, "journal": []},
        {"snapshot": {}, "cache": 3, "journal": []},
        {"snapshot": {}, "cache": {}, "journal": {"kind": "compile"}},
        {"snapshot": {}, "cache": {}, "journal": "rows"},
        {"snapshot": {}, "cache": {}, "journal": [{"kind": "x"}, 7]},
    ])
    def test_wrong_shape_rejected(self, doc):
        with pytest.raises(ProtocolError, match="state"):
            unpack_state(json.dumps(doc).encode())

    def test_not_utf8_rejected(self):
        with pytest.raises(ProtocolError, match="state"):
            unpack_state(b"\xff\xfe{}")


class TestJournalBlob:
    """The ``journal`` payload is JSON rows, never pickle: anything but a
    list of objects is a typed reject."""

    GOOD = pack_rows([{"kind": "compile", "job": "a", "seq": (1, 2)},
                      {"kind": "simulate", "job": "a"}])

    def test_roundtrip(self):
        rows = unpack_rows(self.GOOD)
        assert [row["kind"] for row in rows] == ["compile", "simulate"]
        assert rows[0]["seq"] == [1, 2]

    def test_truncated_everywhere(self):
        for cut in range(len(self.GOOD)):
            with pytest.raises(ProtocolError, match="journal"):
                unpack_rows(self.GOOD[:cut])

    @pytest.mark.parametrize("doc", [
        {}, {"kind": "compile"}, "rows", 7, None,
        [1], [{"kind": "compile"}, []], [[{"kind": "compile"}]],
    ])
    def test_wrong_shape_rejected(self, doc):
        with pytest.raises(ProtocolError, match="journal"):
            unpack_rows(json.dumps(doc).encode())

    @pytest.mark.parametrize("blob", [
        b"\xff\xfe[]", pickle.dumps([{"kind": "compile", "job": "a"}]),
    ])
    def test_not_json_rejected(self, blob):
        """A pickled list, or any non-JSON bytes, is refused unread."""
        with pytest.raises(ProtocolError, match="journal"):
            unpack_rows(blob)


class TestCleanClose:
    def test_eof_between_frames(self, pair):
        left, right = pair
        left.close()
        with pytest.raises(ConnectionClosed):
            recv_frame(right)

    def test_flood_of_garbage_then_close(self, pair):
        """A peer spraying random bytes is rejected promptly; the reader
        thread exits instead of spinning or hanging."""
        left, right = pair
        rng = random.Random(7)
        outcome = []

        def reader():
            try:
                recv_frame(right)
                outcome.append("frame")
            except (ProtocolError, ConnectionClosed) as exc:
                outcome.append(type(exc).__name__)

        thread = threading.Thread(target=reader)
        thread.start()
        deliver(left, bytes(rng.randrange(256) for _ in range(4096)))
        thread.join(timeout=READ_TIMEOUT_S + 2)
        assert not thread.is_alive(), "reader hung on garbage stream"
        assert outcome and outcome[0] != "frame"
