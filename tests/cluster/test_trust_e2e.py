"""Trust layer end to end in the cluster: router admission (stale keys,
replays), key-manifest replication to workers, worker-side re-checks,
and the worker's bounded-read liveness check."""

import pickle
import socket
import threading
import time

import pytest

from repro.cluster.protocol import pack_keys, recv_frame, unpack_keys
from repro.cluster.router import ClusterRouter
from repro.cluster.worker import ClusterWorker
from repro.trust.errors import (ReplayError, StaleKeyError,
                                StaleRequestError, UnknownKeyError)
from repro.trust.freshness import EnvelopeMinter, FreshnessEnvelope
from repro.trust.keyvault import KeyVault

from .conftest import dial_as_worker, make_request


@pytest.fixture
def router():
    """Admission-only router: no worker processes, so requests queue but
    never execute — exactly what admission rejection tests need."""
    vault = KeyVault(grace_versions=0)
    vault.issue("default")
    r = ClusterRouter(num_workers=1, spawn_workers=False, disk_cache=False,
                      keyvault=vault)
    r.start()
    yield r
    r.shutdown(drain=False)


class TestRouterAdmission:
    def test_valid_key_version_admits(self, router):
        handle = router.submit(make_request(key_version=1))
        assert handle is not None

    def test_revoked_key_version_rejected(self, router):
        router.keyvault.rotate("default")
        router.keyvault.revoke("default", 1)
        with pytest.raises(StaleKeyError):
            router.submit(make_request(key_version=1))
        counters = router._trust_rejected_total
        assert counters["stale-key"].value == 1

    def test_retired_key_version_rejected_without_grace(self, router):
        router.keyvault.rotate("default")
        with pytest.raises(StaleKeyError):
            router.submit(make_request(key_version=1))

    def test_unknown_tenant_rejected(self, router):
        with pytest.raises(UnknownKeyError):
            router.submit(make_request(tenant="never-issued"))

    def test_replayed_envelope_rejected(self, router):
        env = EnvelopeMinter(sender="client").mint()
        router.submit(make_request(name="probe", envelope=env))
        with pytest.raises(ReplayError):
            router.submit(make_request(name="replay", envelope=env))
        assert router._trust_rejected_total["replay"].value == 1

    def test_stale_envelope_rejected(self, router):
        env = FreshnessEnvelope(nonce="old", issued_unix=time.time() - 900,
                                seq=1, sender="client")
        with pytest.raises(StaleRequestError):
            router.submit(make_request(envelope=env))
        assert router._trust_rejected_total["stale-request"].value == 1

    def test_rejection_resolves_the_handle(self, router):
        """An attacker's submit must never leave a waiter hanging: the
        handle resolves REJECTED synchronously (popped from the pending
        table) before the typed error propagates."""
        from repro.serve.request import RequestStatus

        router.keyvault.rotate("default")
        router.keyvault.revoke("default", 1)
        request = make_request(key_version=1)
        with pytest.raises(StaleKeyError):
            router.submit(request)
        assert router.lifecycle.wait_drained(0)
        rejected = router.metrics.counter(
            "serve_requests_total",
            labels={"status": RequestStatus.REJECTED.value})
        assert rejected.value == 1


UNPICKLED = []


def _set_unpickled_flag():
    UNPICKLED.append(True)


class _SetsAFlag:
    """Unpickling this object sets the module-level ``UNPICKLED`` flag."""

    def __reduce__(self):
        return (_set_unpickled_flag, ())


class TestWorkerTrustChecks:
    """The worker's independent second line of defense, unit-level (no
    sockets: _install_keys/_trust_check are pure given a header)."""

    @pytest.fixture
    def worker(self, tmp_path):
        w = ClusterWorker("w-test", "127.0.0.1", 0,
                          cache_dir=tmp_path / "cache")
        yield w
        w._pool.shutdown(wait=False)

    @staticmethod
    def manifest_blob(vault):
        return pack_keys(vault.manifest())

    def test_install_and_reject_revoked_version(self, worker):
        vault = KeyVault()
        vault.issue("default")
        vault.rotate("default")
        vault.revoke("default", 1)
        worker._install_keys(self.manifest_blob(vault))
        assert worker._keyvault.tenants() == ["default"]
        reason = worker._trust_check(
            {"kind": "submit", "tenant": "default", "key_version": 1})
        assert reason is not None and "StaleKeyError" in reason

    def test_merely_retired_version_passes_worker(self, worker):
        """Retired-but-not-revoked is the router's grace-window call; the
        worker must not second-guess it (mid-rotation race)."""
        vault = KeyVault()
        vault.issue("default")
        vault.rotate("default")
        worker._install_keys(self.manifest_blob(vault))
        assert worker._trust_check(
            {"kind": "submit", "tenant": "default",
             "key_version": 1}) is None

    def test_empty_vault_skips_key_checks(self, worker):
        """Before the first keys frame arrives the worker cannot
        adjudicate versions — it must not reject legitimate traffic."""
        assert worker._trust_check(
            {"kind": "submit", "tenant": "default",
             "key_version": 3}) is None

    def test_forged_manifest_leaves_vault_untouched(self, worker):
        vault = KeyVault()
        vault.issue("default")
        doc = vault.manifest()
        doc["records"][0]["status"] = "active-forever"  # voids the sig
        worker._install_keys(pack_keys(doc))
        assert worker._keyvault.tenants() == []

    def test_only_a_json_manifest_is_ever_decoded(self, worker):
        """A ``keys`` blob is JSON: a pickle is never unpickled (its
        ``__reduce__`` never runs), and a truncated or non-object JSON
        blob is refused too.  Each rejection is journaled and the vault
        installed before stays as it was."""
        vault = KeyVault()
        vault.issue("default")
        worker._install_keys(self.manifest_blob(vault))
        good = self.manifest_blob(vault)
        for blob in (pickle.dumps(_SetsAFlag()), good[:-9],
                     b'["records"]', b'"manifest"'):
            worker._install_keys(blob)
        assert UNPICKLED == []
        assert worker._keyvault.tenants() == ["default"]
        events = [row["event"] for row in worker.executor.session.trace()[
            "jobs"] if row["kind"] == "trust"]
        assert events == ["keys_installed"] + ["key_manifest_rejected"] * 4

    def test_wire_replay_rejected_but_fresh_envelopes_pass(self, worker):
        minter = EnvelopeMinter(sender="router")
        env = minter.mint()
        header = {"kind": "submit", "tenant": "default",
                  **env.as_header_fields()}
        assert worker._trust_check(header) is None
        reason = worker._trust_check(header)  # byte-identical replay
        assert reason is not None and "ReplayError" in reason
        # A fresh envelope (failover re-dispatch) still passes.
        fresh = {"kind": "submit", "tenant": "default",
                 **minter.mint().as_header_fields()}
        assert worker._trust_check(fresh) is None


class TestKeyReplication:
    def test_rotation_replicates_to_live_workers(self):
        """A rotation on the router's vault pushes a signed ``keys``
        frame to every live worker without any extra plumbing (the
        vault's on_event hook).  The test side plays the worker: a
        registered id, a real hello over the wire, then it watches the
        frames the router sends."""
        vault = KeyVault()
        vault.issue("default")
        router = ClusterRouter(num_workers=1, spawn_workers=False,
                               disk_cache=False, keyvault=vault)
        router.start()
        try:
            with dial_as_worker(router) as (_record, client):
                # Hello-time replication: the first frame back is the
                # vault (heartbeat pings may interleave afterwards).
                header, blob = recv_frame(client, token=router._token)
                assert header["kind"] == "keys"
                replica = KeyVault()
                assert replica.install_manifest(unpack_keys(blob)) == 1
                vault.rotate("default")
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    header, blob = recv_frame(client, token=router._token)
                    if header["kind"] == "keys":
                        break
                else:
                    pytest.fail("rotation never reached the worker")
                replica.install_manifest(unpack_keys(blob))
                assert replica.active_version("default") == 2
        finally:
            router.shutdown(drain=False)


class SilentRouter:
    """Accepts worker hellos, counts them, never sends a single frame —
    a half-open connection from the worker's point of view."""

    def __init__(self):
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.port = self.listener.getsockname()[1]
        self.hellos = 0
        self._socks = []
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while True:
            try:
                sock, _ = self.listener.accept()
            except OSError:
                return
            self._socks.append(sock)
            try:
                header, _ = recv_frame(sock)
                if header.get("kind") == "hello":
                    self.hellos += 1
            except Exception:
                pass

    def close(self):
        self.listener.close()
        for sock in self._socks:
            try:
                sock.close()
            except OSError:
                pass


class TestWorkerLiveness:
    def test_silent_router_ends_the_worker(self, tmp_path):
        """A router that goes silent must not hang the worker forever:
        bounded reads notice the silence and the worker exits 0.  It
        never redials, although the listener still accepts: a
        connection the router dropped stays dropped."""
        fake = SilentRouter()
        try:
            worker = ClusterWorker(
                "w-liveness", "127.0.0.1", fake.port,
                cache_dir=tmp_path / "cache",
                read_timeout_s=0.1, liveness_timeout_s=0.3)
            outcome = []
            thread = threading.Thread(
                target=lambda: outcome.append(worker.run()), daemon=True)
            thread.start()
            thread.join(timeout=20)
            assert not thread.is_alive(), "worker hung on a silent router"
            assert outcome == [0]
            time.sleep(0.3)     # let the listener count what arrived
            assert fake.hellos == 1
        finally:
            fake.close()

    def test_unreachable_router_fails_fast(self, tmp_path):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()  # nothing listens there now
        worker = ClusterWorker("w-nohome", "127.0.0.1", dead_port,
                               cache_dir=tmp_path / "cache")
        assert worker.run() == 1
        worker._pool.shutdown(wait=False)
