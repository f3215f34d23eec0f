"""Remote proving fleet: frame protocol, registry, and executor.

Three layers of coverage:

* **Frames** — ``encode_frame``/``recv_frame`` over socketpairs: round
  trips for every kind, clean-EOF vs mid-frame-EOF discipline, and the
  hostile-prefix guarantees (bad magic / unknown kind / oversize length
  raise *before* any payload byte is read).
* **Registry** — round-robin over the healthy set, dead-marking,
  ``WorkerUnavailable`` on an empty or fully-dead fleet, PING/PONG
  revival against real loopback workers.
* **The executor through the service** — loopback fleets must produce
  the same results as the process tier (byte-identical for Groth16 under
  a pinned worker rng seed and a shared keystore root), survive a worker
  dying mid-batch with zero lost or duplicated jobs, distribute keys to
  diskless workers on demand, and degrade remote → serial when the
  whole fleet is unreachable.
"""

import os
import socket
import struct
import time

import pytest
from _matutil import rand_mats

from repro import serialize
from repro.core import (
    CircuitRegistry,
    GroupChunkPolicy,
    KeyStore,
    ProvingService,
    RetryPolicy,
    WorkerRegistry,
    WorkerUnavailable,
)
from repro.core import remote
from repro.core.remote import (
    FRAME_KINDS,
    JOBS,
    KEY_PUSH,
    MAGIC,
    MAX_FRAME,
    PING,
    PONG,
    RESULTS,
    RemoteProvingExecutor,
    encode_frame,
    parse_worker_addr,
    recv_frame,
    send_frame,
)
from repro.core.remote_worker import LocalFleet

FAST = RetryPolicy(
    max_attempts=3,
    backoff_base_seconds=0.001,
    lease_floor_seconds=5.0,
    lease_multiplier=40.0,
)


def make_service(tmp_path, executor, **kwargs):
    registry = CircuitRegistry()
    keystore = KeyStore(root=str(tmp_path / "keys"), registry=registry)
    kwargs.setdefault("retry_policy", FAST)
    return ProvingService(
        workers=2,
        registry=registry,
        keystore=keystore,
        executor=executor,
        chunk_policy=GroupChunkPolicy(
            workers=2, min_dispatch_seconds=0.0, target_chunk_seconds=0.0001
        ),
        **kwargs,
    )


def submit_jobs(svc, n=6, backend="spartan", shape=(3, 4, 2), seed=7):
    ids = []
    for i in range(n):
        x, w = rand_mats(*shape, seed=seed + i)
        ids.append(svc.submit(x, w, strategy="crpc_psq", backend=backend))
    return ids


def free_port():
    """A port that was just free — nothing listens on it afterwards."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


# -- frame protocol ---------------------------------------------------------------


class TestFrameCodec:
    def pair(self):
        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        return a, b

    @pytest.mark.parametrize("kind", FRAME_KINDS)
    def test_roundtrip_every_kind(self, kind):
        a, b = self.pair()
        with a, b:
            payload = bytes([kind]) * 37
            send_frame(a, kind, payload)
            assert recv_frame(b) == (kind, payload)

    def test_empty_payload_roundtrip(self):
        a, b = self.pair()
        with a, b:
            send_frame(a, PING)
            assert recv_frame(b) == (PING, b"")

    def test_clean_eof_at_boundary_is_none(self):
        a, b = self.pair()
        with b:
            send_frame(a, PING)
            a.close()
            assert recv_frame(b) == (PING, b"")
            assert recv_frame(b) is None  # peer hung up between frames

    @pytest.mark.parametrize("cut", [1, 4, 8])
    def test_eof_mid_header_raises(self, cut):
        a, b = self.pair()
        frame = encode_frame(JOBS, b"payload-bytes")
        with b:
            a.sendall(frame[:cut])
            a.close()
            with pytest.raises(ConnectionError):
                recv_frame(b)

    def test_eof_mid_payload_raises(self):
        a, b = self.pair()
        frame = encode_frame(RESULTS, b"x" * 100)
        with b:
            a.sendall(frame[:-40])
            a.close()
            with pytest.raises(ConnectionError):
                recv_frame(b)

    def test_bad_magic_rejected_at_offset_zero(self):
        a, b = self.pair()
        frame = bytearray(encode_frame(JOBS, b"hi"))
        frame[:4] = b"EVIL"
        with a, b:
            a.sendall(bytes(frame))
            with pytest.raises(serialize.SerializationError) as ei:
                recv_frame(b)
            assert ei.value.offset == 0

    def test_unknown_kind_rejected(self):
        a, b = self.pair()
        with a, b:
            a.sendall(MAGIC + bytes([200]) + struct.pack(">I", 2) + b"hi")
            with pytest.raises(serialize.SerializationError) as ei:
                recv_frame(b)
            assert ei.value.offset == 4

    def test_oversize_length_rejected_before_payload_read(self):
        """A hostile length prefix must raise from the 9 header bytes
        alone — were the implementation to wait for the declared payload,
        this would hang until the socket timeout instead."""
        a, b = self.pair()
        with a, b:
            a.sendall(MAGIC + bytes([JOBS]) + struct.pack(">I", MAX_FRAME + 1))
            t0 = time.monotonic()
            with pytest.raises(serialize.SerializationError) as ei:
                recv_frame(b)
            assert time.monotonic() - t0 < 1.0
            assert "MAX_FRAME" in str(ei.value)

    def test_encode_rejects_oversize_and_unknown(self):
        with pytest.raises(serialize.SerializationError):
            encode_frame(99, b"")
        big = bytearray(MAX_FRAME + 1)
        with pytest.raises(serialize.SerializationError):
            encode_frame(JOBS, bytes(big))

    def test_parse_worker_addr(self):
        assert parse_worker_addr("10.0.0.7:7841") == ("10.0.0.7", 7841)
        assert parse_worker_addr(("host", "80")) == ("host", 80)
        for bad in ("no-port", ":123", "host:", "host:abc"):
            with pytest.raises(ValueError):
                parse_worker_addr(bad)


# -- registry ---------------------------------------------------------------------


class TestWorkerRegistry:
    def test_round_robin_skips_dead(self):
        reg = WorkerRegistry(["h1:1", "h2:2", "h3:3"])
        seen = [reg.next_worker() for _ in range(3)]
        assert seen == [("h1", 1), ("h2", 2), ("h3", 3)]
        reg.mark_dead(("h2", 2))
        assert reg.live_count() == 2
        seen = {reg.next_worker() for _ in range(4)}
        assert ("h2", 2) not in seen

    def test_empty_or_fully_dead_fleet_raises_typed(self):
        with pytest.raises(WorkerUnavailable):
            WorkerRegistry([]).next_worker()
        reg = WorkerRegistry(["h1:1"])
        reg.mark_dead(("h1", 1))
        with pytest.raises(WorkerUnavailable):
            reg.next_worker()

    def test_ping_marks_unreachable_dead_and_live_alive(self):
        fleet = LocalFleet(1)
        addrs = fleet.addrs
        try:
            dead = ("127.0.0.1", free_port())
            reg = WorkerRegistry([addrs[0], dead], connect_timeout=2.0)
            assert reg.ping(dead) is None
            stats = reg.ping(parse_worker_addr(addrs[0]))
            assert stats is not None and "pid" in stats
            assert reg.check_now() == 1
            live = reg.healthy()
            assert [w.addr for w in live] == [parse_worker_addr(addrs[0])]
        finally:
            fleet.close()


# -- executor through the service -------------------------------------------------


class TestRemoteService:
    def test_spartan_batch_serves_and_verifies_remotely(self, tmp_path):
        fleet = LocalFleet(2)
        addrs = fleet.addrs
        svc = make_service(tmp_path, "remote", remote_workers=addrs)
        try:
            ids = submit_jobs(svc, n=6)
            report = svc.run(verify=True)
            assert report.verified is True
            assert sorted(r.job_id for r in report.results) == sorted(ids)
            ((key, placement),) = report.placements.items()
            assert placement == "remote"
        finally:
            svc.close()
            fleet.close()

    def test_groth16_byte_identical_to_process_tier(self, tmp_path, monkeypatch):
        """The acceptance bar: executor="remote" and executor="process"
        produce byte-identical bundles on the same job set — same keypair
        (shared keystore root), same per-job proof randomness (pinned
        worker rng seed, derived per job id so chunking cannot matter)."""
        monkeypatch.setenv("REPRO_WORKER_RNG_SEED", "acceptance-8")
        jobs = [rand_mats(2, 3, 2, seed=s) for s in range(4)]

        svc = make_service(tmp_path, "process")
        try:
            for x, w in jobs:
                svc.submit(x, w, strategy="crpc_psq", backend="groth16")
            process_report = svc.run(verify=True)
        finally:
            svc.close()
        assert process_report.verified is True
        assert all(p == "process" for p in process_report.placements.values())

        # Diskless workers launched *after* the seed is in the env; the
        # keypair reaches them over the wire via KEY_REQUEST/KEY_PUSH.
        fleet = LocalFleet(2)
        addrs = fleet.addrs
        svc = make_service(tmp_path, "remote", remote_workers=addrs)
        try:
            for x, w in jobs:
                svc.submit(x, w, strategy="crpc_psq", backend="groth16")
            remote_report = svc.run(verify=True)
        finally:
            svc.close()
            fleet.close()
        assert remote_report.verified is True
        assert all(p == "remote" for p in remote_report.placements.values())

        by_id = lambda rep: {r.job_id: r.bundle_bytes for r in rep.results}
        assert by_id(remote_report) == by_id(process_report)

    def test_dead_worker_redispatches_zero_lost_zero_duplicated(self, tmp_path):
        """Kill one of two workers before dispatch: every chunk routed to
        the corpse must come back typed, re-dispatch to the survivor, and
        the batch must end with exactly one proof per job."""
        fleet = LocalFleet(2)
        addrs = fleet.addrs
        fleet.processes[0].kill()
        fleet.processes[0].join(10)
        svc = make_service(tmp_path, "remote", remote_workers=addrs)
        try:
            ids = submit_jobs(svc, n=6)
            report = svc.run(verify=True)
            assert report.verified is True
            assert sorted(r.job_id for r in report.results) == sorted(ids)
            assert len({r.job_id for r in report.results}) == len(ids)
            assert not report.errors and not report.quarantined()
            # the corpse is now shunned...
            assert svc._remote.registry.live_count() == 1
            # ...and the casualty was charged to the fleet ladder
            assert svc._remote.breakages >= 1
        finally:
            svc.close()
            fleet.close()

    def test_key_distribution_to_diskless_workers(self, tmp_path):
        """Groth16 on a fleet with no keystore: workers must adopt the
        dispatcher's keypair over the wire (observable in PONG stats),
        and keep it cached across batches."""
        fleet = LocalFleet(2)
        addrs = fleet.addrs
        svc = make_service(tmp_path, "remote", remote_workers=addrs)
        try:
            submit_jobs(svc, n=4, backend="groth16", shape=(2, 2, 2))
            report = svc.run(verify=True)
            assert report.verified is True
            reg = svc._remote.registry

            def adopted():
                total = 0
                for addr in addrs:
                    stats = reg.ping(parse_worker_addr(addr)) or {}
                    total += stats.get("keys_adopted", 0)
                return total

            first = adopted()
            assert first >= 1  # at least one worker pulled the key
            submit_jobs(svc, n=4, backend="groth16", shape=(2, 2, 2), seed=99)
            report = svc.run(verify=True)
            assert report.verified is True
            assert adopted() == first  # cached: no re-adoption
        finally:
            svc.close()
            fleet.close()

    def test_unreachable_fleet_degrades_remote_to_serial(self, tmp_path):
        """Every dispatch refused: chunks fall back inline (no job lost)
        and the executor steps down the ladder to the serial tier."""
        fleet = [f"127.0.0.1:{free_port()}" for _ in range(2)]
        svc = make_service(
            tmp_path,
            "remote",
            remote_workers=fleet,
            retry_policy=RetryPolicy(
                max_attempts=2,
                backoff_base_seconds=0.001,
                lease_floor_seconds=5.0,
                max_pool_breakages=2,
            ),
        )
        try:
            ids = submit_jobs(svc, n=4)
            report = svc.run(verify=True)
            assert report.verified is True  # inline fallback served them
            assert sorted(r.job_id for r in report.results) == sorted(ids)
            assert any("remote->inline" in f for f in report.fallbacks)
            assert any("remote->serial" in f for f in report.fallbacks)
            assert svc.executor == "serial"
            assert svc._remote is None
        finally:
            svc.close()

    def test_shutdown_workers_drains_owned_fleet(self, tmp_path):
        fleet = LocalFleet(1)
        addrs = fleet.addrs
        try:
            ex = RemoteProvingExecutor(addrs)
            ex.shutdown_workers()
            ex.shutdown()
            fleet.processes[0].join(10)
            assert fleet.processes[0].exitcode == 0
        finally:
            fleet.close()

    def test_remote_executor_requires_a_fleet(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_REMOTE_WORKERS", raising=False)
        with pytest.raises(ValueError, match="remote_workers"):
            make_service(tmp_path, "remote")
        monkeypatch.setenv("REPRO_REMOTE_WORKERS", f"127.0.0.1:{free_port()}")
        svc = make_service(tmp_path, "remote")  # env fleet accepted
        assert svc._remote is not None
        svc.close()


class TestAuthenticatedRemoteService:
    """The full serving path with ``REPRO_FLEET_TOKEN`` set fleet-wide —
    every session (dispatch, key distribution, heartbeats, teardown)
    runs over the HMAC handshake, and behavior is otherwise identical
    to the unauthenticated fleet.  CI's remote job exports the token, so
    the rest of this module runs authenticated there too."""

    def test_batch_serves_verified_over_authenticated_sessions(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(remote.TOKEN_ENV, "remote-suite-token")
        fleet = LocalFleet(2)
        addrs = fleet.addrs
        svc = make_service(tmp_path, "remote", remote_workers=addrs)
        try:
            ids = submit_jobs(svc, n=6)
            report = svc.run(verify=True)
            assert report.verified is True
            assert sorted(r.job_id for r in report.results) == sorted(ids)
            assert all(p == "remote" for p in report.placements.values())
            assert not report.fallbacks

            # Second batch over the SAME service: the pool must reuse the
            # authenticated sockets rather than re-dialing per dispatch.
            submit_jobs(svc, n=6, seed=50)
            report = svc.run(verify=True)
            assert report.verified is True
            stats = svc._remote.transport_stats()
            assert stats["connects"] <= len(addrs)
            assert stats["reuses"] >= 1
            assert stats["dispatches"] > stats["connects"]
        finally:
            svc.close()
            fleet.close()

    def test_wrong_token_client_is_rejected_typed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(remote.TOKEN_ENV, "remote-suite-token")
        fleet = LocalFleet(1)
        addrs = fleet.addrs
        try:
            with pytest.raises(remote.FleetAuthError) as excinfo:
                remote.open_connection(
                    parse_worker_addr(addrs[0]), 2.0, b"wrong-token"
                )
            assert excinfo.value.kind == "auth-failed"
            assert excinfo.value.retryable is False
        finally:
            fleet.close()
