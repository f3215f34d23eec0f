"""Transport resilience primitives: circuit breakers, the connection
pool, the authenticated handshake, and health-aware placement.

Everything time-dependent runs against fake clocks (both
:class:`~repro.core.resilience.CircuitBreaker` and
:class:`~repro.core.remote.ConnectionPool` take an injectable ``clock``),
so breaker cooldowns and idle reaping are stepped deterministically —
no sleeps, no flakes.  The handshake unit tests script the worker side
of the exchange over a socketpair; the slow integration tests run real
worker subprocesses.
"""

import os
import socket
import threading

import pytest

from repro.core.errors import FleetAuthError, WorkerUnavailable
from repro.core.remote import (
    AUTH,
    AUTH_OK,
    CHALLENGE,
    ERROR,
    HELLO,
    JOBS,
    PING,
    PONG,
    TOKEN_ENV,
    ConnectionPool,
    RemoteProvingExecutor,
    WorkerRegistry,
    _auth_mac,
    client_handshake,
    open_connection,
    parse_worker_addr,
    recv_frame,
    send_frame,
)
from repro.core.remote_worker import LocalFleet
from repro.core.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BreakerConfig,
    CircuitBreaker,
)
from repro import serialize


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ---------------------------------------------------------------------------
# Circuit breaker state machine
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def make(self, **overrides):
        clock = FakeClock()
        return CircuitBreaker(BreakerConfig(**overrides), clock=clock), clock

    def test_starts_closed_and_admissible(self):
        breaker, _ = self.make()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.admissible()

    def test_trips_on_consecutive_failures(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.admissible()

    def test_trips_on_failure_ewma_without_consecutive_run(self):
        # fail, ok, fail, fail: never 3 in a row, but with alpha=0.35 the
        # EWMA walks 0.35 -> 0.2275 -> 0.4979 -> 0.6736 >= 0.5 at 4 samples.
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED  # only 3 samples so far
        breaker.record_failure()
        assert breaker.consecutive_failures < 3
        assert breaker.state == BREAKER_OPEN

    def test_cooldown_gates_admissibility(self):
        breaker, clock = self.make(cooldown_seconds=2.0)
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.admissible()
        clock.advance(1.9)
        assert not breaker.admissible()
        clock.advance(0.2)
        assert breaker.admissible()  # cooldown served: probe may be claimed

    def test_half_open_admits_single_probe(self):
        breaker, clock = self.make(cooldown_seconds=2.0)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(2.1)
        breaker.note_dispatch()  # first dispatcher claims the probe slot
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.admissible()  # second dispatcher is excluded

    def test_probe_failure_reopens_with_escalated_cooldown(self):
        breaker, clock = self.make(cooldown_seconds=2.0, cooldown_multiplier=2.0)
        for _ in range(3):
            breaker.record_failure()
        first_probe_delay = breaker.probe_at - clock.now
        assert first_probe_delay == pytest.approx(2.0)
        clock.advance(2.1)
        breaker.note_dispatch()
        breaker.record_failure()  # the probe itself fails
        assert breaker.state == BREAKER_OPEN
        assert breaker.probe_at - clock.now == pytest.approx(4.0)  # doubled

    def test_escalation_caps_at_max_cooldown(self):
        breaker, clock = self.make(
            cooldown_seconds=2.0, cooldown_multiplier=2.0, cooldown_max_seconds=30.0
        )
        for _ in range(3):
            breaker.record_failure()
        for _ in range(8):  # flap: every probe fails
            clock.advance(31.0)
            breaker.note_dispatch()
            breaker.record_failure()
        assert breaker.probe_at - clock.now == pytest.approx(30.0)

    def test_probe_success_closes_and_decays_history(self):
        breaker, clock = self.make(cooldown_seconds=2.0)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(2.1)
        breaker.note_dispatch()
        ewma_before = breaker.failure_ewma
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.admissible()
        # History decays rather than resets: a re-trip serves a cooldown
        # informed by the past, but a recovered worker isn't punished forever.
        assert breaker.failure_ewma < ewma_before
        assert breaker.opened_count == 0  # 1 // 2

    def test_snapshot_reports_state(self):
        breaker, _ = self.make()
        breaker.record_failure(latency_seconds=0.25)
        snap = breaker.snapshot()
        assert snap["state"] == BREAKER_CLOSED
        assert snap["samples"] == 1
        assert snap["latency_ewma"] == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# Connection pool (real sockets against a dummy acceptor, fake clock)
# ---------------------------------------------------------------------------


class _Acceptor:
    """A listening socket that accepts and holds connections (no protocol
    — the pool under test has no token, so acquire() is a bare dial)."""

    def __init__(self):
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(16)
        self.addr = self.listener.getsockname()
        self.accepted = []
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.accepted.append(conn)

    def close(self):
        self.listener.close()
        for conn in self.accepted:
            conn.close()
        self._thread.join(timeout=5)


@pytest.fixture()
def acceptor():
    server = _Acceptor()
    yield server
    server.close()


class TestConnectionPool:
    def test_acquire_release_reuses_socket(self, acceptor):
        clock = FakeClock()
        pool = ConnectionPool(idle_seconds=30.0, clock=clock)
        first = pool.acquire(acceptor.addr)
        assert not first.reused
        pool.release(first)
        again = pool.acquire(acceptor.addr)
        assert again.sock is first.sock
        assert again.reused
        assert pool.stats()["connects"] == 1
        assert pool.stats()["reuses"] == 1
        assert pool.stats()["workers_dialled"] == 1
        pool.close()

    def test_idle_reap_then_reconnect(self, acceptor):
        clock = FakeClock()
        pool = ConnectionPool(idle_seconds=30.0, clock=clock)
        conn = pool.acquire(acceptor.addr)
        pool.release(conn)
        assert pool.idle_count(acceptor.addr) == 1
        clock.advance(30.5)  # past the idle horizon
        fresh = pool.acquire(acceptor.addr)  # reaps, then dials anew
        assert not fresh.reused
        assert fresh.sock is not conn.sock
        stats = pool.stats()
        assert stats["reaped"] == 1
        assert stats["connects"] == 2
        assert stats["reuses"] == 0
        # The redial is a dial beyond one per worker: the bench's pooling
        # canary (``remote_extra_dials``) would count it.
        assert stats["connects"] - stats["workers_dialled"] == 1
        pool.close()

    def test_idle_list_is_bounded(self, acceptor):
        pool = ConnectionPool(max_idle_per_worker=2, clock=FakeClock())
        conns = [pool.acquire(acceptor.addr) for _ in range(4)]
        for conn in conns:
            pool.release(conn)
        assert pool.idle_count(acceptor.addr) == 2
        pool.close()

    def test_drop_worker_clears_idle(self, acceptor):
        pool = ConnectionPool(clock=FakeClock())
        pool.release(pool.acquire(acceptor.addr))
        assert pool.idle_count() == 1
        pool.drop_worker(acceptor.addr)
        assert pool.idle_count() == 0
        pool.close()

    def test_discarded_connection_never_returns(self, acceptor):
        pool = ConnectionPool(clock=FakeClock())
        conn = pool.acquire(acceptor.addr)
        pool.discard(conn)
        assert pool.idle_count() == 0
        assert pool.acquire(acceptor.addr).sock is not conn.sock
        pool.close()


# ---------------------------------------------------------------------------
# Handshake protocol units (scripted worker over a socketpair)
# ---------------------------------------------------------------------------

TOKEN = b"transport-test-token"


def _scripted_handshake(server_script):
    """Run client_handshake against a thread playing the worker side."""
    client_sock, server_sock = socket.socketpair()
    errors = []

    def _serve():
        try:
            server_script(server_sock)
        except Exception as exc:  # surfaced via the main thread's assert
            errors.append(exc)
        finally:
            server_sock.close()

    thread = threading.Thread(target=_serve)
    thread.start()
    try:
        client_handshake(client_sock, TOKEN)
    finally:
        client_sock.close()
        thread.join(timeout=5)
        assert not errors, errors
    return None


class TestHandshake:
    def test_mutual_handshake_succeeds(self):
        def worker(sock):
            kind, payload = recv_frame(sock)
            assert kind == HELLO
            version, nonce_c = serialize.auth_hello_from_bytes(payload)
            assert version == serialize.AUTH_PROTOCOL_VERSION
            nonce_s = b"\x5a" * serialize.AUTH_NONCE_BYTES
            send_frame(sock, CHALLENGE, serialize.auth_challenge_to_bytes(nonce_s))
            kind, payload = recv_frame(sock)
            assert kind == AUTH
            mac = serialize.auth_mac_from_bytes(payload)
            assert mac == _auth_mac(TOKEN, b"client", nonce_c, nonce_s)
            send_frame(
                sock,
                AUTH_OK,
                serialize.auth_mac_to_bytes(
                    _auth_mac(TOKEN, b"worker", nonce_s, nonce_c)
                ),
            )

        _scripted_handshake(worker)  # no raise = authenticated both ways

    def test_explicit_rejection_is_typed_auth_error(self):
        def worker(sock):
            recv_frame(sock)  # HELLO
            send_frame(
                sock,
                ERROR,
                serialize.remote_error_to_bytes("auth-failed", "token mismatch"),
            )

        with pytest.raises(FleetAuthError, match="token mismatch"):
            _scripted_handshake(worker)

    def test_impostor_worker_fails_mutual_auth(self):
        def worker(sock):
            recv_frame(sock)
            nonce_s = b"\x5a" * serialize.AUTH_NONCE_BYTES
            send_frame(sock, CHALLENGE, serialize.auth_challenge_to_bytes(nonce_s))
            recv_frame(sock)  # AUTH (an impostor can't verify it anyway)
            send_frame(
                sock, AUTH_OK, serialize.auth_mac_to_bytes(b"\x00" * 32)
            )

        with pytest.raises(FleetAuthError, match="mutual"):
            _scripted_handshake(worker)

    def test_wrong_frame_kind_is_auth_error(self):
        def worker(sock):
            recv_frame(sock)
            send_frame(sock, PONG, b"")

        with pytest.raises(FleetAuthError, match="expected CHALLENGE"):
            _scripted_handshake(worker)

    def test_peer_death_is_connection_error_not_auth_error(self):
        # A worker that dies mid-handshake is a transport failure and must
        # stay retryable; FleetAuthError here would poison the chunk.
        def worker(sock):
            recv_frame(sock)  # HELLO, then hang up without a word

        with pytest.raises(ConnectionError):
            _scripted_handshake(worker)


# ---------------------------------------------------------------------------
# Health-aware placement (registry units, fake clock, no network)
# ---------------------------------------------------------------------------


class TestHealthAwarePlacement:
    def make_registry(self, n=2):
        clock = FakeClock()
        addrs = [f"h{i}:{9000 + i}" for i in range(1, n + 1)]
        return WorkerRegistry(addrs, clock=clock), clock

    def test_uniform_fleet_round_robins(self):
        registry, _ = self.make_registry(3)
        picks = [registry.next_worker()[0] for _ in range(6)]
        assert picks == ["h1", "h2", "h3", "h1", "h2", "h3"]

    def test_degraded_worker_is_shed_then_rejoins(self):
        registry, _ = self.make_registry(2)
        h1 = ("h1", 9001)
        # Two failures (below the trip threshold) push h1's failure EWMA
        # into a worse health bucket: placement prefers h2 exclusively.
        registry.record_failure(h1)
        registry.record_failure(h1)
        assert [registry.next_worker()[0] for _ in range(3)] == ["h2"] * 3
        # Successes decay the EWMA; once buckets tie again, round-robin
        # resumes and h1 shares the load.
        registry.record_success(h1)
        registry.record_success(h1)
        picks = [registry.next_worker()[0] for _ in range(4)]
        assert set(picks) == {"h1", "h2"}

    def test_slow_worker_is_demoted_on_latency(self):
        registry, _ = self.make_registry(2)
        for _ in range(3):
            registry.record_success(("h1", 9001), latency_seconds=1.0)
            registry.record_success(("h2", 9002), latency_seconds=0.01)
        assert [registry.next_worker()[0] for _ in range(3)] == ["h2"] * 3

    def test_fully_tripped_fleet_still_carries_probes(self):
        registry, clock = self.make_registry(2)
        for addr in [("h1", 9001), ("h2", 9002)]:
            for _ in range(3):
                registry.record_failure(addr)
        assert registry.placeable_count() == 1  # planning floor
        # Placement must still hand out a worker: the half-open probes
        # are the only path back to a working fleet.
        assert registry.next_worker()[0] in ("h1", "h2")
        clock.advance(60.0)
        assert registry.placeable_count() >= 1

    def test_dead_fleet_raises(self):
        registry, _ = self.make_registry(2)
        registry.mark_dead(("h1", 9001))
        registry.mark_dead(("h2", 9002))
        assert registry.placeable_count() == 0
        with pytest.raises(WorkerUnavailable):
            registry.next_worker()

    def test_ping_failure_marks_dead_but_never_feeds_breaker(self):
        with socket.socket() as s:  # grab a port nobody is listening on
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        registry = WorkerRegistry([f"127.0.0.1:{port}"], connect_timeout=0.5)
        addr = ("127.0.0.1", port)
        assert registry.ping(addr) is None
        worker = registry.workers()[0]
        assert not worker.healthy
        assert worker.breaker.samples == 0  # reachability != dispatch quality


# ---------------------------------------------------------------------------
# Real fleet integration: auth enforcement and socket reuse (slow)
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestAuthenticatedFleet:
    def test_auth_enforcement_and_pooled_dispatch(self, tmp_path, monkeypatch):
        token = "fleet-integration-token"
        monkeypatch.setenv(TOKEN_ENV, token)
        fleet = LocalFleet(2, keystore_root=str(tmp_path / "keys"))
        addrs = fleet.addrs
        try:
            addr = parse_worker_addr(addrs[0])

            # Wrong token: typed rejection during the handshake.
            with pytest.raises(FleetAuthError):
                open_connection(addr, 2.0, b"not-the-token")

            # No handshake at all: the worker rejects the first frame with
            # a typed auth error BEFORE decoding its payload — the payload
            # here is garbage that would crash any decoder.
            with socket.create_connection(addr, timeout=2.0) as bare:
                bare.settimeout(5.0)
                send_frame(bare, JOBS, b"\xff" * 64)
                kind, payload = recv_frame(bare)
            assert kind == ERROR
            err_kind, message, _ = serialize.remote_error_from_bytes(payload)
            assert err_kind == "auth-failed"
            assert "handshake" in message

            # Right token: full session works, and the executor's pool
            # demonstrably reuses sockets (dispatches >> connects).
            executor = RemoteProvingExecutor(addrs)
            try:
                for _ in range(12):
                    worker_addr = executor.registry.next_worker()
                    conn = executor.pool.acquire(worker_addr)
                    send_frame(conn.sock, PING)
                    kind, _ = recv_frame(conn.sock)
                    assert kind == PONG
                    executor.pool.release(conn)
                stats = executor.transport_stats()
                assert stats["connects"] == 2  # one per worker
                assert stats["workers_dialled"] == 2
                assert stats["reuses"] == 10
            finally:
                executor.shutdown()
        finally:
            fleet.close()
