"""Chunk dispatch to proving workers over TCP — the one dispatch path.

Circuit groups travel as bytes-only job envelopes and come back as
wire-format bundles, over a socket to a worker running
:func:`repro.core.remote_worker.serve`.  The workers are either other
hosts (``executor="remote"``) or a :class:`~repro.core.remote_worker.
LocalFleet` of loopback workers that the service starts and owns
(``executor="process"``); the executor below drives both:

* **Frames.**  Every message is ``MAGIC ‖ kind ‖ u32 length ‖ payload``
  (:func:`send_frame` / :func:`recv_frame`).  The length prefix is capped
  by :data:`MAX_FRAME` *before* any allocation, the magic pins the
  protocol, and a connection that dies mid-frame raises — a remote peer
  is untrusted input, so the decode discipline of
  :mod:`repro.serialize` applies to the transport layer too.
* **Pooled, persistent connections.**  :class:`ConnectionPool` keeps one
  small LIFO of authenticated sockets per worker: a dispatch *acquires*
  (reusing the warmest idle socket or dialling a new one), sends a
  ``JOBS`` frame, waits for ``RESULTS`` or a typed ``ERROR`` — a worker
  that misses key material interleaves a ``KEY_REQUEST``/``KEY_PUSH``
  exchange first — then *releases* the socket for the next chunk.  Idle
  sockets are reaped after ``idle_seconds``; a reused socket that turns
  out to be half-open (the worker died while it sat idle) is discarded
  and the dispatch silently retried once on a fresh dial.  The
  ``connects``/``reuses`` counters make reuse auditable — the bench
  records ``connects_per_proof`` and the regression gate watches it.
* **Authenticated sessions.**  With ``REPRO_FLEET_TOKEN`` set, every new
  connection runs an HMAC-SHA256 challenge–response handshake
  (``HELLO``/``CHALLENGE``/``AUTH``/``AUTH_OK`` frames, mutual,
  constant-time compares) before any payload-bearing frame; workers
  reject unauthenticated peers with a typed ``auth-failed`` ERROR
  *before decoding a single job byte*.
* **Failure accounting is reused wholesale.**  The socket layer maps
  failures into the PR-6 taxonomy — connection refused/empty fleet ⇒
  :class:`~repro.core.errors.WorkerUnavailable`, handshake rejection ⇒
  :class:`~repro.core.errors.FleetAuthError`, connection lost mid-chunk
  ⇒ :class:`~repro.core.errors.WorkerCrash`, socket deadline (the chunk
  lease) ⇒ :class:`~repro.core.errors.ChunkTimeout` — and hands them to
  the :func:`repro.core.pool.resolve_chunk` retry/bisect/quarantine loop.
* **Owned workers are relaunched.**  With a ``fleet``, every dispatch
  round first kills and relaunches any worker that exited or that the
  registry marks dead (:meth:`RemoteProvingExecutor.revive`), and each
  relaunch counts as one breakage.
* **Health-aware placement.**  :class:`WorkerRegistry` pairs each worker
  with a :class:`~repro.core.resilience.CircuitBreaker` fed by dispatch
  outcomes (failure + latency EWMAs).  Placement spreads round-robin
  over the *best-scoring admissible* workers — a flapping host trips its
  breaker open and is shed before it burns retry budget, then rejoins
  via a single half-open probe after a deterministic cooldown.
  Reachability stays separate: connection failures mark a host dead,
  heartbeat ``PING``/``PONG`` probes (optional background thread) revive
  it, and :meth:`WorkerRegistry.placeable_count` feeds
  :meth:`repro.core.pool.GroupChunkPolicy.plan` so chunk counts follow
  the fleet's actually-usable capacity.

The server side lives in :mod:`repro.core.remote_worker`
(``python -m repro.core.remote_worker`` on another host).
"""

from __future__ import annotations

import hmac
import json
import os
import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

# NOTE: ``serialize`` is used via attribute access only — this module is
# imported from ``repro.core.__init__`` while ``repro.serialize`` may be
# mid-initialisation (serialize itself imports ``core.errors``), so
# ``from ..serialize import <name>`` would be a circular-import landmine.
from .. import serialize
from .errors import (
    ChunkTimeout,
    CorruptEnvelope,
    FleetAuthError,
    WorkerCrash,
    WorkerUnavailable,
    error_from_kind,
    wrap_error,
)
from .pool import ChunkTag, PoolOutcome, resolve_chunk
from .resilience import BreakerConfig, CircuitBreaker, RetryPolicy

# -- frame protocol --------------------------------------------------------------

MAGIC = b"RPV1"

#: hard ceiling on a frame payload: nothing in this stack legitimately
#: ships more than a few MiB per chunk, and an adversarial (or corrupt)
#: length prefix must never size an allocation.
MAX_FRAME = 1 << 26  # 64 MiB

# frame kinds (one byte on the wire)
JOBS = 1          # dispatcher -> worker: prove_jobs envelope
RESULTS = 2       # worker -> dispatcher: job_results envelope
ERROR = 3         # worker -> dispatcher: remote_error payload (typed)
KEY_REQUEST = 4   # worker -> dispatcher: circuit_key payload
KEY_PUSH = 5      # dispatcher -> worker: keypair bytes (empty = unavailable)
PING = 6          # dispatcher -> worker: heartbeat probe (empty payload)
PONG = 7          # worker -> dispatcher: JSON stats payload
SHUTDOWN = 8      # dispatcher -> worker: drain and exit (empty payload)
HELLO = 9         # client -> worker: auth version + client nonce
CHALLENGE = 10    # worker -> client: server nonce
AUTH = 11         # client -> worker: HMAC over both nonces
AUTH_OK = 12      # worker -> client: reciprocal HMAC (mutual auth)

FRAME_KINDS = (
    JOBS,
    RESULTS,
    ERROR,
    KEY_REQUEST,
    KEY_PUSH,
    PING,
    PONG,
    SHUTDOWN,
    HELLO,
    CHALLENGE,
    AUTH,
    AUTH_OK,
)

_HEADER = struct.Struct(">4sBI")


def encode_frame(kind: int, payload: bytes) -> bytes:
    """``MAGIC ‖ kind ‖ u32 length ‖ payload``; rejects oversize payloads
    on the way *out* too — a frame this side cannot send, no peer could
    have accepted."""
    if kind not in FRAME_KINDS:
        raise serialize.SerializationError(f"unknown frame kind {kind}")
    if len(payload) > MAX_FRAME:
        raise serialize.SerializationError(
            f"frame payload {len(payload)} exceeds MAX_FRAME {MAX_FRAME}"
        )
    return _HEADER.pack(MAGIC, kind, len(payload)) + payload


def send_frame(sock: socket.socket, kind: int, payload: bytes = b"") -> None:
    sock.sendall(encode_frame(kind, payload))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Exactly ``n`` bytes or ``ConnectionError`` — a peer that goes away
    mid-frame must fail loudly, never yield a short read downstream."""
    chunks = []
    remaining = n
    while remaining:
        data = sock.recv(min(remaining, 1 << 20))
        if not data:
            raise ConnectionError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes read)"
            )
        chunks.append(data)
        remaining -= len(data)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Tuple[int, bytes]]:
    """One validated frame, or ``None`` on a clean EOF at a frame
    boundary (the peer hung up between messages — a normal end of
    conversation, unlike an EOF *inside* a frame, which raises).

    Raises :class:`~repro.serialize.SerializationError` (a typed
    ``ValueError``) on a bad magic, unknown kind, or a length prefix
    above :data:`MAX_FRAME` — checked before a single payload byte is
    read, so a hostile prefix never sizes an allocation.
    """
    first = sock.recv(1)
    if not first:
        return None
    header = first + _recv_exact(sock, _HEADER.size - 1)
    magic, kind, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise serialize.SerializationError(f"bad frame magic {magic!r}", offset=0)
    if kind not in FRAME_KINDS:
        raise serialize.SerializationError(f"unknown frame kind {kind}", offset=4)
    if length > MAX_FRAME:
        raise serialize.SerializationError(
            f"frame length {length} exceeds MAX_FRAME {MAX_FRAME}", offset=5
        )
    payload = _recv_exact(sock, length) if length else b""
    return kind, payload


# -- authenticated session handshake ----------------------------------------------

#: shared-secret fleet token; when set (non-empty) both sides require the
#: HMAC handshake on every connection before any payload-bearing frame
TOKEN_ENV = "REPRO_FLEET_TOKEN"


def fleet_token(env=os.environ) -> Optional[bytes]:
    """The configured fleet token as bytes, or ``None`` (auth disabled)."""
    value = env.get(TOKEN_ENV)
    return value.encode("utf-8") if value else None


def _auth_mac(token: bytes, role: bytes, mine: bytes, theirs: bytes) -> bytes:
    """HMAC-SHA256 binding both session nonces under a role label, so a
    client proof can never be replayed as a worker proof (or vice versa)."""
    return hmac.new(token, b"RPV1-auth\x00" + role + mine + theirs, "sha256").digest()


def client_handshake(sock: socket.socket, token: bytes) -> None:
    """Run the client side of the HELLO/CHALLENGE/AUTH/AUTH_OK exchange.

    Raises :class:`~repro.core.errors.FleetAuthError` on an explicit
    rejection, a malformed handshake frame, or a failed MAC check —
    genuine trust failures, which are terminal (retrying cannot help).
    A peer that merely *dies* mid-handshake raises ``ConnectionError``
    instead: that is a transport failure like any other and must stay
    retryable, or a worker crash during dial would masquerade as an auth
    problem and poison the chunk.  Mutual: the worker's ``AUTH_OK``
    proof is verified too, so a client cannot be lured into shipping
    witness-bearing job payloads to an impostor worker.
    """

    def _expect(expected_kind: int, what: str) -> bytes:
        try:
            frame = recv_frame(sock)
        except serialize.SerializationError as exc:
            raise FleetAuthError(f"malformed frame awaiting {what}: {exc}") from exc
        if frame is None:
            raise ConnectionError(f"worker hung up awaiting {what}")
        kind, payload = frame
        if kind == ERROR:
            err_kind, message, job_id = serialize.remote_error_from_bytes(payload)
            raise error_from_kind(err_kind, message, job_id=job_id)
        if kind != expected_kind:
            raise FleetAuthError(f"expected {what}, got frame kind {kind}")
        return payload

    nonce_c = os.urandom(serialize.AUTH_NONCE_BYTES)
    send_frame(sock, HELLO, serialize.auth_hello_to_bytes(nonce_c))
    challenge = _expect(CHALLENGE, "CHALLENGE")
    try:
        nonce_s = serialize.auth_challenge_from_bytes(challenge)
    except serialize.SerializationError as exc:
        raise FleetAuthError(f"malformed CHALLENGE: {exc}") from exc
    send_frame(
        sock,
        AUTH,
        serialize.auth_mac_to_bytes(_auth_mac(token, b"client", nonce_c, nonce_s)),
    )
    proof = _expect(AUTH_OK, "AUTH_OK")
    try:
        worker_mac = serialize.auth_mac_from_bytes(proof)
    except serialize.SerializationError as exc:
        raise FleetAuthError(f"malformed AUTH_OK: {exc}") from exc
    if not hmac.compare_digest(
        worker_mac, _auth_mac(token, b"worker", nonce_s, nonce_c)
    ):
        raise FleetAuthError("worker failed mutual authentication")


def open_connection(
    addr: Tuple[str, int], timeout: float, token: Optional[bytes]
) -> socket.socket:
    """Dial ``addr`` and (when a token is configured) authenticate the
    session; the socket comes back with ``timeout`` installed.  Raises
    ``OSError`` for reachability failures and
    :class:`~repro.core.errors.FleetAuthError` for handshake ones."""
    sock = socket.create_connection(addr, timeout=timeout)
    try:
        sock.settimeout(timeout)
        if token is not None:
            client_handshake(sock, token)
    except BaseException:
        sock.close()
        raise
    return sock


# -- connection pool --------------------------------------------------------------

@dataclass
class PooledConnection:
    """One persistent socket plus the bookkeeping the pool needs."""

    sock: socket.socket
    addr: Tuple[str, int]
    last_used: float
    reused: bool = False  # True when acquire() handed out an idle socket


class ConnectionPool:
    """Per-worker pools of persistent (optionally authenticated) sockets.

    ``acquire`` pops the most-recently-used idle socket for the address
    (LIFO — the warmest socket is the least likely to have hit the
    worker's idle horizon) or dials a new one; ``release`` returns a
    socket after a clean exchange; ``discard`` destroys one after any
    fault.  Idle sockets older than ``idle_seconds`` are reaped on every
    acquire/release.  ``connects``/``reuses``/``reaped`` counters are the
    auditable record that pooling actually pools — asserted in tests; the
    bench gates ``connects`` beyond one per worker dialled
    (``workers_dialled`` in :meth:`stats`) at zero.
    """

    def __init__(
        self,
        connect_timeout: float = 2.0,
        idle_seconds: float = 30.0,
        max_idle_per_worker: int = 4,
        auth_token: Optional[bytes] = None,
        clock=time.monotonic,
    ):
        self.connect_timeout = connect_timeout
        self.idle_seconds = idle_seconds
        self.max_idle_per_worker = max_idle_per_worker
        self.auth_token = auth_token
        self.clock = clock
        self._idle: Dict[Tuple[str, int], List[PooledConnection]] = {}
        self._guard = threading.Lock()
        self.connects = 0
        self.reuses = 0
        self.reaped = 0
        self._dialled: set = set()

    def acquire(self, addr: Tuple[str, int]) -> PooledConnection:
        """An open (authenticated) connection to ``addr`` — reused when a
        fresh-enough idle one exists, newly dialled otherwise."""
        self.reap()
        with self._guard:
            idle = self._idle.get(addr)
            if idle:
                conn = idle.pop()
                conn.reused = True
                self.reuses += 1
                return conn
        sock = open_connection(addr, self.connect_timeout, self.auth_token)
        with self._guard:
            self.connects += 1
            self._dialled.add(addr)
        return PooledConnection(sock=sock, addr=addr, last_used=self.clock())

    def release(self, conn: PooledConnection) -> None:
        """Return a healthy connection for reuse (closed instead when the
        per-worker idle list is full)."""
        conn.last_used = self.clock()
        conn.reused = False
        with self._guard:
            idle = self._idle.setdefault(conn.addr, [])
            if len(idle) < self.max_idle_per_worker:
                idle.append(conn)
                conn = None
        if conn is not None:
            self._close(conn)
        self.reap()

    def discard(self, conn: PooledConnection) -> None:
        """Destroy a connection after a fault; never returns it to the
        pool."""
        self._close(conn)

    def drop_worker(self, addr: Tuple[str, int]) -> None:
        """Close every idle connection to a worker believed dead."""
        with self._guard:
            idle = self._idle.pop(addr, [])
        for conn in idle:
            self._close(conn)

    def reap(self, now: Optional[float] = None) -> int:
        """Close idle connections past the idle horizon; returns how many
        were reaped (cumulative count in ``self.reaped``)."""
        now = self.clock() if now is None else now
        stale: List[PooledConnection] = []
        with self._guard:
            for addr, idle in self._idle.items():
                keep = []
                for conn in idle:
                    if now - conn.last_used > self.idle_seconds:
                        stale.append(conn)
                    else:
                        keep.append(conn)
                self._idle[addr] = keep
            self.reaped += len(stale)
        for conn in stale:
            self._close(conn)
        return len(stale)

    def close(self) -> None:
        """Close every idle connection (in-flight ones are their
        borrowers' problem).  Idempotent."""
        with self._guard:
            all_idle = [c for idle in self._idle.values() for c in idle]
            self._idle.clear()
        for conn in all_idle:
            self._close(conn)

    def idle_count(self, addr: Optional[Tuple[str, int]] = None) -> int:
        with self._guard:
            if addr is not None:
                return len(self._idle.get(addr, []))
            return sum(len(idle) for idle in self._idle.values())

    def stats(self) -> dict:
        with self._guard:
            return {
                "connects": self.connects,
                "workers_dialled": len(self._dialled),
                "reuses": self.reuses,
                "reaped": self.reaped,
                "idle": sum(len(idle) for idle in self._idle.values()),
            }

    @staticmethod
    def _close(conn: PooledConnection) -> None:
        try:
            conn.sock.close()
        except OSError:
            pass


# -- worker registry -------------------------------------------------------------

def parse_worker_addr(spec) -> Tuple[str, int]:
    """``"host:port"`` / ``(host, port)`` -> ``(host, int(port))``."""
    if isinstance(spec, str):
        host, _, port = spec.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"worker address must be host:port, got {spec!r}")
        return host, int(port)
    host, port = spec
    return str(host), int(port)


@dataclass
class WorkerInfo:
    """Registry-side view of one worker host."""

    host: str
    port: int
    healthy: bool = True  # presumed innocent until a connection fails
    last_seen: float = 0.0  # monotonic time of the last successful contact
    stats: dict = field(default_factory=dict)  # last PONG payload
    #: dispatch-outcome circuit breaker (reachability lives in ``healthy``)
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)

    @property
    def addr(self) -> Tuple[str, int]:
        return (self.host, self.port)


class WorkerRegistry:
    """Tracks worker health and hands out dispatch targets.

    Two independent signals gate placement: ``healthy`` is binary
    reachability (a connection failure clears it, a successful ``PING``
    — one-shot via :meth:`check_now` or periodic via
    :meth:`start_heartbeat` — restores it), while each worker's
    :class:`~repro.core.resilience.CircuitBreaker` integrates *dispatch
    outcomes* into failure/latency EWMAs, so a host that answers pings
    but keeps botching or slow-walking chunks is shed anyway.
    :meth:`next_worker` round-robins over the admissible workers with the
    best (quantized) health score — with a uniform fleet that degenerates
    to plain round-robin, so placement stays spread by default.  All
    methods are thread-safe.
    """

    def __init__(
        self,
        addresses: Sequence,
        connect_timeout: float = 2.0,
        heartbeat_seconds: float = 0.0,
        auth_token: Optional[bytes] = None,
        breaker_config: Optional[BreakerConfig] = None,
        clock=time.monotonic,
    ):
        self.connect_timeout = connect_timeout
        self.heartbeat_seconds = heartbeat_seconds
        # Like the executor, fall back to the ambient fleet token: a
        # registry pinging token-protected workers must authenticate no
        # matter who constructed it.
        self.auth_token = auth_token if auth_token is not None else fleet_token()
        self.clock = clock
        config = breaker_config if breaker_config is not None else BreakerConfig()
        self._workers: List[WorkerInfo] = [
            WorkerInfo(
                *parse_worker_addr(a),
                breaker=CircuitBreaker(config, clock=clock),
            )
            for a in addresses
        ]
        self._guard = threading.Lock()
        self._rr = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def workers(self) -> List[WorkerInfo]:
        with self._guard:
            return list(self._workers)

    def healthy(self) -> List[WorkerInfo]:
        with self._guard:
            return [w for w in self._workers if w.healthy]

    def live_count(self) -> int:
        return len(self.healthy())

    def placeable_count(self) -> int:
        """Workers placement may actually use right now: reachable AND
        breaker-admissible.  Feeds chunk planning, so an open breaker
        shrinks the chunk fan-out instead of stranding chunks."""
        now = self.clock()
        with self._guard:
            live = [w for w in self._workers if w.healthy]
        return sum(1 for w in live if w.breaker.admissible(now)) or (
            # Every breaker open: planning still needs a floor — the
            # half-open probes themselves are how the fleet recovers.
            1 if live else 0
        )

    def _score(self, worker: WorkerInfo, best_latency: Optional[float]) -> int:
        """Coarse health bucket (lower = better).  Quantized so workers
        with merely-noisy differences stay tied and round-robin keeps
        them evenly loaded; only meaningful degradation (failure EWMA
        mass, or latency ≥ 4× the fleet's best) demotes a worker."""
        score = int(worker.breaker.failure_ewma * 4.0)
        latency = worker.breaker.latency_ewma
        if (
            best_latency is not None
            and latency is not None
            and best_latency > 0
            and latency >= 4.0 * best_latency
        ):
            score += 1
        return score

    def next_worker(self) -> Tuple[str, int]:
        """The next admissible worker — round-robin over the
        best-health-bucket subset; raises
        :class:`~repro.core.errors.WorkerUnavailable` when the whole
        fleet is dead, tripped, or empty."""
        now = self.clock()
        with self._guard:
            live = [w for w in self._workers if w.healthy]
            admissible = [w for w in live if w.breaker.admissible(now)]
            if not admissible:
                # A fully-tripped (but reachable) fleet still serves the
                # earliest-probing worker: someone must carry the probe.
                admissible = live
            if not admissible:
                raise WorkerUnavailable(
                    f"no healthy workers ({len(self._workers)} registered)"
                )
            latencies = [
                w.breaker.latency_ewma
                for w in admissible
                if w.breaker.latency_ewma is not None
            ]
            best_latency = min(latencies) if latencies else None
            scores = [self._score(w, best_latency) for w in admissible]
            best = min(scores)
            pool = [w for w, s in zip(admissible, scores) if s == best]
            worker = pool[self._rr % len(pool)]
            self._rr += 1
        worker.breaker.note_dispatch(now)
        return worker.addr

    def record_success(
        self, addr: Tuple[str, int], latency_seconds: Optional[float] = None
    ) -> None:
        """A dispatch on ``addr`` completed a clean exchange."""
        self.mark_alive(addr)
        w = self._find_locked(addr)
        if w is not None:
            w.breaker.record_success(latency_seconds)

    def record_failure(
        self,
        addr: Tuple[str, int],
        latency_seconds: Optional[float] = None,
        dead: bool = False,
    ) -> None:
        """A dispatch on ``addr`` failed; ``dead=True`` additionally
        clears reachability (connection-level failures)."""
        if dead:
            self.mark_dead(addr)
        w = self._find_locked(addr)
        if w is not None:
            w.breaker.record_failure(latency_seconds)

    def _find(self, addr: Tuple[str, int]) -> Optional[WorkerInfo]:
        for w in self._workers:
            if w.addr == addr:
                return w
        return None

    def _find_locked(self, addr: Tuple[str, int]) -> Optional[WorkerInfo]:
        with self._guard:
            return self._find(addr)

    def mark_dead(self, addr: Tuple[str, int]) -> None:
        with self._guard:
            w = self._find(addr)
            if w is not None:
                w.healthy = False

    def reset(self, addr: Tuple[str, int]) -> None:
        """Forget a worker's history: a relaunched process starts
        reachable, with a fresh breaker."""
        with self._guard:
            w = self._find(addr)
            if w is not None:
                w.healthy = True
                w.breaker = CircuitBreaker(w.breaker.config, clock=self.clock)

    def mark_alive(self, addr: Tuple[str, int], stats: Optional[dict] = None) -> None:
        with self._guard:
            w = self._find(addr)
            if w is not None:
                w.healthy = True
                w.last_seen = time.monotonic()
                if stats is not None:
                    w.stats = stats

    def ping(self, addr: Tuple[str, int]) -> Optional[dict]:
        """One ``PING``/``PONG`` round trip (on a throwaway, authenticated
        connection); updates reachability — never the breaker, which is
        dispatch-outcome-only — and returns the worker's stats payload
        (``None`` if unreachable)."""
        try:
            with open_connection(
                addr, self.connect_timeout, self.auth_token
            ) as s:
                send_frame(s, PING)
                frame = recv_frame(s)
        except (OSError, ValueError, FleetAuthError):
            self.mark_dead(addr)
            return None
        if frame is None or frame[0] != PONG:
            self.mark_dead(addr)
            return None
        try:
            stats = json.loads(frame[1].decode("utf-8")) if frame[1] else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            stats = {}
        self.mark_alive(addr, stats)
        return stats

    def check_now(self) -> int:
        """Probe every registered worker once; returns the live count."""
        for w in self.workers():
            self.ping(w.addr)
        return self.live_count()

    # -- heartbeat loop -----------------------------------------------------------
    def start_heartbeat(self) -> None:
        if self.heartbeat_seconds <= 0 or self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._heartbeat_loop, name="worker-heartbeat", daemon=True
        )
        self._thread.start()

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_seconds):
            self.check_now()

    def stop(self) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=2 * self.heartbeat_seconds + 1.0)


# -- the executor ----------------------------------------------------------------

class _StaleConnection(Exception):
    """Internal: a *reused* pooled socket failed before the worker said
    anything — almost certainly a half-open connection whose worker end
    died while it sat idle.  The dispatch retries once on a fresh dial
    without charging the worker's breaker."""


class RemoteProvingExecutor:
    """Runs same-circuit job chunks on a fleet of TCP workers.

    ``start`` / ``finish`` / ``run`` / ``shutdown`` plus a ``breakages``
    counter that :class:`~repro.core.service.ProvingService`'s
    degradation ladder reads.

    ``fleet`` is a :class:`~repro.core.remote_worker.LocalFleet` this
    executor owns (``workers`` are then its addresses): :meth:`revive`
    relaunches its dead workers, :meth:`shutdown` stops them, and
    ``breakages`` counts relaunches.  Without one the workers are other
    hosts, and ``breakages`` counts workers lost (dead, hung or
    unreachable) instead.

    ``key_provider`` answers workers' ``KEY_REQUEST`` frames: a callable
    ``(shape, strategy, backend_name) -> bytes`` returning serialized
    setup artifacts (empty/None = unavailable, the worker then fails the
    chunk with ``MissingKey``).  The service wires its KeyStore in, which
    is what lets a diskless worker prove Groth16 groups.

    ``default_timeout_seconds`` bounds a dispatch whose chunk carries no
    lease (the retry policy's indefinite-lease configuration) — a remote
    peer can silently vanish in ways a local subprocess cannot, so
    "indefinite" still gets a generous socket deadline.
    """

    def __init__(
        self,
        workers: Sequence,
        retry_policy: Optional[RetryPolicy] = None,
        key_provider=None,
        connect_timeout: float = 2.0,
        heartbeat_seconds: float = 0.0,
        default_timeout_seconds: float = 600.0,
        auth_token: Optional[bytes] = None,
        breaker_config: Optional[BreakerConfig] = None,
        pool_idle_seconds: float = 30.0,
        fleet=None,
    ):
        token = auth_token if auth_token is not None else fleet_token()
        if isinstance(token, str):
            token = token.encode("utf-8")
        self.auth_token = token
        self.registry = WorkerRegistry(
            workers,
            connect_timeout=connect_timeout,
            heartbeat_seconds=heartbeat_seconds,
            auth_token=token,
            breaker_config=breaker_config,
        )
        self.pool = ConnectionPool(
            connect_timeout=connect_timeout,
            idle_seconds=pool_idle_seconds,
            auth_token=token,
        )
        self.workers = max(1, len(self.registry.workers()))
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.key_provider = key_provider
        self.fleet = fleet
        self.connect_timeout = connect_timeout
        self.default_timeout_seconds = default_timeout_seconds
        #: fleet-level casualties — the degradation-ladder signal
        self.breakages = 0
        #: chunk dispatches attempted (each needing one pooled connection)
        #: — with pooling, ``dispatches ≫ pool.connects``
        self.dispatches = 0
        self._stats_guard = threading.Lock()
        self._threads: Optional[ThreadPoolExecutor] = None
        self.registry.start_heartbeat()

    # -- worker health -----------------------------------------------------------
    def _worker_lost(self, addr: Tuple[str, int]) -> None:
        """A worker died, hung or could not be reached: avoid it until a
        heartbeat revives it or :meth:`revive` relaunches it."""
        self.registry.record_failure(addr, dead=True)
        self.pool.drop_worker(addr)
        if self.fleet is None:
            self.breakages += 1

    def revive(self) -> None:
        """Kill and relaunch every owned worker that has exited or that
        the registry marks dead, one breakage each.  Call it from the
        dispatching thread (a relaunch forks)."""
        if self.fleet is None:
            return
        dead = {w.addr for w in self.registry.workers() if not w.healthy}
        for i, spec in enumerate(self.fleet.addrs):
            addr = parse_worker_addr(spec)
            if self.fleet.processes[i].is_alive() and addr not in dead:
                continue
            self.fleet.relaunch(i)
            self.pool.drop_worker(addr)
            self.registry.reset(addr)
            self.breakages += 1

    # -- transport ---------------------------------------------------------------
    def _dispatch(self, blob: bytes, timeout_s: Optional[float]) -> bytes:
        """One chunk on one worker over one *pooled* connection; returns
        the raw job-results envelope or raises a typed
        :class:`~repro.core.errors.ProvingError`.

        A reused socket that fails before the worker utters a byte is
        presumed half-open (its worker end died while it idled): the
        dispatch discards it and silently retries once on a freshly
        dialled connection — the worker's breaker is only charged for
        faults on a connection known to be live.
        """
        addr = self.registry.next_worker()
        deadline = timeout_s if timeout_s is not None else self.default_timeout_seconds
        with self._stats_guard:
            self.dispatches += 1
        t0 = time.monotonic()
        for attempt in (1, 2):
            try:
                conn = self.pool.acquire(addr)
            except FleetAuthError as exc:
                self.registry.record_failure(addr)
                exc.message = f"worker {addr[0]}:{addr[1]}: {exc.message}"
                raise
            except OSError as exc:
                self._worker_lost(addr)
                raise WorkerUnavailable(
                    f"worker {addr[0]}:{addr[1]} unreachable: {exc}"
                ) from exc
            try:
                return self._exchange(
                    conn,
                    blob,
                    deadline,
                    t0,
                    # Only a *reused* socket earns the free retry, and
                    # only on the first attempt — a fresh dial that dies
                    # is a real worker fault.  An owned worker that died
                    # idle was relaunched (its sockets dropped) before
                    # this dispatch, so a reused socket to one that dies
                    # now died with this chunk.
                    may_be_stale=(
                        conn.reused and attempt == 1 and self.fleet is None
                    ),
                )
            except _StaleConnection:
                continue
        raise AssertionError("unreachable: stale retry loop exited")  # pragma: no cover

    def _exchange(
        self,
        conn: PooledConnection,
        blob: bytes,
        deadline: float,
        t0: float,
        may_be_stale: bool,
    ) -> bytes:
        addr = conn.addr
        progressed = False  # any byte received this exchange?

        def _connection_died(exc_or_none) -> BaseException:
            self.pool.discard(conn)
            if may_be_stale and not progressed:
                return _StaleConnection()
            self._worker_lost(addr)
            return WorkerCrash(
                f"connection to worker {addr[0]}:{addr[1]} lost mid-chunk"
                + (f": {exc_or_none}" if exc_or_none is not None else "")
            )

        try:
            conn.sock.settimeout(deadline)
            send_frame(conn.sock, JOBS, blob)
        except socket.timeout:
            self.pool.discard(conn)
            self._worker_lost(addr)
            raise ChunkTimeout(
                f"chunk lease expired on worker {addr[0]}:{addr[1]}",
                deadline_seconds=deadline,
            ) from None
        except (ConnectionError, OSError) as exc:
            raise _connection_died(exc) from exc
        while True:
            try:
                frame = recv_frame(conn.sock)
            except socket.timeout:
                # The chunk lease expired on the wire: presume the
                # worker hung.
                self.pool.discard(conn)
                self._worker_lost(addr)
                raise ChunkTimeout(
                    f"chunk lease expired on worker {addr[0]}:{addr[1]}",
                    deadline_seconds=deadline,
                ) from None
            except (ConnectionError, OSError) as exc:
                raise _connection_died(exc) from exc
            except serialize.SerializationError as exc:
                # A mangled frame is a transport fault, same class as
                # a mangled envelope: retryable, not bisectable.
                self.pool.discard(conn)
                self.registry.record_failure(addr)
                raise CorruptEnvelope(
                    f"corrupt frame from worker {addr[0]}:{addr[1]}: {exc}",
                    offset=exc.offset,
                ) from exc
            if frame is None:
                raise _connection_died(None)
            progressed = True
            kind, payload = frame
            if kind == RESULTS:
                self.registry.record_success(addr, time.monotonic() - t0)
                self.pool.release(conn)
                return payload
            if kind == ERROR:
                err_kind, message, job_id = serialize.remote_error_from_bytes(
                    payload
                )
                # The worker is alive and talking — the *chunk* failed;
                # the exchange itself was clean, so the connection (and
                # the worker's transport health) survive.
                self.registry.record_success(addr, time.monotonic() - t0)
                self.pool.release(conn)
                raise error_from_kind(err_kind, message, job_id=job_id)
            if kind == KEY_REQUEST:
                shape, strategy, backend = serialize.circuit_key_from_bytes(
                    payload
                )
                key_blob = b""
                if self.key_provider is not None:
                    try:
                        key_blob = (
                            self.key_provider(shape, strategy, backend) or b""
                        )
                    except Exception:  # noqa: BLE001 — worker reports the miss
                        key_blob = b""
                try:
                    send_frame(conn.sock, KEY_PUSH, key_blob)
                except (ConnectionError, OSError) as exc:
                    raise _connection_died(exc) from exc
                continue
            self.pool.discard(conn)
            self.registry.record_failure(addr)
            raise CorruptEnvelope(
                f"unexpected frame kind {kind} from worker "
                f"{addr[0]}:{addr[1]} awaiting results"
            )

    # -- executor interface -------------------------------------------------------
    def start(
        self,
        tasks: Sequence[Tuple[ChunkTag, bytes]],
        timeouts: Optional[Dict[ChunkTag, float]] = None,
    ):
        """Dispatch ``(tag, jobs_blob)`` chunks without blocking.

        Lease deadlines must be known *here*: they become socket timeouts
        inside the dispatch threads (a blocking ``recv`` is the only
        place a lease can be enforced).  Returns the ``(tag, future)``
        list for :meth:`finish`.
        """
        timeouts = timeouts or {}
        if self._threads is None:
            self._threads = ThreadPoolExecutor(
                max_workers=max(4, 2 * self.workers),
                thread_name_prefix="remote-dispatch",
            )
        return [
            (tag, self._threads.submit(self._dispatch, blob, timeouts.get(tag)))
            for tag, blob in tasks
        ]

    def finish(
        self,
        tasks: Sequence[Tuple[ChunkTag, bytes]],
        futures,
        timeouts: Optional[Dict[ChunkTag, float]] = None,
    ) -> PoolOutcome:
        """Collect :meth:`start`'s futures; never raises for a chunk.

        Every first dispatch is collected before any retry, so one dead
        owned worker is relaunched once, not once per chunk it held.
        Failures then feed the :func:`~repro.core.pool.resolve_chunk`
        retry/bisect/quarantine loop, re-dispatching over whatever
        workers the registry still trusts; whatever cannot be recovered
        is reported per chunk in ``errors`` — typed, never raised.
        """
        timeouts = timeouts or {}
        outcome = PoolOutcome()
        by_tag = dict(tasks)
        failed = []
        for tag, fut in futures:
            try:
                outcome.results[tag] = serialize.job_results_from_bytes(
                    fut.result()
                )
                outcome.attempts[tag] = 1
            except Exception as exc:  # noqa: BLE001 — classified below
                failed.append((tag, wrap_error(exc)))
        for tag, err in failed:
            outcome.retried.append(tag)
            try:
                triples, poison, attempts = resolve_chunk(
                    self._redispatch,
                    self.retry_policy,
                    by_tag[tag],
                    timeouts.get(tag),
                    err,
                    attempts=1,
                    tag=tag,
                )
                outcome.results[tag] = triples
                outcome.attempts[tag] = attempts
                outcome.quarantined.extend(poison)
            except Exception as exc:  # noqa: BLE001 — reported per chunk
                fatal = wrap_error(exc)
                outcome.errors[tag] = fatal
                outcome.attempts[tag] = max(1, fatal.attempts)
        return outcome

    def _redispatch(self, blob: bytes, timeout_s: Optional[float]) -> bytes:
        """A retry, from the calling thread: relaunch dead owned workers
        first, then dispatch."""
        self.revive()
        return self._dispatch(blob, timeout_s)

    def run(
        self,
        tasks: Sequence[Tuple[ChunkTag, bytes]],
        timeouts: Optional[Dict[ChunkTag, float]] = None,
    ) -> PoolOutcome:
        """Dispatch and collect in one blocking call."""
        if not tasks:
            return PoolOutcome()
        return self.finish(tasks, self.start(tasks, timeouts), timeouts)

    def transport_stats(self) -> dict:
        """Connection-economy counters: pooled ``connects``/``reuses``
        (plus reap/idle accounting) and chunk ``dispatches``.  A healthy
        pooled fleet shows ``dispatches ≫ connects``."""
        stats = self.pool.stats()
        with self._stats_guard:
            stats["dispatches"] = self.dispatches
        return stats

    def shutdown(self, drain: bool = True) -> None:
        """Stop the heartbeat, dispatch threads, and connection pool,
        then the owned ``fleet`` if there is one.  ``drain=True`` waits
        for in-flight dispatches to finish first (their results are lost
        either way — callers drain via :meth:`finish` — but the workers'
        in-progress chunks get their replies consumed instead of a
        reset).  Idempotent.  Other hosts' workers keep running — a fleet
        outlives any one dispatcher; :meth:`shutdown_workers` drains
        them."""
        self.registry.stop()
        threads, self._threads = self._threads, None
        if threads is not None:
            threads.shutdown(wait=drain, cancel_futures=not drain)
        self.pool.close()
        if self.fleet is not None:
            self.fleet.close()

    def shutdown_workers(self) -> None:
        """Send every registered worker a ``SHUTDOWN`` frame (best
        effort, authenticated like any other connection)."""
        for w in self.registry.workers():
            try:
                with open_connection(
                    w.addr, self.connect_timeout, self.auth_token
                ) as s:
                    send_frame(s, SHUTDOWN)
            except (OSError, FleetAuthError):
                pass  # already gone (or never ours to stop)


__all__ = [
    "MAGIC",
    "MAX_FRAME",
    "JOBS",
    "RESULTS",
    "ERROR",
    "KEY_REQUEST",
    "KEY_PUSH",
    "PING",
    "PONG",
    "SHUTDOWN",
    "HELLO",
    "CHALLENGE",
    "AUTH",
    "AUTH_OK",
    "FRAME_KINDS",
    "TOKEN_ENV",
    "encode_frame",
    "send_frame",
    "recv_frame",
    "fleet_token",
    "client_handshake",
    "open_connection",
    "parse_worker_addr",
    "PooledConnection",
    "ConnectionPool",
    "WorkerInfo",
    "WorkerRegistry",
    "RemoteProvingExecutor",
]
