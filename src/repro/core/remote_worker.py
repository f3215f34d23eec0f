"""Proving worker: the server side of :mod:`repro.core.remote`.

Run one per host::

    PYTHONPATH=src python -m repro.core.remote_worker \\
        --host 0.0.0.0 --port 7841 --keystore /shared/keys

or start a fleet of them on this host with :class:`LocalFleet` — which is
what ``ProvingService(executor="process")`` does for its own workers.

The worker accepts TCP connections and serves the frame protocol
(thread-per-connection):

* ``HELLO``  — begin the HMAC session handshake (see below).
* ``JOBS``   — decode the prove-jobs envelope, rehydrate the keypair,
  prove every job, reply ``RESULTS`` (or a typed ``ERROR``).  One chunk
  proves at a time per worker: proving is CPU-bound, so concurrent
  connections overlap only their sockets.
* ``PING``   — reply ``PONG`` with a JSON stats payload (pid, chunks and
  jobs served, keys adopted over the wire, connection/auth counters) for
  the dispatcher's registry.
* ``SHUTDOWN`` — stop accepting and exit once in-flight handlers drain.

Connections are *persistent*: the dispatcher's
:class:`~repro.core.remote.ConnectionPool` keeps them open across
chunks, so the handler loop polls its socket with a short timeout and
re-checks the stop flag between frames.  ``SIGTERM`` (fleet teardown)
sets the same stop flag the ``SHUTDOWN`` frame does — either way the
worker finishes and flushes in-flight chunks before exiting (graceful
drain), so a politely-stopped fleet never strands a chunk.

Authentication: with ``REPRO_FLEET_TOKEN`` set the worker demands the
``HELLO``/``CHALLENGE``/``AUTH`` handshake (HMAC-SHA256 over both
session nonces, constant-time compares, mutual ``AUTH_OK`` proof) as the
*first* exchange on every connection.  Any payload-bearing frame from an
unauthenticated peer is rejected with a typed ``auth-failed`` ERROR
before a single payload byte is decoded.

Key discipline: the worker opens its KeyStore **read-only** — it must
adopt the dispatcher's keypair or fail, never mint its own (a
self-minted keypair would produce proofs nobody can verify).  A keystore
miss sends ``KEY_REQUEST`` back up the dispatching connection and adopts
the ``KEY_PUSH``ed keypair bytes (the
:func:`repro.serialize.groth16_keypair_to_bytes` wire format) into
memory, so a diskless worker can still prove Groth16 chunks.

Fault injection: the entry/exit hooks of :mod:`repro.core.faultinject`
are honoured under the worker's tier (``"remote"``, or ``"process"`` for
a service's own fleet), and :class:`LocalFleet` scopes the plan a
``"remote"`` worker sees — an ambient fault plan on the dispatcher never
leaks in.
"""

from __future__ import annotations

import argparse
import hmac
import json
import multiprocessing
import os
import queue
import signal
import socket
import threading
import time
from concurrent.futures import Future
from typing import List, Optional, Tuple

from .. import serialize
from . import faultinject
from .artifacts import CircuitRegistry, KeyStore
from .backends import get_backend, prove_jobs_to_wire
from .errors import MissingKey, wrap_error
from .remote import (
    AUTH,
    AUTH_OK,
    CHALLENGE,
    ERROR,
    HELLO,
    JOBS,
    KEY_PUSH,
    KEY_REQUEST,
    PING,
    PONG,
    RESULTS,
    SHUTDOWN,
    _auth_mac,
    fleet_token,
    recv_frame,
    send_frame,
)

#: how often an idle persistent connection re-checks the stop flag
_POLL_SECONDS = 0.5
#: how often the accept loop and the serving thread re-check it
_ACCEPT_SECONDS = 0.25
#: an unauthenticated peer gets this long to complete the handshake
_HANDSHAKE_SECONDS = 5.0


class _DropConnection(Exception):
    """Internal: an injected ``net_drop`` fault — close the connection
    without replying, as if the network ate the RESULTS frame."""


class WorkerState:
    """Per-process caches and counters shared by connection handlers."""

    def __init__(
        self,
        keystore_root: Optional[str] = None,
        token: Optional[bytes] = None,
        tier: str = "remote",
    ):
        self.registry = CircuitRegistry()
        self.keystore = KeyStore(
            root=keystore_root, registry=self.registry, readonly=True
        )
        self.token = token
        self.tier = tier
        self.stop = threading.Event()
        #: chunks the connection handlers queue for the serving thread,
        #: which proves them one at a time
        self.chunks: "queue.Queue" = queue.Queue()
        self._guard = threading.Lock()
        self.chunks_served = 0
        self.jobs_served = 0
        self.keys_adopted = 0
        self.connections = 0
        self.auth_failures = 0
        self.net_faults = 0
        self._handlers: List[threading.Thread] = []

    def stats(self) -> dict:
        with self._guard:
            return {
                "pid": os.getpid(),
                "chunks_served": self.chunks_served,
                "jobs_served": self.jobs_served,
                "keys_adopted": self.keys_adopted,
                "connections": self.connections,
                "auth_failures": self.auth_failures,
                "net_faults": self.net_faults,
                "auth": self.token is not None,
            }

    def count(
        self,
        chunks: int = 0,
        jobs: int = 0,
        keys: int = 0,
        connections: int = 0,
        auth_failures: int = 0,
        net_faults: int = 0,
    ) -> None:
        with self._guard:
            self.chunks_served += chunks
            self.jobs_served += jobs
            self.keys_adopted += keys
            self.connections += connections
            self.auth_failures += auth_failures
            self.net_faults += net_faults

    # -- in-flight handler tracking (the graceful-drain ledger) ---------------
    def track(self, thread: threading.Thread) -> None:
        with self._guard:
            self._handlers = [t for t in self._handlers if t.is_alive()]
            self._handlers.append(thread)

    def drain(self, timeout: float) -> None:
        """Join live connection handlers, bounded by ``timeout`` overall
        — in-flight chunks get finished and flushed before exit."""
        deadline = time.monotonic() + timeout
        with self._guard:
            handlers = list(self._handlers)
        for t in handlers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            t.join(remaining)


def _recv_patient(
    conn: socket.socket, state: WorkerState, timeout: float
) -> Optional[Tuple[int, bytes]]:
    """One frame, polling through the connection's short socket timeout
    up to ``timeout`` seconds (stop-flag aware) — for mid-exchange waits
    like KEY_PUSH where the peer legitimately takes a moment."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and not state.stop.is_set():
        try:
            return recv_frame(conn)
        except socket.timeout:
            continue
    return None


def _handle_jobs(conn: socket.socket, state: WorkerState, payload: bytes) -> None:
    """One chunk: decode, (maybe) fetch keys, prove, reply RESULTS.

    Raises on failure; the connection loop converts the exception into a
    typed ERROR frame.  A keystore miss becomes a KEY_REQUEST round trip
    before giving up.
    """
    jobs = serialize.prove_jobs_from_bytes(payload)  # raises CorruptEnvelope
    if not jobs:
        send_frame(conn, RESULTS, serialize.job_results_to_bytes([]))
        return
    plan = faultinject.active_plan()
    done: Future = Future()
    state.chunks.put((conn, jobs, plan, done))
    blob = done.result()
    if plan is not None:
        blob = plan.mangle_results(blob, jobs, tier=state.tier)
        # Transport faults act on the *reply* path — the chunk was proven,
        # the network "loses" it: the worst case for exactly-once
        # accounting, which is precisely what the chaos soak asserts.
        net = plan.transport_fault(jobs, tier=state.tier)
        if net is not None:
            state.count(net_faults=1)
            if net.kind == "net_stall":
                # Outlive the dispatcher's lease; the eventual send hits
                # a socket the dispatcher already abandoned.
                time.sleep(net.seconds)
            elif net.kind == "net_drop":
                raise _DropConnection()
    state.count(chunks=1, jobs=len(jobs))
    send_frame(conn, RESULTS, blob)


def _prove_queued(state: WorkerState) -> None:
    """Prove the next queued chunk, if one arrives within the poll
    interval, and hand its envelope (or its failure) to the handler."""
    try:
        conn, jobs, plan, done = state.chunks.get(timeout=_ACCEPT_SECONDS)
    except queue.Empty:
        return
    try:
        if plan is not None:
            plan.fire_worker(jobs, tier=state.tier)
        done.set_result(_prove_chunk(conn, state, jobs))
    except Exception as exc:  # noqa: BLE001 — the handler replies typed
        done.set_exception(exc)


def _prove_chunk(conn: socket.socket, state: WorkerState, jobs) -> bytes:
    """Prove one decoded chunk; returns the job-results envelope."""
    _, x0, w0, strategy, backend_name = jobs[0]
    a, n, b = len(x0), len(x0[0]), len(w0[0])
    circuit = state.registry.get(a, n, b, strategy)
    backend = get_backend(backend_name)
    artifacts = None
    if backend.requires_setup:
        try:
            artifacts = state.keystore.artifacts(a, n, b, strategy, backend_name)
        except KeyError:
            # On-demand key distribution: ask the dispatcher, who holds
            # the keypair it expects this chunk to be proven under.
            send_frame(
                conn,
                KEY_REQUEST,
                serialize.circuit_key_to_bytes((a, n, b), strategy, backend_name),
            )
            frame = _recv_patient(conn, state, timeout=30.0)
            if frame is None or frame[0] != KEY_PUSH or not frame[1]:
                raise MissingKey(
                    f"no setup artifacts for ({a},{n},{b},{strategy},"
                    f"{backend_name}) locally or from the dispatcher"
                ) from None
            state.keystore.adopt(a, n, b, strategy, backend_name, frame[1])
            state.count(keys=1)
            artifacts = state.keystore.artifacts(a, n, b, strategy, backend_name)
    if len(jobs) >= 2:
        backend.warm(artifacts, circuit)
    results = prove_jobs_to_wire(
        backend_name,
        circuit,
        artifacts,
        [(job_id, x, w) for job_id, x, w, _, _ in jobs],
    )
    return serialize.job_results_to_bytes(results)


def _reject_unauthenticated(conn: socket.socket, state: WorkerState, why: str) -> None:
    """Typed ``auth-failed`` ERROR — sent *before* any payload decode."""
    state.count(auth_failures=1)
    send_frame(
        conn, ERROR, serialize.remote_error_to_bytes("auth-failed", why, None)
    )


def _handshake(conn: socket.socket, state: WorkerState, payload: bytes) -> bool:
    """Serve the worker side of HELLO/CHALLENGE/AUTH/AUTH_OK; returns
    whether the session is now authenticated.  On any failure the typed
    rejection (when the peer is still listening) has been sent and the
    caller drops the connection."""
    if state.token is None:
        _reject_unauthenticated(
            conn, state, "worker has no fleet token configured (REPRO_FLEET_TOKEN)"
        )
        return False
    try:
        _version, nonce_c = serialize.auth_hello_from_bytes(payload)
    except ValueError as exc:
        _reject_unauthenticated(conn, state, f"malformed HELLO: {exc}")
        return False
    nonce_s = os.urandom(serialize.AUTH_NONCE_BYTES)
    send_frame(conn, CHALLENGE, serialize.auth_challenge_to_bytes(nonce_s))
    deadline = time.monotonic() + _HANDSHAKE_SECONDS
    frame = None
    while time.monotonic() < deadline and not state.stop.is_set():
        try:
            frame = recv_frame(conn)
        except socket.timeout:
            continue
        break
    if frame is None or frame[0] != AUTH:
        _reject_unauthenticated(conn, state, "handshake abandoned before AUTH")
        return False
    try:
        mac = serialize.auth_mac_from_bytes(frame[1])
    except ValueError as exc:
        _reject_unauthenticated(conn, state, f"malformed AUTH: {exc}")
        return False
    if not hmac.compare_digest(
        mac, _auth_mac(state.token, b"client", nonce_c, nonce_s)
    ):
        _reject_unauthenticated(conn, state, "fleet token mismatch")
        return False
    send_frame(
        conn,
        AUTH_OK,
        serialize.auth_mac_to_bytes(
            _auth_mac(state.token, b"worker", nonce_s, nonce_c)
        ),
    )
    return True


def _serve_connection(conn: socket.socket, state: WorkerState) -> None:
    state.count(connections=1)
    try:
        with conn:
            # Short poll timeout: persistent connections sit idle between
            # chunks, and the stop flag (SHUTDOWN frame or SIGTERM) must
            # be noticed without a peer ever sending another byte.
            conn.settimeout(_POLL_SECONDS)
            authenticated = state.token is None
            while True:
                if state.stop.is_set():
                    return  # drain: finish the current frame, no next one
                try:
                    frame = recv_frame(conn)
                except socket.timeout:
                    continue
                if frame is None:
                    return  # clean hang-up between frames
                kind, payload = frame
                if kind == HELLO:
                    authenticated = _handshake(conn, state, payload)
                    if not authenticated:
                        return
                    continue
                if not authenticated:
                    # Reject before decoding a single payload byte.
                    _reject_unauthenticated(
                        conn,
                        state,
                        "fleet requires an authenticated session "
                        "(REPRO_FLEET_TOKEN); complete the HELLO handshake "
                        "first",
                    )
                    return
                if kind == PING:
                    send_frame(
                        conn, PONG, json.dumps(state.stats()).encode("utf-8")
                    )
                elif kind == JOBS:
                    try:
                        _handle_jobs(conn, state, payload)
                    except _DropConnection:
                        return  # injected: the network ate the reply
                    except Exception as exc:  # noqa: BLE001 — typed reply
                        err = wrap_error(exc)
                        send_frame(
                            conn,
                            ERROR,
                            serialize.remote_error_to_bytes(
                                err.kind, str(exc) or err.kind, err.job_id
                            ),
                        )
                elif kind == SHUTDOWN:
                    state.stop.set()
                    return
                # Anything else (RESULTS/ERROR/KEY frames out of context)
                # is a confused peer: drop the connection.
                else:
                    return
    except (ConnectionError, OSError, ValueError):
        return  # peer vanished or spoke garbage; this connection is done


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    keystore_root: Optional[str] = None,
    token: Optional[bytes] = None,
    drain_seconds: float = 30.0,
    listener: Optional[socket.socket] = None,
    tier: str = "remote",
) -> None:
    """Serve until a ``SHUTDOWN`` frame (or SIGTERM) arrives; then
    *drain* — join in-flight connection handlers (bounded by
    ``drain_seconds``) so no accepted chunk is dropped on the floor.

    Serves on ``listener`` when one is handed over (:class:`LocalFleet`);
    otherwise binds ``host:port`` and prints ``listening on <host>:<port>``
    (flushed) once ready — with ``port=0`` the kernel assigns one.
    ``token`` defaults to the ``REPRO_FLEET_TOKEN`` environment variable;
    set (either way) it makes the HMAC handshake mandatory on every
    connection.  ``tier`` is the fault-injection tier chunks fire as.
    """
    if isinstance(token, str):
        token = token.encode("utf-8")
    state = WorkerState(
        keystore_root, token=token if token else fleet_token(), tier=tier
    )
    try:
        # Graceful drain on fleet teardown: SIGTERM means "stop accepting,
        # finish what you hold" — same path as the SHUTDOWN frame.
        signal.signal(signal.SIGTERM, lambda _sig, _frm: state.stop.set())
    except ValueError:
        pass  # not the main thread (tests drive serve() directly)
    if listener is None:
        listener = socket.create_server((host, port))
        print(f"listening on {host}:{listener.getsockname()[1]}", flush=True)
    accepting = threading.Thread(
        target=_accept, args=(listener, state, drain_seconds), daemon=True
    )
    accepting.start()
    # Chunks prove on this thread, one at a time: proving is CPU-bound,
    # so concurrent chunks would only contend, and a forked worker then
    # allocates from the heap it inherited instead of growing one malloc
    # arena per connection thread.
    while accepting.is_alive() or not state.chunks.empty():
        _prove_queued(state)


def _accept(listener: socket.socket, state: WorkerState, drain_seconds: float) -> None:
    """Accept connections, one handler thread each, until the stop flag
    is set; then drain the handlers."""
    # Short accept timeout so the stop flag is noticed promptly.
    listener.settimeout(_ACCEPT_SECONDS)
    with listener:
        while not state.stop.is_set():
            try:
                conn, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            handler = threading.Thread(
                target=_serve_connection,
                args=(conn, state),
                daemon=True,
            )
            state.track(handler)
            handler.start()
    state.drain(drain_seconds)


# -- local fleet launcher ---------------------------------------------------------

#: how long a stopped worker gets to drain and exit before it is killed
_STOP_SECONDS = 5.0


def _fork_available() -> bool:
    """Whether workers start by fork (the default where the platform has
    it: no interpreter start-up, every import already done) rather than
    spawn."""
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


def _run_worker(
    listener: socket.socket, keystore_root: Optional[str], tier: str, env: dict
) -> None:
    """Entry point of a :class:`LocalFleet` worker process."""
    os.environ.clear()
    os.environ.update(env)
    serve(listener=listener, keystore_root=keystore_root, tier=tier)


class LocalFleet:
    """``n`` workers on this host, each serving :func:`serve` on its own
    loopback port.

    The parent binds each listener and hands it to the child, so an
    address is dialable the moment :meth:`relaunch` (or the constructor)
    returns — a connection made before the child accepts waits in the
    listen backlog — and no start-up announcement is read.  Workers start
    by fork where the platform offers it and by spawn otherwise, as
    daemonic :mod:`multiprocessing` children: interpreter exit reaps any
    that :meth:`close` did not.

    ``tier`` is the fault-injection tier the workers fire as.  ``"remote"``
    workers stand in for other hosts, so they see only the fault specs
    addressed to that tier (:func:`repro.core.faultinject.scoped_env`);
    ``"process"`` workers belong to this process tree and see its whole
    plan.  ``env`` (default ``os.environ``) is the environment they run
    under.
    """

    def __init__(
        self,
        n: int,
        keystore_root: Optional[str] = None,
        tier: str = "remote",
        env: Optional[dict] = None,
    ):
        self.keystore_root = keystore_root
        self.tier = tier
        base = os.environ if env is None else env
        self._env = (
            faultinject.scoped_env(tier, base) if tier == "remote" else dict(base)
        )
        self._ctx = multiprocessing.get_context(
            "fork" if _fork_available() else "spawn"
        )
        self.ports: List[int] = [0] * n
        self.processes: List = [None] * n
        try:
            for i in range(n):
                self._start(i)
        except BaseException:
            self.close()
            raise

    @property
    def addrs(self) -> List[str]:
        return [f"127.0.0.1:{port}" for port in self.ports]

    def pids(self) -> List[Optional[int]]:
        return [None if p is None else p.pid for p in self.processes]

    def _start(self, i: int) -> None:
        listener = socket.create_server(("127.0.0.1", self.ports[i]))
        try:
            self.ports[i] = listener.getsockname()[1]
            proc = self._ctx.Process(
                target=_run_worker,
                args=(listener, self.keystore_root, self.tier, self._env),
                name=f"repro-worker-{i}",
                daemon=True,
            )
            proc.start()
        finally:
            # The child holds its own copy; keeping this one open would
            # leave the port accepting into a backlog nobody serves once
            # the child dies, and block the relaunch's bind.
            listener.close()
        self.processes[i] = proc

    def relaunch(self, i: int) -> None:
        """Kill worker ``i`` (SIGKILL: it may be hung) and start a fresh
        one on the same port."""
        proc = self.processes[i]
        if proc is not None:
            proc.kill()
            proc.join()
        self._start(i)

    def close(self) -> None:
        """Stop and reap every worker: SIGTERM (drain, then exit), SIGKILL
        for any still running after ``_STOP_SECONDS``.  Idempotent."""
        procs = [p for p in self.processes if p is not None]
        self.processes = [None] * len(self.processes)
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join(_STOP_SECONDS)
            if proc.exitcode is None:
                proc.kill()
                proc.join()

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=0, help="0 = kernel-assigned")
    ap.add_argument(
        "--keystore",
        default=None,
        help="read-only KeyStore root; omit for a diskless worker that "
        "adopts keys over the wire",
    )
    ap.add_argument(
        "--token",
        default=None,
        help="fleet auth token (default: the REPRO_FLEET_TOKEN env var)",
    )
    args = ap.parse_args(argv)
    serve(args.host, args.port, args.keystore, token=args.token)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
