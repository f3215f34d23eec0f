"""Remote proving worker: the server side of :mod:`repro.core.remote`.

Run one per host::

    PYTHONPATH=src python -m repro.core.remote_worker \\
        --host 0.0.0.0 --port 7841 --keystore /shared/keys

The worker accepts TCP connections and serves the frame protocol
(thread-per-connection — proving is CPU-bound, so concurrency across
connections mainly overlaps the sockets, exactly like the service's
thread tier):

* ``HELLO``  — begin the HMAC session handshake (see below).
* ``JOBS``   — decode the prove-jobs envelope, rehydrate the keypair,
  prove every job, reply ``RESULTS`` (or a typed ``ERROR``).
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

Key discipline mirrors the process pool's: the worker opens its KeyStore
**read-only** — it must adopt the dispatcher's keypair or fail, never
mint its own (a self-minted keypair would produce proofs nobody can
verify).  New here is the *on-demand distribution* path: a keystore miss
sends ``KEY_REQUEST`` back up the dispatching connection and adopts the
``KEY_PUSH``ed keypair bytes (the existing
:func:`repro.serialize.groth16_keypair_to_bytes` wire format) into
memory, so a diskless worker can still join a Groth16 fleet.

Fault injection: the entry/exit hooks of :mod:`repro.core.faultinject`
are honoured with ``tier="remote"``, and worker launch environments are
built via :func:`repro.core.faultinject.scoped_env` — an ambient fault
plan on the dispatcher never leaks in.
"""

from __future__ import annotations

import argparse
import hmac
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import List, Optional, Sequence, Tuple

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

_CRASH_ENV = "REPRO_POOL_TEST_CRASH"  # legacy whole-strategy crash hook

#: how often an idle persistent connection re-checks the stop flag
_POLL_SECONDS = 0.5
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
    ):
        self.registry = CircuitRegistry()
        self.keystore = KeyStore(
            root=keystore_root, registry=self.registry, readonly=True
        )
        self.token = token
        self.stop = threading.Event()
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
    typed ERROR frame.  Mirrors ``pool._prove_group_worker`` except that
    a keystore miss becomes a KEY_REQUEST round trip before giving up.
    """
    jobs = serialize.prove_jobs_from_bytes(payload)  # raises CorruptEnvelope
    if not jobs:
        send_frame(conn, RESULTS, serialize.job_results_to_bytes([]))
        return
    plan = faultinject.active_plan()
    if plan is not None:
        plan.fire_worker(jobs, tier="remote")
    _, x0, w0, strategy, backend_name = jobs[0]
    if os.environ.get(_CRASH_ENV) == strategy:
        os._exit(13)  # simulated segfault (legacy test hook)
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
    blob = serialize.job_results_to_bytes(results)
    if plan is not None:
        blob = plan.mangle_results(blob, jobs, tier="remote")
        # Transport faults act on the *reply* path — the chunk was proven,
        # the network "loses" it: the worst case for exactly-once
        # accounting, which is precisely what the chaos soak asserts.
        net = plan.transport_fault(jobs, tier="remote")
        if net is not None:
            state.count(net_faults=1)
            if net.kind == "net_stall":
                # Outlive the dispatcher's lease; the eventual send hits
                # a socket the dispatcher already abandoned.
                time.sleep(net.seconds)
            elif net.kind == "net_drop":
                raise _DropConnection()
    state.count(chunks=1, jobs=len(results))
    send_frame(conn, RESULTS, blob)


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
) -> None:
    """Bind, announce, and serve until a ``SHUTDOWN`` frame (or SIGTERM)
    arrives; then *drain* — join in-flight connection handlers (bounded
    by ``drain_seconds``) so no accepted chunk is dropped on the floor.

    Prints ``listening on <host>:<port>`` (flushed) once ready — with
    ``port=0`` the kernel assigns one, and launchers parse this line to
    learn it.  ``token`` defaults to the ``REPRO_FLEET_TOKEN``
    environment variable; set (either way) it makes the HMAC handshake
    mandatory on every connection.
    """
    if isinstance(token, str):
        token = token.encode("utf-8")
    state = WorkerState(keystore_root, token=token if token else fleet_token())
    try:
        # Graceful drain on fleet teardown: SIGTERM means "stop accepting,
        # finish what you hold" — same path as the SHUTDOWN frame.
        signal.signal(signal.SIGTERM, lambda _sig, _frm: state.stop.set())
    except ValueError:
        pass  # not the main thread (tests drive serve() directly)
    listener = socket.create_server((host, port))
    actual_port = listener.getsockname()[1]
    print(f"listening on {host}:{actual_port}", flush=True)
    # Short accept timeout so the stop flag is noticed promptly.
    listener.settimeout(0.25)
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


# -- loopback fleet launcher ------------------------------------------------------

def _worker_launch_env(env: Optional[dict]) -> dict:
    """The environment a loopback worker subprocess launches with: fault
    plan scoped via :func:`repro.core.faultinject.scoped_env`, and
    ``PYTHONPATH`` pinned so the worker imports ``repro`` exactly as this
    process does."""
    base_env = faultinject.scoped_env("remote", env if env is not None else os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    existing = base_env.get("PYTHONPATH")
    base_env["PYTHONPATH"] = (
        src_root if not existing else os.pathsep.join([src_root, existing])
    )
    return base_env


def _worker_command(port: int, keystore_root: Optional[str]) -> List[str]:
    cmd = [
        sys.executable,
        "-m",
        "repro.core.remote_worker",
        "--host",
        "127.0.0.1",
        "--port",
        str(port),
    ]
    if keystore_root is not None:
        cmd += ["--keystore", keystore_root]
    return cmd


def launch_worker(
    port: int = 0,
    keystore_root: Optional[str] = None,
    env: Optional[dict] = None,
    startup_timeout: float = 30.0,
) -> Tuple[str, subprocess.Popen]:
    """Spawn ONE worker subprocess and block until it announces.

    With an explicit ``port`` the worker comes back on a known address —
    what the chaos harness leans on to *restart* a killed worker at the
    same registry slot.  Returns ``("127.0.0.1:<port>", Popen)``.
    """
    proc = subprocess.Popen(
        _worker_command(port, keystore_root),
        env=_worker_launch_env(env),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        line = _read_announcement(proc, startup_timeout)
    except Exception:
        stop_workers([proc])
        raise
    return line.rsplit(" ", 1)[-1], proc


def launch_loopback_workers(
    n: int,
    keystore_root: Optional[str] = None,
    env: Optional[dict] = None,
    startup_timeout: float = 30.0,
) -> Tuple[List[str], List[subprocess.Popen]]:
    """Spawn ``n`` worker subprocesses on ``127.0.0.1`` ephemeral ports.

    Returns ``(["127.0.0.1:<port>", ...], [Popen, ...])`` once every
    worker has announced its port.  The launch environment is built with
    :func:`repro.core.faultinject.scoped_env` — only fault specs
    explicitly addressed to ``tier="remote"`` cross this boundary.  Pair
    with :func:`stop_workers` in a ``finally``.
    """
    base_env = _worker_launch_env(env)
    cmd = _worker_command(0, keystore_root)
    addrs: List[str] = []
    procs: List[subprocess.Popen] = []
    try:
        for _ in range(n):
            proc = subprocess.Popen(
                cmd,
                env=base_env,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
            )
            procs.append(proc)
        for proc in procs:
            line = _read_announcement(proc, startup_timeout)
            addrs.append(line.rsplit(" ", 1)[-1])
    except Exception:
        stop_workers(procs)
        raise
    return addrs, procs


def _read_announcement(proc: subprocess.Popen, timeout: float) -> str:
    """The worker's ``listening on ...`` line, bounded by ``timeout``."""
    result: List[str] = []

    def reader():
        result.append(proc.stdout.readline())

    t = threading.Thread(target=reader, daemon=True)
    t.start()
    t.join(timeout)
    if not result or "listening on" not in result[0]:
        raise RuntimeError(
            f"worker pid {proc.pid} failed to start "
            f"(announced: {result[0]!r})" if result else
            f"worker pid {proc.pid} failed to announce within {timeout}s"
        )
    return result[0].strip()


def stop_workers(procs: Sequence[subprocess.Popen]) -> None:
    """Terminate and reap a loopback fleet (idempotent, best effort)."""
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
        if proc.stdout is not None:
            proc.stdout.close()


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
