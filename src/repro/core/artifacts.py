"""Process-wide circuit and key artifact store.

Building a :class:`~repro.gadgets.matmul.MatmulCircuit` and (for Groth16)
running trusted setup dominate cold-start cost, and both depend only on
``(shape, strategy, backend)`` — never on the concrete matrices.  This
module caches them once per process and optionally persists keypairs to
disk, so that:

* every ``MatmulProver`` of the same circuit shares one keypair, making
  proofs verifiable across instances (the seed code re-ran setup per
  instance, so a fresh verifier held a *different* key and rejected
  everything);
* a restarted service reloads its keys instead of re-paying setup;
* the :class:`~repro.core.service.ProvingService` amortises setup across a
  whole batch.

``CircuitRegistry`` also hands out a per-circuit lock: circuits hold
mutable witness values during ``assign``, so concurrent provers of the same
shape must serialise the assign+prove critical section.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Dict, Optional, Tuple

from ..gadgets.matmul import MatmulCircuit
from .backends import ProofBackend, get_backend

CircuitKey = Tuple[int, int, int, str]          # (a, n, b, strategy)
ArtifactKey = Tuple[int, int, int, str, str]    # + backend name

# Distinguishes tmp files of concurrent KeyStore instances within one
# process (the pid alone only separates processes).
_TMP_COUNTER = itertools.count()

# Publish retry/repair tuning: ~10s of polling before the last-resort
# replace.  The repair lock is an fcntl flock, so a crashed holder's lock
# releases with its process — no stale-timeout reclaim window in which
# two repairers could both think they hold it.
_PUBLISH_ATTEMPTS = 100
_REPAIR_POLL_SECONDS = 0.1


class CircuitRegistry:
    """Cache of built circuits, keyed by ``(a, n, b, strategy)``."""

    def __init__(self) -> None:
        self._circuits: Dict[CircuitKey, MatmulCircuit] = {}
        self._locks: Dict[CircuitKey, threading.Lock] = {}
        self._guard = threading.Lock()
        self.builds = 0
        self.hits = 0

    def get(self, a: int, n: int, b: int, strategy: str) -> MatmulCircuit:
        key = (a, n, b, strategy)
        with self._guard:
            circuit = self._circuits.get(key)
            if circuit is not None:
                self.hits += 1
                return circuit
        # Build outside the guard (construction is slow for big shapes);
        # a racing duplicate build is wasted work, not an error.
        circuit = MatmulCircuit(a, n, b, strategy)
        with self._guard:
            self.builds += 1
            return self._circuits.setdefault(key, circuit)

    def lock_for(self, a: int, n: int, b: int, strategy: str) -> threading.Lock:
        """The witness-assignment lock for one circuit."""
        key = (a, n, b, strategy)
        with self._guard:
            return self._locks.setdefault(key, threading.Lock())

    def clear(self) -> None:
        with self._guard:
            self._circuits.clear()
            self._locks.clear()


class KeyStore:
    """Setup-artifact cache: memory, then disk, then (optionally) setup.

    ``root=None`` keeps everything in memory.  With a directory, Groth16
    keypairs persist as ``<backend>-<circuit_id>.keys`` files (the circuit
    id hashes shape and strategy, so a stale file can never be served for
    the wrong circuit) and survive process restarts.

    ``readonly=True`` is the worker-side discipline
    (:mod:`repro.core.remote_worker`): the store consults memory and disk
    only, never runs setup, and never writes (no tmp files, no repair, no
    lock files) — a worker that raced its siblings to a half-provisioned root must fail
    with ``KeyError`` instead of minting a divergent keypair.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        registry: Optional[CircuitRegistry] = None,
        readonly: bool = False,
    ) -> None:
        self.root = root
        self.readonly = readonly
        self.registry = registry if registry is not None else default_registry()
        self._artifacts: Dict[ArtifactKey, object] = {}
        self._setup_seconds: Dict[ArtifactKey, float] = {}
        self._key_locks: Dict[ArtifactKey, threading.Lock] = {}
        self._guard = threading.Lock()
        self.setups = 0
        self.disk_loads = 0
        self.hits = 0
        if root is not None and not readonly:
            os.makedirs(root, exist_ok=True)

    # -- internals ---------------------------------------------------------------
    def _path(self, backend: ProofBackend, circuit: MatmulCircuit) -> str:
        name = f"{backend.name}-{circuit.circuit_id().hex()[:16]}.keys"
        return os.path.join(self.root, name)

    # -- artifact access ---------------------------------------------------------
    def artifacts(
        self,
        a: int,
        n: int,
        b: int,
        strategy: str,
        backend_name: str,
        rng=None,
        create: bool = True,
    ):
        """The cached setup artifacts for one circuit key.

        With ``create=False`` (forced by ``readonly`` stores) only memory
        and disk are consulted; a miss raises ``KeyError`` instead of
        silently producing a *new* keypair that could never verify
        existing proofs.
        """
        if self.readonly:
            create = False
        backend = get_backend(backend_name)
        if not backend.requires_setup:
            return None
        key = (a, n, b, strategy, backend_name)
        with self._guard:
            if key in self._artifacts:
                self.hits += 1
                return self._artifacts[key]
            # Per-key lock: a multi-second setup for one circuit must not
            # stall hits or setups for every other circuit.
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        circuit = self.registry.get(a, n, b, strategy)
        with key_lock:
            with self._guard:
                if key in self._artifacts:  # lost the build race
                    self.hits += 1
                    return self._artifacts[key]
            artifacts = None
            loaded_from_disk = False
            if self.root is not None:
                path = self._path(backend, circuit)
                if os.path.exists(path):
                    try:
                        with open(path, "rb") as fh:
                            artifacts = backend.artifacts_from_bytes(
                                fh.read(), circuit
                            )
                        loaded_from_disk = True
                    except (OSError, ValueError):
                        # Corrupt or truncated file (e.g. a crashed
                        # writer): treat as missing so a fresh setup can
                        # overwrite it instead of failing forever.
                        artifacts = None
            if artifacts is None:
                if not create:
                    raise KeyError(
                        f"no setup artifacts for {key}; import a verifying "
                        "key or point the KeyStore at the prover's artifact "
                        "root"
                    )
                t0 = time.perf_counter()
                artifacts = backend.setup(circuit, rng)
                setup_s = time.perf_counter() - t0
                # Publish (and possibly adopt a racing winner's keypair)
                # BEFORE caching, so no thread ever proves with a keypair
                # that is about to be discarded.
                if self.root is not None:
                    blob = backend.artifacts_to_bytes(artifacts)
                    if blob:
                        published = self._publish(backend, circuit, artifacts, blob)
                        if published is not artifacts:
                            artifacts = published
                            setup_s = None  # our setup was discarded
            with self._guard:
                if loaded_from_disk:
                    self.disk_loads += 1
                else:
                    self.setups += 1
                    if setup_s is not None:
                        self._setup_seconds[key] = setup_s
                self._artifacts[key] = artifacts
            return artifacts

    def _publish(self, backend, circuit, artifacts, blob):
        """Atomically publish freshly set-up artifacts to disk.

        Exactly one process may win a cold-start race: ``os.link`` fails
        if the file already exists, in which case the winner's keypair is
        read back and *adopted* in place of ours — otherwise this process
        would ship proofs that every disk-loading verifier rejects.

        The corrupt-file corner needs more care than a single shot: if
        two fresh processes both find a damaged file, both would
        ``os.replace`` it and each keep *its own* keypair in memory —
        disk ends up holding one key while the other process serves
        proofs nobody can verify (double-publish).  Repair is therefore
        serialized through an ``O_EXCL`` lock file, and losers loop back
        to adopt whatever the repairer installed.
        """
        path = self._path(backend, circuit)
        # pid+instance-unique tmp: concurrent processes — and concurrent
        # KeyStore instances sharing one root within a process — must not
        # interleave writes.
        tmp = f"{path}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(blob)
        try:
            for _ in range(_PUBLISH_ATTEMPTS):
                try:
                    os.link(tmp, path)
                    return artifacts  # we won the publish race
                except FileExistsError:
                    pass
                except OSError:
                    # Filesystem without hard links (CIFS, some container
                    # volumes): plain atomic rename — loses the
                    # adopt-on-race guarantee but keeps persistence
                    # working.
                    os.replace(tmp, path)
                    return artifacts
                try:
                    with open(path, "rb") as fh:
                        return backend.artifacts_from_bytes(fh.read(), circuit)
                except FileNotFoundError:
                    continue  # repairer unlinked it; race the link again
                except (OSError, ValueError):
                    pass  # damaged file: fall through to serialized repair
                lock_fd = self._acquire_repair_lock(path)
                if lock_fd is not None:
                    try:
                        # Re-check under the lock: a racing repairer may
                        # have already installed a good file.
                        try:
                            with open(path, "rb") as fh:
                                return backend.artifacts_from_bytes(
                                    fh.read(), circuit
                                )
                        except (OSError, ValueError):
                            os.replace(tmp, path)
                            return artifacts
                    finally:
                        self._release_repair_lock(lock_fd)
                else:
                    # Repair in progress elsewhere; a crashed repairer
                    # releases its flock with its process, so one of the
                    # waiters will take the lock on a later attempt.
                    time.sleep(_REPAIR_POLL_SECONDS)
            # Pathological contention: give up on adoption, keep disk valid.
            os.replace(tmp, path)
            return artifacts
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    @staticmethod
    def _acquire_repair_lock(path: str) -> Optional[int]:
        """Take the repair flock; returns the held fd, or ``None`` if a
        live process holds it.  flock dies with its holder, so a crashed
        repairer can never wedge the key — and there is no stale-timeout
        reclaim in which two repairers could both believe they hold the
        lock."""
        lock = path + ".repair"
        try:
            import fcntl

            fd = os.open(lock, os.O_CREAT | os.O_WRONLY)
        except (ImportError, OSError):
            return -1  # no flock on this platform/fs: proceed unlocked
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            return None
        return fd

    @staticmethod
    def _release_repair_lock(fd: int) -> None:
        if fd >= 0:
            os.close(fd)  # closing drops the flock

    def adopt(
        self,
        a: int,
        n: int,
        b: int,
        strategy: str,
        backend_name: str,
        blob: bytes,
    ):
        """Adopt serialized setup artifacts pushed from elsewhere (the
        remote-fleet key-distribution path: a dispatcher answers a
        worker's KEY_REQUEST with the keypair bytes it already holds).

        Memory-only and allowed even on ``readonly`` stores — adoption is
        the opposite of minting: the worker takes the dispatcher's
        keypair verbatim, which is exactly the discipline ``readonly``
        exists to enforce.  Raises ``ValueError`` on malformed bytes.
        """
        backend = get_backend(backend_name)
        if not backend.requires_setup:
            return None
        circuit = self.registry.get(a, n, b, strategy)
        artifacts = backend.artifacts_from_bytes(blob, circuit)
        key = (a, n, b, strategy, backend_name)
        with self._guard:
            return self._artifacts.setdefault(key, artifacts)

    def setup_seconds(
        self, a: int, n: int, b: int, strategy: str, backend_name: str
    ) -> Optional[float]:
        """Wall time of the setup this process ran for the key, if any."""
        return self._setup_seconds.get((a, n, b, strategy, backend_name))

    def export_vk(
        self, a: int, n: int, b: int, strategy: str, backend_name: str
    ) -> bytes:
        """Serialized verification material for a detached verifier."""
        backend = get_backend(backend_name)
        if not backend.requires_setup:
            return b""
        artifacts = self.artifacts(a, n, b, strategy, backend_name, create=False)
        return backend.export_vk(artifacts)

    def clear_memory(self) -> None:
        """Drop in-memory artifacts (disk files survive) — simulates a
        process restart in tests."""
        with self._guard:
            self._artifacts.clear()
            self._setup_seconds.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "setups": self.setups,
            "hits": self.hits,
            "disk_loads": self.disk_loads,
        }


# -- process-wide defaults -------------------------------------------------------

_DEFAULT_REGISTRY = CircuitRegistry()
_DEFAULT_KEYSTORE: Optional[KeyStore] = None
_DEFAULT_GUARD = threading.Lock()


def default_registry() -> CircuitRegistry:
    return _DEFAULT_REGISTRY


def default_keystore() -> KeyStore:
    global _DEFAULT_KEYSTORE
    with _DEFAULT_GUARD:
        if _DEFAULT_KEYSTORE is None:
            _DEFAULT_KEYSTORE = KeyStore(registry=_DEFAULT_REGISTRY)
        return _DEFAULT_KEYSTORE


def set_default_keystore(store: KeyStore) -> KeyStore:
    """Swap the process-wide store (e.g. to one with a disk root)."""
    global _DEFAULT_KEYSTORE
    with _DEFAULT_GUARD:
        _DEFAULT_KEYSTORE = store
        return store
