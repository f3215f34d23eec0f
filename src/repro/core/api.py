"""zkVC public API: prove and verify matrix multiplications.

Typical use::

    from repro.core import MatmulProver, MatmulVerifier

    prover = MatmulProver(a=4, n=8, b=4, strategy="crpc_psq",
                          backend="groth16")
    bundle = prover.prove(X, W)           # X: a*n ints, W: n*b ints
    assert prover.verify(bundle)

    # Detached verification: ship bytes, verify anywhere (another
    # instance, another process, another machine) without re-running
    # setup.
    blob = bundle.to_bytes()
    artifact = prover.export_verifier()
    verifier = MatmulVerifier.from_bytes(artifact)
    assert verifier.verify_bytes(blob)

Backends are looked up in the :mod:`repro.core.backends` registry:

* ``groth16`` — pairing-based, constant proof size (256 B), per-circuit
  trusted setup.  The CRPC packing point is fixed at setup (it is part of
  the circuit's public parameters, as in the paper's implementation).
  Keypairs are cached process-wide in the default
  :class:`~repro.core.artifacts.KeyStore`, so every prover/verifier of one
  circuit shares one key.
* ``spartan`` — transparent (no trusted setup).  The packing point is
  derived by Fiat–Shamir from a salted commitment to (X, W) and the claimed
  Y, so it is fixed only after the inputs are bound — the commit-then-prove
  ordering.

Soundness note (documented in DESIGN.md): binding the Spartan witness to
the input commitment is assumed, not enforced in-circuit, mirroring the
paper's setting where the model weights are committed once out-of-band.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..gadgets.matmul import STRATEGIES
from .artifacts import CircuitRegistry, KeyStore, default_keystore, default_registry
from .backends import backend_names, get_backend
from .bundle import MatmulProofBundle

# Backwards-compatible constant: the built-in backends, frozen at import.
# The registry is the source of truth — call ``backend_names()`` for a
# live view that includes backends registered after import.
BACKENDS = backend_names()

__all__ = [
    "BACKENDS",
    "MatmulProofBundle",
    "MatmulProver",
    "MatmulVerifier",
    "prove_matmul",
    "verify_matmul",
]

class MatmulVerifier:
    """Stateless detached verifier — never triggers setup.

    Constructed from exactly the material a remote client holds: the
    public circuit identity ``(backend, strategy, shape)`` plus, for
    backends with trusted setup, an exported verifying key.  Spartan needs
    no key: the circuit description is rebuilt locally from the shape.

    The object holds nothing but that material.  Groth16 verification
    does reuse per-key work across objects: the process keeps the
    prepared form of recently used keys (G2 lines and ``e(alpha, beta)``,
    see :func:`repro.groth16.prepare_verifying_key`) keyed on the key's
    content, so a verifier rebuilt from the same bytes for every request
    pays that preparation once per process.
    """

    def __init__(
        self,
        a: int,
        n: int,
        b: int,
        strategy: str = "crpc_psq",
        backend: str = "groth16",
        vk=None,
        registry: Optional[CircuitRegistry] = None,
    ):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self._backend = get_backend(backend)
        if self._backend.requires_setup and vk is None:
            raise ValueError(
                f"backend {backend!r} needs an exported verifying key; "
                "use MatmulVerifier.from_bytes or pass vk="
            )
        self.a, self.n, self.b = a, n, b
        self.strategy = strategy
        self.backend = backend
        self.vk = vk
        self._registry = registry if registry is not None else default_registry()

    # -- construction from wire material ----------------------------------------
    @classmethod
    def from_bytes(
        cls, artifact: bytes, registry: Optional[CircuitRegistry] = None
    ) -> "MatmulVerifier":
        """Rebuild a verifier from :meth:`MatmulProver.export_verifier`
        output."""
        from .. import serialize

        backend_name, strategy, shape, vk_bytes = (
            serialize.verifier_artifact_from_bytes(artifact)
        )
        backend = get_backend(backend_name)
        vk = backend.import_vk(vk_bytes) if vk_bytes else None
        return cls(
            *shape,
            strategy=strategy,
            backend=backend_name,
            vk=vk,
            registry=registry,
        )

    @classmethod
    def for_circuit(
        cls,
        a: int,
        n: int,
        b: int,
        strategy: str,
        backend: str,
        keystore: Optional[KeyStore] = None,
        registry: Optional[CircuitRegistry] = None,
        create: bool = False,
        rng=None,
    ) -> "MatmulVerifier":
        """Build a verifier whose key material comes from a KeyStore.

        With the default ``create=False`` a missing Groth16 keypair raises
        ``KeyError`` — a freshly fabricated key could only reject valid
        proofs.  ``create=True`` is for provers vetting their own circuit.
        """
        keystore = keystore if keystore is not None else default_keystore()
        vk = None
        if get_backend(backend).requires_setup:
            vk = keystore.artifacts(
                a, n, b, strategy, backend, rng=rng, create=create
            ).keypair.vk
        return cls(
            a, n, b, strategy=strategy, backend=backend, vk=vk, registry=registry
        )

    # -- verification -------------------------------------------------------------
    def _matches(self, bundle: MatmulProofBundle) -> bool:
        return (
            bundle.backend == self.backend
            and bundle.strategy == self.strategy
            and tuple(bundle.shape) == (self.a, self.n, self.b)
        )

    def _circuit(self):
        return self._registry.get(self.a, self.n, self.b, self.strategy)

    def verify(self, bundle: MatmulProofBundle) -> bool:
        t0 = time.perf_counter()
        try:
            if not self._matches(bundle):
                return False
            kwargs = {}
            if self._backend.requires_setup:
                kwargs["vk"] = self.vk
            else:
                kwargs["circuit"] = self._circuit()
            return self._backend.verify(bundle, **kwargs)
        finally:
            bundle.timings["verify"] = time.perf_counter() - t0

    def verify_bytes(self, blob: bytes) -> bool:
        """Deserialize and verify a wire-format bundle.

        Malformed wire input is a verification failure, not an exception:
        untrusted bytes must never crash a serving loop
        (``SerializationError`` subclasses ``ValueError``)."""
        try:
            bundle = MatmulProofBundle.from_bytes(blob)
        except ValueError:
            return False
        return self.verify(bundle)

    def verify_batch(self, bundles: Sequence[MatmulProofBundle]) -> bool:
        """Check many bundles at once.

        Groth16 bundles share this verifier's key, so they route through
        the small-exponent batch check (one Miller loop over k live and 3
        prepared pairs instead of 4k pairs); other backends fall back to
        per-bundle verification.
        """
        if not bundles:
            return True
        if any(not self._matches(b) for b in bundles):
            return False
        batcher = getattr(self._backend, "batch_verify", None)
        if batcher is not None and self._backend.requires_setup:
            t0 = time.perf_counter()
            ok = batcher(self.vk, bundles)
            per = (time.perf_counter() - t0) / len(bundles)
            for b in bundles:
                b.timings["verify"] = per
            return ok
        return all(self.verify(b) for b in bundles)


class MatmulProver:
    """Builds the circuit once per (shape, strategy, backend) and proves
    arbitrarily many instances against it.

    Circuits and setup artifacts live in the process-wide
    :class:`~repro.core.artifacts.CircuitRegistry` / ``KeyStore`` by
    default, so two provers of the same circuit share one keypair and
    their proofs verify across instances.  Pass explicit ``registry`` /
    ``keystore`` objects to isolate state (tests) or persist it (servers).
    """

    def __init__(
        self,
        a: int,
        n: int,
        b: int,
        strategy: str = "crpc_psq",
        backend: str = "groth16",
        rng=None,
        registry: Optional[CircuitRegistry] = None,
        keystore: Optional[KeyStore] = None,
    ):
        self._backend = get_backend(backend)
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.a, self.n, self.b = a, n, b
        self.strategy = strategy
        self.backend = backend
        self._rng = rng
        self._registry = registry if registry is not None else default_registry()
        self._keystore = keystore if keystore is not None else default_keystore()
        self.circuit = self._registry.get(a, n, b, strategy)
        self._lock = self._registry.lock_for(a, n, b, strategy)
        self.timings = {}

    # -- artifacts ---------------------------------------------------------------
    def _artifacts(self, create: bool = True):
        key = (self.a, self.n, self.b, self.strategy, self.backend)
        artifacts = self._keystore.artifacts(*key, rng=self._rng, create=create)
        setup_s = self._keystore.setup_seconds(*key)
        if setup_s is not None:
            self.timings["setup"] = setup_s
        return artifacts

    def export_verifier(self) -> bytes:
        """Everything a detached verifier needs, as bytes (runs setup
        first if this circuit has never been set up)."""
        from .. import serialize

        vk_bytes = b""
        if self._backend.requires_setup:
            vk_bytes = self._backend.export_vk(self._artifacts())
        return serialize.verifier_artifact_to_bytes(
            self.backend, self.strategy, (self.a, self.n, self.b), vk_bytes
        )

    def verifier(self) -> MatmulVerifier:
        """A detached verifier for this prover's circuit (runs setup first
        if this circuit has never been set up)."""
        if self._backend.requires_setup:
            self._artifacts()  # ensure they exist; records setup timing
        return MatmulVerifier.for_circuit(
            self.a,
            self.n,
            self.b,
            strategy=self.strategy,
            backend=self.backend,
            keystore=self._keystore,
            registry=self._registry,
        )

    # -- proving -----------------------------------------------------------------
    def prove(self, x_mat, w_mat) -> MatmulProofBundle:
        artifacts = self._artifacts()
        with self._lock:
            bundle = self._backend.prove(
                self.circuit, artifacts, x_mat, w_mat, self._rng
            )
        bundle.timings.update(self.timings)
        return bundle

    # -- verification --------------------------------------------------------------
    def verify(self, bundle: MatmulProofBundle) -> bool:
        """Convenience in-process check; dispatches on the *bundle's*
        backend so a prover can vet foreign bundles of its shape.

        Raises ``KeyError`` if the bundle's backend needs a verifying key
        the keystore does not hold — a freshly generated keypair could
        only reject valid proofs (the seed-code bug this layer removes).
        """
        verifier = MatmulVerifier.for_circuit(
            self.a,
            self.n,
            self.b,
            strategy=self.strategy,
            backend=bundle.backend,
            keystore=self._keystore,
            registry=self._registry,
        )
        return verifier.verify(bundle)


def prove_matmul(
    x_mat,
    w_mat,
    strategy: str = "crpc_psq",
    backend: str = "groth16",
    prover: Optional[MatmulProver] = None,
):
    """One-shot convenience wrapper.  Returns ``(bundle, prover)`` so the
    prover (and its trusted setup) can be reused."""
    a, n, b = len(x_mat), len(x_mat[0]), len(w_mat[0])
    if len(w_mat) != n:
        raise ValueError("inner dimensions do not match")
    if prover is None:
        prover = MatmulProver(a, n, b, strategy=strategy, backend=backend)
    bundle = prover.prove(x_mat, w_mat)
    return bundle, prover


def verify_matmul(bundle: MatmulProofBundle, prover: MatmulProver) -> bool:
    return prover.verify(bundle)
