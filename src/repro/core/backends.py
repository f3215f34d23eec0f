"""Proof-backend registry.

Each backend packages the four operations the serving stack needs —
``setup`` / ``prove`` / ``verify`` / ``export_vk`` — behind one interface,
so :class:`repro.core.api.MatmulProver`, the detached
:class:`repro.core.api.MatmulVerifier`, and the batching
:class:`repro.core.service.ProvingService` never branch on backend names.
New proof systems register with :func:`register_backend` and become
available everywhere by name.

Backend contract:

* ``setup(circuit)`` returns an opaque artifacts object (``None`` for
  transparent systems).  Artifacts are cached process-wide and persisted by
  :class:`repro.core.artifacts.KeyStore`.
* ``prove(circuit, artifacts, X, W)`` returns a
  :class:`~repro.core.bundle.MatmulProofBundle`.
* ``verify(bundle, vk=..., circuit=...)`` is *stateless*: it takes exactly
  the detached material a remote verifier holds (an exported verifying key
  for Groth16; the public circuit description for Spartan) and never runs
  setup.
* ``export_vk`` / ``import_vk`` round-trip the verification material
  through bytes for cross-process use.
"""

from __future__ import annotations

import abc
import hashlib
import os
import secrets
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .. import groth16
from .. import serialize
from .. import spartan
from ..field import vector
from ..field.prime_field import BN254_FR_MODULUS
from ..gadgets.matmul import MatmulCircuit
from ..r1cs.builder import derive_z
from ..r1cs.system import R1CSInstance
from .bundle import MatmulProofBundle, matrix_bytes

R = BN254_FR_MODULUS

Rng = Optional[Callable[[], int]]


class ProofBackend(abc.ABC):
    """One proof system, as seen by the serving layers above it."""

    #: registry key, also stored in every bundle this backend produces
    name: str = ""
    #: whether ``setup`` produces per-circuit artifacts worth caching
    requires_setup: bool = False

    @abc.abstractmethod
    def setup(self, circuit: MatmulCircuit, rng: Rng = None):
        """Produce per-circuit proving/verification artifacts (or None)."""

    @abc.abstractmethod
    def prove(
        self,
        circuit: MatmulCircuit,
        artifacts,
        x_mat,
        w_mat,
        rng: Rng = None,
    ) -> MatmulProofBundle:
        """Prove one instance.  The caller holds the circuit's lock."""

    @abc.abstractmethod
    def verify(
        self,
        bundle: MatmulProofBundle,
        *,
        vk=None,
        circuit: Optional[MatmulCircuit] = None,
    ) -> bool:
        """Statelessly check a bundle against detached material."""

    @abc.abstractmethod
    def export_vk(self, artifacts) -> bytes:
        """Serialize the verification material (b'' if none is needed)."""

    @abc.abstractmethod
    def import_vk(self, data: bytes):
        """Inverse of :meth:`export_vk`."""

    @abc.abstractmethod
    def proof_to_bytes(self, proof) -> bytes:
        ...

    @abc.abstractmethod
    def proof_from_bytes(self, data: bytes):
        ...

    def artifacts_to_bytes(self, artifacts) -> bytes:
        """Persistable form of the full setup output (prover + verifier)."""
        return b""

    def artifacts_from_bytes(
        self, data: bytes, circuit: MatmulCircuit
    ):
        return None

    def warm(
        self, artifacts, circuit: Optional[MatmulCircuit] = None
    ) -> None:
        """Pre-build per-key prover caches ahead of a batch.

        Optional: callers that will prove several instances against one
        key or circuit (pool workers serving a chunk) invoke this so the
        first proofs don't pay for table construction mid-chunk.
        Default is a no-op."""


# -- Groth16 -------------------------------------------------------------------

@dataclass
class Groth16Artifacts:
    """Setup output plus the specialised instance proving needs.

    The instance is re-derived from the circuit when artifacts are loaded
    from disk; only the keypair itself is persisted.  Setup cost is timed
    by the :class:`~repro.core.artifacts.KeyStore`, the single owner of
    that measurement.
    """

    keypair: groth16.Groth16Keypair
    instance: R1CSInstance


class Groth16Backend(ProofBackend):
    """Pairing-based, constant proof size, per-circuit trusted setup.

    The CRPC packing point is fixed at setup: it is part of the circuit's
    public parameters, baked into the CRS (as in the paper's
    implementation), so proofs of one circuit all share one keypair.
    """

    name = "groth16"
    requires_setup = True

    def setup(self, circuit: MatmulCircuit, rng: Rng = None) -> Groth16Artifacts:
        z = circuit.packing_point()
        instance = circuit.cs.specialize(z)
        return Groth16Artifacts(
            keypair=groth16.setup(instance, rng), instance=instance
        )

    def prove(
        self,
        circuit: MatmulCircuit,
        artifacts: Groth16Artifacts,
        x_mat,
        w_mat,
        rng: Rng = None,
    ) -> MatmulProofBundle:
        z = circuit.packing_point()
        t0 = time.perf_counter()
        y = circuit.assign(x_mat, w_mat, z)
        proof = groth16.prove(
            artifacts.keypair.pk,
            artifacts.instance,
            circuit.cs.assignment(),
            rng,
        )
        prove_time = time.perf_counter() - t0
        return MatmulProofBundle(
            backend=self.name,
            strategy=circuit.strategy,
            shape=(circuit.a, circuit.n, circuit.b),
            y=y,
            proof=proof,
            z=z,
            commitment=b"",
            timings={"prove": prove_time},
        )

    def verify(
        self,
        bundle: MatmulProofBundle,
        *,
        vk=None,
        circuit: Optional[MatmulCircuit] = None,
    ) -> bool:
        if vk is None:
            raise ValueError("groth16 verification needs a verifying key")
        try:
            return groth16.verify(vk, bundle.public_inputs(), bundle.proof)
        except ValueError:
            # statement length does not match this key's circuit
            return False

    def batch_verify(self, vk, bundles, rng: Rng = None) -> bool:
        """Small-exponent batch check for same-key bundles."""
        try:
            return groth16.batch_verify(
                vk,
                [b.public_inputs() for b in bundles],
                [b.proof for b in bundles],
                rng,
            )
        except ValueError:
            return False

    def export_vk(self, artifacts: Groth16Artifacts) -> bytes:
        return serialize.groth16_vk_to_bytes(artifacts.keypair.vk)

    def import_vk(self, data: bytes):
        return serialize.groth16_vk_from_bytes(data)

    def proof_to_bytes(self, proof) -> bytes:
        return serialize.groth16_proof_to_bytes(proof)

    def proof_from_bytes(self, data: bytes):
        return serialize.groth16_proof_from_bytes(data)

    def artifacts_to_bytes(self, artifacts: Groth16Artifacts) -> bytes:
        return serialize.groth16_keypair_to_bytes(artifacts.keypair)

    def artifacts_from_bytes(
        self, data: bytes, circuit: MatmulCircuit
    ) -> Groth16Artifacts:
        keypair = serialize.groth16_keypair_from_bytes(data)
        instance = circuit.cs.specialize(circuit.packing_point())
        return Groth16Artifacts(keypair=keypair, instance=instance)

    def warm(
        self,
        artifacts: Groth16Artifacts,
        circuit: Optional[MatmulCircuit] = None,
    ) -> None:
        """Build the proving key's five query tables now
        (:meth:`~repro.groth16.keys.ProvingKey.tables`), so each
        subsequent proof under this keypair starts at table speed instead
        of its first proof running the generic MSMs."""
        artifacts.keypair.pk.tables()


# -- Spartan -------------------------------------------------------------------

class SpartanBackend(ProofBackend):
    """Transparent (no trusted setup).

    The packing point is derived by Fiat-Shamir from a salted commitment to
    (X, W) and the claimed Y, so it is fixed only after the inputs are
    bound — the commit-then-prove ordering (see DESIGN.md).  Verification
    needs only the public circuit description, never any keys.
    """

    name = "spartan"
    requires_setup = False

    def setup(self, circuit: MatmulCircuit, rng: Rng = None):
        return None

    def prove(
        self,
        circuit: MatmulCircuit,
        artifacts,
        x_mat,
        w_mat,
        rng: Rng = None,
    ) -> MatmulProofBundle:
        t0 = time.perf_counter()
        salt = secrets.token_bytes(16)
        commitment = (
            salt
            + hashlib.sha256(
                salt + matrix_bytes(x_mat) + matrix_bytes(w_mat)
            ).digest()
        )
        # Fix the packing point only after the inputs are bound.  Y is
        # computed once here and shared with the witness assignment.
        y = circuit.product(x_mat, w_mat)
        z = derive_z(circuit.circuit_id() + commitment + matrix_bytes(y))
        circuit.assign(x_mat, w_mat, z, y=y)
        instance = circuit.cs.packed().at(z)
        transcript = spartan.Transcript(b"zkvc-matmul")
        transcript.append_bytes(b"commitment", commitment)
        transcript.append_scalar(b"packing-z", z)
        proof = spartan.prove(
            instance, circuit.cs.assignment(), transcript
        )
        prove_time = time.perf_counter() - t0
        return MatmulProofBundle(
            backend=self.name,
            strategy=circuit.strategy,
            shape=(circuit.a, circuit.n, circuit.b),
            y=y,
            proof=proof,
            z=z,
            commitment=commitment,
            timings={"prove": prove_time},
        )

    def verify(
        self,
        bundle: MatmulProofBundle,
        *,
        vk=None,
        circuit: Optional[MatmulCircuit] = None,
    ) -> bool:
        if circuit is None:
            raise ValueError(
                "spartan verification needs the public circuit description"
            )
        expected_z = derive_z(
            circuit.circuit_id()
            + bundle.commitment
            + matrix_bytes(bundle.y)
        )
        if bundle.z != expected_z:
            return False
        instance = circuit.cs.packed().at(bundle.z)
        transcript = spartan.Transcript(b"zkvc-matmul")
        transcript.append_bytes(b"commitment", bundle.commitment)
        transcript.append_scalar(b"packing-z", bundle.z)
        return spartan.verify(
            instance, bundle.public_inputs(), bundle.proof, transcript
        )

    def warm(self, artifacts, circuit: Optional[MatmulCircuit] = None) -> None:
        """Build the Pedersen table rows this circuit's witness commitment
        uses and its packed constraint system, so the first proof of a
        chunk does not pay for either mid-job."""
        if circuit is not None:
            cs = circuit.cs
            spartan.snark.warm(cs.num_public, cs.num_wires - cs.num_public)
            packed = cs.packed()
            if vector.active_impl() is not None:
                packed.arrays()

    def export_vk(self, artifacts) -> bytes:
        return b""

    def import_vk(self, data: bytes):
        return None

    def proof_to_bytes(self, proof) -> bytes:
        return serialize.spartan_proof_to_bytes(proof)

    def proof_from_bytes(self, data: bytes):
        return serialize.spartan_proof_from_bytes(data)


# -- worker entrypoints ----------------------------------------------------------
#
# Top-level functions shared by the in-process serving path and the
# workers of :mod:`repro.core.remote_worker`.  Workers cannot receive live
# backend or circuit objects over the wire; they get names and bytes, and
# everything live is rebuilt here from the registry.

def prove_jobs_to_wire(
    backend_name: str,
    circuit: MatmulCircuit,
    artifacts,
    jobs,
    rng: Rng = None,
):
    """Prove a same-circuit job list and serialize every bundle.

    ``jobs`` is a sequence of ``(job_id, x, w)``; the return value is a
    list of ``(job_id, bundle_bytes, prove_seconds)`` — exactly the
    payload of :func:`repro.serialize.job_results_to_bytes`, so a pool
    worker's results cross the process boundary as plain bytes.

    A Python-level failure while proving one job raises a typed
    :class:`~repro.core.errors.ProvingError` *tagged with that job's id*
    (pickle-safe, so it survives the process boundary): the dispatching
    executor can then quarantine the culprit directly and re-dispatch the
    rest of the chunk instead of bisecting blind.

    With ``REPRO_WORKER_RNG_SEED`` set (a test hook), each job proves
    under a deterministic rng derived from ``(seed, job_id)`` — the same
    job then yields byte-identical bundles no matter *which* worker,
    process, or host ran it, which is how the executor-equivalence tests
    compare tiers at the byte level.  Only backends that thread ``rng``
    through (Groth16) become deterministic; an explicit ``rng`` argument
    always wins over the hook.
    """
    from .errors import wrap_error

    backend = get_backend(backend_name)
    seed = os.environ.get("REPRO_WORKER_RNG_SEED")
    out = []
    for job_id, x_mat, w_mat in jobs:
        job_rng = rng
        if job_rng is None and seed is not None:
            job_rng = _seeded_job_rng(seed, job_id)
        t0 = time.perf_counter()
        try:
            bundle = backend.prove(circuit, artifacts, x_mat, w_mat, job_rng)
        except Exception as exc:  # noqa: BLE001 — typed + attributed
            raise wrap_error(exc, job_id=job_id) from exc
        out.append((job_id, bundle.to_bytes(), time.perf_counter() - t0))
    return out


def _seeded_job_rng(seed: str, job_id: int):
    """A per-job deterministic rng stream: sha256(seed ‖ job_id ‖ counter)."""
    counter = 0

    def rng() -> int:
        nonlocal counter
        digest = hashlib.sha256(
            f"{seed}|{job_id}|{counter}".encode()
        ).digest()
        counter += 1
        return int.from_bytes(digest, "big")

    return rng


# -- registry ------------------------------------------------------------------

_BACKENDS: Dict[str, ProofBackend] = {}


def register_backend(backend: ProofBackend) -> ProofBackend:
    """Make a backend available by name to provers, verifiers, stores, and
    the proving service.  Re-registering a name replaces it."""
    if not backend.name:
        raise ValueError("backend must have a non-empty name")
    _BACKENDS[backend.name] = backend
    return backend


def get_backend(name: str) -> ProofBackend:
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}") from None


def backend_names() -> Tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


register_backend(Groth16Backend())
register_backend(SpartanBackend())
