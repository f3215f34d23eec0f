"""End-to-end verifiable inference for (small) quantised Transformers.

The paper proves whole-model inference; in pure Python we prove each
*matmul* of the forward pass with the zkVC circuit (layer-wise composition,
the standard trick when one monolithic circuit would not fit) and check the
nonlinear links (rescale/softmax/gelu/layernorm) by recomputation against
the quantised reference — the full in-circuit nonlinear path is exercised
separately by :func:`repro.zkml.compile.compile_block_circuit`.

For paper-scale models use :class:`repro.zkml.costmodel.CostModel` instead;
this class is meant for the integration tests and examples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.api import MatmulProofBundle, MatmulProver, MatmulVerifier
from ..core.artifacts import (
    CircuitRegistry,
    KeyStore,
    default_keystore,
    default_registry,
)
from ..field.prime_field import BN254_FR_MODULUS
from .quantized import QuantizedTransformer

R = BN254_FR_MODULUS


@dataclass
class LayerProof:
    layer: str
    bundle: MatmulProofBundle


@dataclass
class InferenceProof:
    prediction: int
    logits: List[int]
    layer_proofs: List[LayerProof] = field(default_factory=list)
    prove_time_s: float = 0.0

    def total_proof_bytes(self) -> int:
        return sum(lp.bundle.proof_size_bytes() for lp in self.layer_proofs)


class VerifiableInference:
    """Prove the matmuls of a quantised model's forward pass.

    ``max_layers`` bounds how many matmuls are actually proven (the rest are
    recomputed); ``None`` proves everything — only sensible for tiny models.

    ``executor`` opts the layer proofs into the
    :class:`~repro.core.service.ProvingService` executor strategies:
    ``"serial"`` (default) proves layers in this process, ``"process"``
    shards the captured layer matmuls across the service's worker
    processes — the multi-layer forward pass is exactly the
    many-jobs-few-circuits workload the fleet is built for.
    """

    def __init__(
        self,
        qmodel: QuantizedTransformer,
        strategy: str = "crpc_psq",
        backend: str = "groth16",
        max_layers: Optional[int] = None,
        registry: Optional[CircuitRegistry] = None,
        keystore: Optional[KeyStore] = None,
        executor: str = "serial",
        workers: int = 4,
        retry_policy=None,
    ):
        self.qmodel = qmodel
        self.strategy = strategy
        self.backend = backend
        self.max_layers = max_layers
        self.executor = executor
        self.workers = workers
        #: Optional[repro.core.resilience.RetryPolicy] forwarded to the
        #: ProvingService on non-serial executors — layer proving then
        #: inherits the retry/lease/quarantine fault tolerance.
        self.retry_policy = retry_policy
        # Circuits and keypairs live in the shared artifact store, so
        # proofs from one instance verify on any other (and, with a
        # disk-backed KeyStore, across restarts).
        self._registry = registry if registry is not None else default_registry()
        self._keystore = keystore if keystore is not None else default_keystore()
        self._provers: Dict[Tuple[int, int, int], MatmulProver] = {}
        self._service = None  # built once on first non-serial prove()

    def _prover_for(self, a: int, n: int, b: int) -> MatmulProver:
        key = (a, n, b)
        if key not in self._provers:
            self._provers[key] = MatmulProver(
                a,
                n,
                b,
                strategy=self.strategy,
                backend=self.backend,
                registry=self._registry,
                keystore=self._keystore,
            )
        return self._provers[key]

    def prove(self, raw_input) -> InferenceProof:
        """Run quantised inference on one input and prove its matmuls."""
        q = self.qmodel
        q.trace.matmuls.clear()
        q.trace.nonlinears.clear()

        t0 = time.perf_counter()
        captured: List[Tuple[str, np.ndarray, np.ndarray]] = []

        # Wrap the linear primitive to capture (x, w) pairs per matmul.
        original_linear = q._linear

        def capturing_linear(x, w, b, layer):
            if x.ndim == 2:
                captured.append((layer, x.copy(), w.copy()))
            else:
                captured.append((layer, x.reshape(-1, x.shape[-1]).copy(), w.copy()))
            return original_linear(x, w, b, layer)

        q._linear = capturing_linear  # type: ignore[assignment]
        try:
            tokens = q.embed(np.asarray(raw_input)[None, ...])
            logits = q.forward_tokens(tokens)[0]
        finally:
            q._linear = original_linear  # type: ignore[assignment]

        budget = self.max_layers if self.max_layers is not None else len(captured)
        proofs = self._prove_layers(captured[:budget])

        return InferenceProof(
            prediction=int(np.argmax(logits)),
            logits=[int(v) for v in logits],
            layer_proofs=proofs,
            prove_time_s=time.perf_counter() - t0,
        )

    def _prove_layers(self, captured) -> List[LayerProof]:
        """Prove captured ``(layer, x, w)`` matmuls under the configured
        executor.

        The serial path proves in-place through per-shape provers; the
        service path submits every layer as a job so same-shape layers
        group into circuit batches and (with ``executor="process"``) large
        groups shard across worker processes.  Service submission order is
        capture order, and results come back sorted by job id, so layer
        names line up positionally.
        """
        if self.executor == "serial":
            proofs = []
            for layer, x, w in captured:
                a, n = x.shape
                b = w.shape[1]
                prover = self._prover_for(a, n, b)
                bundle = prover.prove(x.tolist(), w.tolist())
                proofs.append(LayerProof(layer=layer, bundle=bundle))
            return proofs

        if self._service is None:
            from ..core.service import ProvingService

            # One service for the lifetime of this instance: the process
            # executor's workers (and their circuit/key/table caches) then
            # amortise across prove() calls instead of being relaunched
            # and leaked per inference.
            self._service = ProvingService(
                workers=self.workers,
                registry=self._registry,
                keystore=self._keystore,
                executor=self.executor,
                retry_policy=self.retry_policy,
            )
        service = self._service
        for _, x, w in captured:
            a, n = x.shape
            self._prover_for(a, n, w.shape[1])  # keeps export_verifiers working
            service.submit(
                x.tolist(), w.tolist(), strategy=self.strategy, backend=self.backend
            )
        report = service.run()
        if report.errors or report.invalid_jobs or len(report.results) != len(captured):
            from ..core.errors import ProvingError

            # An inference proof is all-or-nothing: a single unproven
            # layer (failed, quarantined, or invalid) makes the whole
            # forward pass unverifiable, so surface a typed error with
            # the per-layer dispositions instead of a partial proof.
            bad = {
                jid: f"{o.status}: {o.error}"
                for jid, o in sorted(report.job_outcomes.items())
                if o.status != "ok"
            }
            raise ProvingError(
                f"layer proving failed: errors={report.errors} "
                f"invalid={report.invalid_jobs} jobs={bad}"
            )
        return [
            LayerProof(layer=layer, bundle=result.bundle)
            for (layer, _, _), result in zip(captured, report.results)
        ]

    def _verifier_for(
        self, shape: Tuple[int, int, int], strategy: str, backend: str
    ) -> MatmulVerifier:
        """Detached verifier for one layer circuit — never runs setup.

        Raises ``KeyError`` if a Groth16 verifying key for the circuit is
        in neither memory nor the keystore's disk root; a freshly-generated
        key could never accept the proof anyway (the seed code did exactly
        that and silently rejected every cross-instance proof).
        """
        a, n, b = shape
        return MatmulVerifier.for_circuit(
            a,
            n,
            b,
            strategy=strategy,
            backend=backend,
            keystore=self._keystore,
            registry=self._registry,
        )

    def verify(self, proof: InferenceProof) -> bool:
        """Check every layer proof with detached verifiers.

        Same-circuit Groth16 layers share a verifying key, so each group
        goes through the small-exponent batch check instead of per-proof
        pairings.  Bundle metadata is untrusted: a bundle claiming a
        strategy/backend other than this instance's configuration, or a
        circuit this keystore holds no key for, is simply not verifiable
        — ``False``, never an exception.
        """
        grouped: Dict[Tuple[int, int, int], List[MatmulProofBundle]] = {}
        for lp in proof.layer_proofs:
            bundle = lp.bundle
            if (
                bundle.strategy != self.strategy
                or bundle.backend != self.backend
            ):
                return False
            grouped.setdefault(tuple(bundle.shape), []).append(bundle)
        for shape, bundles in grouped.items():
            try:
                verifier = self._verifier_for(shape, self.strategy, self.backend)
            except (KeyError, ValueError):
                return False
            if not verifier.verify_batch(bundles):
                return False
        return True

    def close(self) -> None:
        """Stop the proving service's workers, if any were started."""
        if self._service is not None:
            self._service.close()

    def export_verifiers(self) -> Dict[Tuple[int, int, int], bytes]:
        """Wire-format verifier artifacts for every proven layer circuit,
        ready to ship to a remote client."""
        return {
            key: prover.export_verifier()
            for key, prover in self._provers.items()
        }
