"""Chunk planning and failure accounting for dispatched proving.

:class:`~repro.core.service.ProvingService` ships circuit groups (or
shards of one large group) to workers as
:func:`repro.serialize.prove_jobs_to_bytes` envelopes and gets
:func:`repro.serialize.job_results_to_bytes` envelopes of wire-format
bundles back; :class:`~repro.core.remote.RemoteProvingExecutor` carries
them.  This module holds the parts that do not care where a chunk runs:

* :class:`GroupChunkPolicy` decides which groups are worth a dispatch
  hop at all — estimated group cost below the dispatch threshold stays
  in-process — and shards large groups into several chunks so one hot
  circuit saturates every worker instead of one.
* :func:`resolve_chunk` is the retry/bisect/quarantine loop for one
  failed chunk (see DESIGN.md "Failure semantics"): retryable failures
  (crash, timeout, corrupt results) are re-dispatched up to
  :class:`~repro.core.resilience.RetryPolicy` ``max_attempts`` with
  deterministic seeded backoff; a chunk that exhausts its retries with an
  isolatable error is split to corner the culprit — directly when the
  worker tagged the failure with a job id, by halving otherwise — and
  repeatedly-failing single jobs become
  :class:`~repro.core.errors.PoisonJob` quarantine records while **every
  other job in the chunk still returns its proof**.
* :class:`PoolOutcome` is what one dispatch round produced.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import serialize
from .errors import PoisonJob, ProvingError, wrap_error
from .resilience import RetryPolicy

#: crude wall-seconds per abstract circuit-cost unit (constraints + terms
#: + wires) for this pure-Python stack; only used to compare group cost
#: against the dispatch thresholds, so being off by 2-3x merely shifts
#: the inline/dispatch break-even point.  A calibrated
#: :class:`~repro.zkml.costmodel.CostModel` replaces it when provided.
_SECONDS_PER_COST_UNIT = 2e-3

ChunkTag = Tuple[tuple, int]  # (circuit key, chunk index)


@dataclass
class GroupChunkPolicy:
    """Cost-driven inline-vs-dispatch and sharding decisions.

    Group cost is estimated from the closed-form circuit costs
    (:func:`repro.zkml.compile.matmul_cost`); with a calibrated
    ``cost_model`` the estimate is in real predicted seconds, otherwise a
    static rate converts abstract cost units to rough seconds.  A group
    below ``min_dispatch_seconds`` stays in-process; anything above is
    split into up to ``workers`` chunks of at least
    ``target_chunk_seconds`` of predicted work each.  The same per-job
    estimate seeds the chunk lease deadlines
    (:meth:`repro.core.resilience.RetryPolicy.lease_seconds`).
    """

    workers: int = 2
    min_dispatch_seconds: float = 0.25
    target_chunk_seconds: float = 0.1
    cost_model: object = None  # Optional[repro.zkml.costmodel.CostModel]

    def job_seconds(self, key) -> float:
        """Predicted proving seconds for one job of this circuit."""
        from ..zkml.compile import matmul_cost  # lazy: avoids an import cycle

        a, n, b, strategy, backend = key
        cost = matmul_cost(a, n, b, strategy)
        if self.cost_model is not None:
            if backend == "groth16":
                return self.cost_model.groth16_prove_time(cost)
            return self.cost_model.spartan_prove_time(cost)
        return (
            cost.constraints + cost.terms + cost.wires
        ) * _SECONDS_PER_COST_UNIT

    def plan(self, key, n_jobs: int, workers: Optional[int] = None) -> int:
        """Number of dispatch chunks for the group; ``0`` = serve inline.

        ``workers`` overrides the static worker count for this decision —
        the service passes its registry's *live* worker count, so
        placement follows the fleet's health (an all-dead fleet plans
        ``0`` chunks and the group stays in-process)."""
        if n_jobs <= 0:
            return 0
        limit = self.workers if workers is None else workers
        if limit <= 0:
            return 0
        total = self.job_seconds(key) * n_jobs
        if total < self.min_dispatch_seconds:
            return 0
        return min(
            max(1, limit),
            n_jobs,
            max(1, math.ceil(total / self.target_chunk_seconds)),
        )

    @staticmethod
    def chunk(jobs: Sequence, n_chunks: int) -> List[List]:
        """Split ``jobs`` into ``n_chunks`` contiguous, balanced slices."""
        n_chunks = max(1, min(n_chunks, len(jobs)))
        size, extra = divmod(len(jobs), n_chunks)
        out, start = [], 0
        for i in range(n_chunks):
            end = start + size + (1 if i < extra else 0)
            out.append(list(jobs[start:end]))
            start = end
        return out


@dataclass
class PoolOutcome:
    """What one dispatch round (:meth:`~repro.core.remote.
    RemoteProvingExecutor.finish`) produced."""

    #: tag -> decoded ``(job_id, bundle_bytes, prove_seconds)`` triples.
    #: A chunk that quarantined some jobs still lists the others' results.
    results: Dict[ChunkTag, List[Tuple[int, bytes, float]]] = field(
        default_factory=dict
    )
    #: tag -> typed error for chunks that failed *as a whole* after
    #: retries (isolated to their group, never fatal to the batch)
    errors: Dict[ChunkTag, ProvingError] = field(default_factory=dict)
    #: chunks that needed any re-dispatch (crash, timeout, or collateral)
    retried: List[ChunkTag] = field(default_factory=list)
    #: tag -> total dispatch attempts the chunk consumed
    attempts: Dict[ChunkTag, int] = field(default_factory=dict)
    #: jobs bisected down and confirmed poisonous (never retried again)
    quarantined: List[PoisonJob] = field(default_factory=list)


def resolve_chunk(
    dispatch,
    policy: RetryPolicy,
    blob: bytes,
    timeout_s: Optional[float],
    err: Optional[ProvingError],
    attempts: int,
    tag: ChunkTag,
) -> Tuple[List[Tuple[int, bytes, float]], List[PoisonJob], int]:
    """Retry, then bisect, one failed (or interrupted) chunk.

    ``dispatch`` is the transport: a callable ``(jobs_blob, timeout_s) ->
    results_blob`` that runs one chunk on some worker — this accounting
    doesn't care which.

    Returns ``(result_triples, quarantined_jobs, attempts_used)``; raises
    the final typed error if the chunk is unrecoverable as a whole
    (non-isolatable failure, or an unreadable jobs blob).  ``attempts``
    counts dispatches already charged to this chunk (``0`` for a part of
    a bisected chunk).
    """
    while err is None or (
        policy.is_retryable(err) and attempts < policy.max_attempts
    ):
        if err is not None:
            time.sleep(policy.backoff_seconds(tag, attempts))
        attempts += 1
        try:
            raw = dispatch(blob, timeout_s)
            return serialize.job_results_from_bytes(raw), [], attempts
        except Exception as exc:  # noqa: BLE001 — classified and looped
            err = wrap_error(exc, attempts=attempts)
    if policy.bisect and err.isolate:
        try:
            jobs = serialize.prove_jobs_from_bytes(blob)
        except ValueError:
            raise err from None  # unreadable chunk: nothing to bisect
        if len(jobs) == 1:
            return (
                [],
                [
                    PoisonJob(
                        f"quarantined after {attempts} attempt(s): "
                        f"{err.kind}: {err.message}",
                        job_id=jobs[0][0],
                        attempts=attempts,
                    )
                ],
                attempts,
            )
        if err.job_id is not None and any(j[0] == err.job_id for j in jobs):
            # The worker attributed the failure: split the culprit out
            # directly (one confirmation run) instead of bisecting.
            parts = [
                [j for j in jobs if j[0] == err.job_id],
                [j for j in jobs if j[0] != err.job_id],
            ]
        else:
            mid = len(jobs) // 2
            parts = [jobs[:mid], jobs[mid:]]
        triples: List[Tuple[int, bytes, float]] = []
        poison: List[PoisonJob] = []
        for part in parts:
            if not part:
                continue
            sub_triples, sub_poison, _ = resolve_chunk(
                dispatch,
                policy,
                serialize.prove_jobs_to_bytes(part),
                timeout_s,
                None,
                attempts=0,
                tag=tag,
            )
            triples.extend(sub_triples)
            poison.extend(sub_poison)
        return triples, poison, attempts
    raise err
