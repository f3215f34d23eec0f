"""Multi-process proving executor with fault tolerance.

Pure-Python proving is CPU-bound, so the thread pool in
:class:`~repro.core.service.ProvingService` can only overlap waiting — the
GIL serialises the actual work.  This module moves whole circuit groups
(or shards of one large group) into worker *processes*:

* **Jobs cross the boundary as bytes.**  A group is shipped as a
  :func:`repro.serialize.prove_jobs_to_bytes` envelope and comes back as a
  :func:`repro.serialize.job_results_to_bytes` envelope of wire-format
  bundles — no live circuit, key, or proof objects are ever pickled.
* **Workers rehydrate keys from disk, never from pickles.**  A worker
  opens the parent's :class:`~repro.core.artifacts.KeyStore` root
  *read-only* and loads the keypair the parent published before
  dispatching; a worker that fabricated its own keypair would produce
  proofs nobody can verify.  Spartan groups need no key material at all.
* **Spawn-safe.**  The worker entrypoint is a top-level function and all
  of its inputs are primitives, so it works under the ``spawn`` start
  method; ``fork`` is preferred where available because it skips
  re-importing the interpreter state.

Failure semantics (see DESIGN.md "Failure semantics"):

* Every chunk failure is classified into the typed taxonomy of
  :mod:`repro.core.errors` — a worker exception pickles back as (or is
  wrapped into) a :class:`~repro.core.errors.ProvingError`, a dying
  worker (segfault, ``os._exit``) becomes
  :class:`~repro.core.errors.WorkerCrash`, a corrupt result envelope
  becomes :class:`~repro.core.errors.CorruptEnvelope`, an unpublished
  keypair :class:`~repro.core.errors.MissingKey`.
* **Leases.**  Each dispatched chunk carries a deadline
  (:class:`~repro.core.resilience.ChunkLease`, derived by the service
  from the chunk policy's cost estimate); when a lease expires the hung
  worker is holding a pool slot hostage, so the whole pool is terminated,
  the expired chunk is charged a :class:`~repro.core.errors.ChunkTimeout`
  attempt, and every innocent in-flight chunk is re-dispatched without
  penalty.
* **Retries.**  Retryable failures (crash, timeout, corrupt results) are
  re-dispatched — each alone in a fresh single-worker pool, under the
  same lease — up to :class:`~repro.core.resilience.RetryPolicy`
  ``max_attempts``, with deterministic seeded exponential backoff.
* **Bisection + quarantine.**  A chunk that exhausts its retries with an
  isolatable error is split to corner the culprit: if the worker tagged
  the failure with a job id (see
  :func:`repro.core.backends.prove_jobs_to_wire`) that job is split out
  directly, otherwise the chunk is halved; repeatedly-failing single
  jobs become :class:`~repro.core.errors.PoisonJob` quarantine records
  and **every other job in the chunk still returns its proof**.
* **Deterministic fault injection.**  The worker entry/exit hooks consult
  :mod:`repro.core.faultinject` (environment-carried, spawn-safe), so
  every path above is forced and asserted in ``tests/test_resilience.py``.

The :class:`GroupChunkPolicy` decides which groups are worth a process
hop at all: estimated group cost below the dispatch threshold stays
in-process (spawn + rehydration overhead would dominate), and large
groups are sharded into several chunks so one hot circuit saturates every
worker instead of one.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
import weakref
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import serialize
from . import faultinject
from .artifacts import CircuitRegistry, KeyStore
from .backends import get_backend, prove_jobs_to_wire
from .errors import ChunkTimeout, PoisonJob, ProvingError, wrap_error
from .resilience import ChunkLease, RetryPolicy

#: crude wall-seconds per abstract circuit-cost unit (constraints + terms
#: + wires) for this pure-Python stack; only used to compare group cost
#: against the dispatch thresholds, so being off by 2-3x merely shifts
#: the inline/process break-even point.  A calibrated
#: :class:`~repro.zkml.costmodel.CostModel` replaces it when provided.
_SECONDS_PER_COST_UNIT = 2e-3

#: legacy test hook (see tests/test_pool.py): a worker whose group
#: strategy matches this environment variable dies without cleanup.  The
#: general mechanism is :mod:`repro.core.faultinject`; this survives for
#: the whole-strategy crash tests that predate it.
_CRASH_ENV = "REPRO_POOL_TEST_CRASH"

ChunkTag = Tuple[tuple, int]  # (circuit key, chunk index)

# Worker-process caches, keyed by keystore root: one worker serves many
# chunks, and rebuilding circuits or re-reading keys per chunk would waste
# exactly the amortisation the pool exists for.
_WORKER_STORES: Dict[Optional[str], Tuple[CircuitRegistry, KeyStore]] = {}


def _worker_stores(root: Optional[str]) -> Tuple[CircuitRegistry, KeyStore]:
    stores = _WORKER_STORES.get(root)
    if stores is None:
        registry = CircuitRegistry()
        keystore = KeyStore(root=root, registry=registry, readonly=True)
        stores = _WORKER_STORES[root] = (registry, keystore)
    return stores


def _prove_group_worker(keystore_root: Optional[str], jobs_blob: bytes) -> bytes:
    """Top-level (picklable) pool entrypoint: one same-circuit chunk.

    Takes and returns wire envelopes only.  Raises ``KeyError`` if the
    chunk needs setup artifacts the parent never published — a worker
    must adopt the parent's keypair or fail, never mint its own.  An
    installed :class:`~repro.core.faultinject.FaultPlan` is honoured at
    entry (crash/hang/missing-key/poison) and exit (corrupt results).
    """
    jobs = serialize.prove_jobs_from_bytes(jobs_blob)
    if not jobs:
        return serialize.job_results_to_bytes([])
    plan = faultinject.active_plan()
    if plan is not None:
        plan.fire_worker(jobs, tier="process")
    _, x0, w0, strategy, backend_name = jobs[0]
    if os.environ.get(_CRASH_ENV) == strategy:
        os._exit(13)  # simulated segfault (legacy test hook)
    a, n, b = len(x0), len(x0[0]), len(w0[0])
    registry, keystore = _worker_stores(keystore_root)
    circuit = registry.get(a, n, b, strategy)
    backend = get_backend(backend_name)
    artifacts = None
    if backend.requires_setup:
        artifacts = keystore.artifacts(a, n, b, strategy, backend_name)
    if len(jobs) >= 2:
        # A chunk amortises the eager table build; a single job would pay
        # it for nothing (promote-on-reuse never builds for one shot).
        backend.warm(artifacts, circuit)
    results = prove_jobs_to_wire(
        backend_name,
        circuit,
        artifacts,
        [(job_id, x, w) for job_id, x, w, _, _ in jobs],
    )
    blob = serialize.job_results_to_bytes(results)
    if plan is not None:
        blob = plan.mangle_results(blob, jobs, tier="process")
    return blob


def _stop_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*, hung workers included.

    ``shutdown(wait=False)`` alone would leave a hung worker sleeping in
    its slot (and an orphan process behind the interpreter), so the
    worker processes are terminated first.  Reaches into
    ``_processes`` — stdlib-private, but the executor offers no public
    kill switch, and the alternative is waiting out the hang.
    """
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.terminate()
        except (OSError, ValueError):
            pass  # already dead / already closed
    pool.shutdown(wait=False, cancel_futures=True)


@dataclass
class GroupChunkPolicy:
    """Cost-driven inline-vs-process and sharding decisions.

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
        the remote executor passes its registry's *live* worker count, so
        placement follows the fleet's heartbeat state (an all-dead fleet
        plans ``0`` chunks and the group stays in-process)."""
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
    """What one :meth:`ProcessProvingExecutor.run` produced."""

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
    results_blob`` that runs one chunk somewhere (a fresh single-worker
    pool, a remote host over TCP) — this accounting doesn't care which,
    which is what lets :class:`ProcessProvingExecutor` and
    :class:`~repro.core.remote.RemoteProvingExecutor` share it verbatim.

    Returns ``(result_triples, quarantined_jobs, attempts_used)``; raises
    the final typed error if the chunk is unrecoverable as a whole
    (non-isolatable failure, or an unreadable jobs blob).  ``attempts``
    counts dispatches already charged to this chunk (``0`` for an
    innocent re-dispatch after a pool teardown).
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


class ProcessProvingExecutor:
    """Runs same-circuit job chunks on a pool of worker processes.

    ``keystore_root`` is the directory workers rehydrate Groth16 keypairs
    from; the dispatching service publishes setup artifacts there *before*
    submitting work.  ``start_method`` defaults to ``fork`` where the
    platform offers it (cheapest start-up) and ``spawn`` otherwise; both
    are supported and tested.  ``retry_policy`` configures the
    fault-tolerance layer (attempts, backoff, leases, bisection); the
    default :class:`~repro.core.resilience.RetryPolicy` retries transient
    failures and quarantines poison jobs.  ``breakages`` counts pool
    teardowns forced by dead or hung workers — the degradation-ladder
    signal the service reads.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        keystore_root: Optional[str] = None,
        start_method: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.workers = max(1, workers or (os.cpu_count() or 2))
        self.keystore_root = keystore_root
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self.start_method = start_method
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.breakages = 0
        self._ctx = multiprocessing.get_context(start_method)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._finalizer = None

    def _pool_executor(self) -> ProcessPoolExecutor:
        # The pool persists across run() calls: worker processes keep
        # their circuit/keypair/table caches (_WORKER_STORES) warm from
        # batch to batch, which is the amortisation this module exists
        # for.  It is torn down only after a worker death poisons it.
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self._ctx
            )
            # If this executor is dropped without close(), shut the pool
            # down at GC time: an orphaned ProcessPoolExecutor races the
            # interpreter's exit hook and spews a harmless-but-ugly
            # "Bad file descriptor" traceback on some CPython versions.
            self._finalizer = weakref.finalize(
                self, ProcessPoolExecutor.shutdown, self._pool, wait=False
            )
        return self._pool

    def shutdown(self) -> None:
        """Release the pool.  Idempotent: safe to call repeatedly, before
        any pool exists, and after a broken pool was already dropped."""
        pool, self._pool = self._pool, None
        finalizer, self._finalizer = self._finalizer, None
        if finalizer is not None:
            finalizer.detach()
        if pool is not None:
            pool.shutdown(wait=False)

    def _terminate_pool(self) -> None:
        """Kill the shared pool (hung/dead workers) and count the
        breakage; the next dispatch rebuilds it lazily."""
        pool, self._pool = self._pool, None
        finalizer, self._finalizer = self._finalizer, None
        self.breakages += 1
        if finalizer is not None:
            finalizer.detach()
        if pool is not None:
            _stop_pool(pool)

    def start(
        self,
        tasks: Sequence[Tuple[ChunkTag, bytes]],
        timeouts: Optional[Dict[ChunkTag, float]] = None,
    ):
        """Submit ``(tag, jobs_blob)`` chunks without blocking.

        ``timeouts`` is accepted for interface parity with
        :class:`~repro.core.remote.RemoteProvingExecutor` (which needs
        lease deadlines at dispatch time to bound its sockets); here
        leases are enforced in :meth:`finish`, so it is unused.

        Returns the ``(tag, future)`` list for :meth:`finish`.  Callers
        overlap work by submitting first, doing in-process serving, then
        finishing — all from one thread, so worker forks never happen
        from a helper thread of a lock-holding process.  A pool broken by
        an earlier batch (worker died between ``finish`` calls) is
        detected at submit time, dropped, and rebuilt instead of poisoning
        this batch with a raw ``BrokenProcessPool``.
        """
        out = []
        for tag, blob in tasks:
            try:
                fut = self._pool_executor().submit(
                    _prove_group_worker, self.keystore_root, blob
                )
            except (BrokenProcessPool, RuntimeError):
                # Stale handle from a previous batch's casualty: drop it
                # and submit to a fresh pool (once; a second failure is
                # a real environment problem and should propagate).
                self._terminate_pool()
                fut = self._pool_executor().submit(
                    _prove_group_worker, self.keystore_root, blob
                )
            out.append((tag, fut))
        return out

    def finish(
        self,
        tasks: Sequence[Tuple[ChunkTag, bytes]],
        futures,
        timeouts: Optional[Dict[ChunkTag, float]] = None,
    ) -> PoolOutcome:
        """Collect :meth:`start`'s futures; never raises for a chunk.

        ``timeouts`` maps chunk tags to lease seconds (``None``/absent =
        indefinite lease).  Failures are classified, retried, bisected,
        and quarantined per the executor's :class:`RetryPolicy`; whatever
        cannot be recovered is reported per chunk in ``errors`` — typed,
        never raised.
        """
        timeouts = timeouts or {}
        outcome = PoolOutcome()
        by_tag = dict(tasks)
        fut_map = {fut: tag for tag, fut in futures}
        leases = {
            tag: ChunkLease(tag=tag, timeout_seconds=timeouts.get(tag))
            for tag, _ in futures
        }
        pending = set(fut_map)
        retry_q: List[Tuple[ChunkTag, Optional[ProvingError]]] = []
        pool_broken = False
        while pending:
            now = time.monotonic()
            expired = {f for f in pending if leases[fut_map[f]].expired(now)}
            if expired:
                # A hung worker is holding a pool slot hostage: kill the
                # pool, charge the expired chunks a timeout attempt, and
                # re-dispatch the innocent in-flight chunks free.
                for fut in pending:
                    tag = fut_map[fut]
                    if fut in expired:
                        lease = leases[tag]
                        retry_q.append(
                            (
                                tag,
                                ChunkTimeout(
                                    "chunk lease expired in pool",
                                    deadline_seconds=lease.timeout_seconds,
                                ),
                            )
                        )
                    else:
                        retry_q.append((tag, None))
                pending.clear()
                self._terminate_pool()
                break
            waits = [
                remaining
                for fut in pending
                if (remaining := leases[fut_map[fut]].remaining(now)) is not None
            ]
            done, _ = wait(
                pending,
                timeout=min(waits) if waits else None,
                return_when=FIRST_COMPLETED,
            )
            for fut in done:
                pending.discard(fut)
                tag = fut_map[fut]
                try:
                    outcome.results[tag] = serialize.job_results_from_bytes(
                        fut.result()
                    )
                    outcome.attempts.setdefault(tag, 1)
                except Exception as exc:  # noqa: BLE001 — classified below
                    if isinstance(exc, BrokenProcessPool):
                        pool_broken = True
                    retry_q.append((tag, wrap_error(exc)))
        if pool_broken:
            # The shared pool is poisoned; drop the stale handle so the
            # next batch (or the retries below) builds a fresh one.
            self.breakages += 1
            self.shutdown()
        for tag, err in retry_q:
            outcome.retried.append(tag)
            try:
                triples, poison, attempts = self._resolve_chunk(
                    by_tag[tag],
                    timeouts.get(tag),
                    err,
                    attempts=0 if err is None else 1,
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

    def _resolve_chunk(
        self,
        blob: bytes,
        timeout_s: Optional[float],
        err: Optional[ProvingError],
        attempts: int,
        tag: ChunkTag,
    ) -> Tuple[List[Tuple[int, bytes, float]], List[PoisonJob], int]:
        return resolve_chunk(
            self._run_solo, self.retry_policy, blob, timeout_s, err, attempts, tag
        )

    def _run_solo(self, blob: bytes, timeout_s: Optional[float]) -> bytes:
        """One dispatch of one chunk in a fresh single-worker pool, under
        its lease.  A worker that outlives the lease is terminated and
        the dispatch raises :class:`~repro.core.errors.ChunkTimeout`."""
        solo = ProcessPoolExecutor(max_workers=1, mp_context=self._ctx)
        try:
            fut = solo.submit(_prove_group_worker, self.keystore_root, blob)
            try:
                return fut.result(timeout=timeout_s)
            except FuturesTimeout:
                self.breakages += 1
                raise ChunkTimeout(
                    "chunk lease expired in solo re-dispatch",
                    deadline_seconds=timeout_s,
                ) from None
        finally:
            _stop_pool(solo)

    def run(
        self,
        tasks: Sequence[Tuple[ChunkTag, bytes]],
        timeouts: Optional[Dict[ChunkTag, float]] = None,
    ) -> PoolOutcome:
        """Submit and collect in one blocking call."""
        if not tasks:
            return PoolOutcome()
        return self.finish(tasks, self.start(tasks), timeouts)
