"""Batched proof serving.

A :class:`ProvingService` accepts prove jobs (concrete ``X @ W`` instances
tagged with strategy/backend), groups them by circuit key so each group
pays trusted setup, circuit construction, and fixed-base table warm-up
exactly once, executes groups on a worker pool, and hands back wire-format
bundles plus throughput statistics.  Verification of a served batch goes
through the detached :class:`~repro.core.api.MatmulVerifier`; same-key
Groth16 bundles use the small-exponent batch check.

Three executor strategies are available (``executor=``):

* ``"serial"`` — every group in the calling process, in order (the
  default);
* ``"process"`` — groups (sharded by :class:`~repro.core.pool.
  GroupChunkPolicy`) run on a :class:`~repro.core.remote_worker.
  LocalFleet` of ``workers`` loopback worker processes that this service
  starts by fork at its first dispatch and owns: before every dispatch
  round it relaunches any that died or hung, and :meth:`ProvingService.
  close` stops them.  Workers read keys from the KeyStore's disk root,
  or adopt the keypair the service pushes over the wire, and return
  wire-format bundles — the multi-core path.  Groups too small to
  amortise the hop stay in-process (``ServiceReport.placements`` records
  the decision);
* ``"remote"`` — the same chunks dispatched to a fleet of worker *hosts*,
  addressed via ``remote_workers=`` or the ``REPRO_REMOTE_WORKERS``
  environment variable (``host:port,host:port``); the chunk policy's
  placement decisions follow the registry's live worker count — the
  multi-box path.

Both dispatch tiers run through one
:class:`~repro.core.remote.RemoteProvingExecutor`.

Failure semantics (details in DESIGN.md "Failure semantics"): every
failure is classified into the typed taxonomy of
:mod:`repro.core.errors`; transient failures are retried under the
service's :class:`~repro.core.resilience.RetryPolicy` (deterministic
backoff, per-chunk lease deadlines on the dispatch tiers); jobs that
fail persistently are bisected down and *quarantined* so the rest of
their batch still proves; chunk-fatal failures fall back to inline
serving of only the missing jobs; and a service whose workers keep
breaking degrades down the executor ladder (fleet → serial).
Per-job outcomes — status, attempts, error — are reported in
``ServiceReport.job_outcomes``; ladder and fallback events in
``ServiceReport.fallbacks``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import serialize
from ..gadgets.matmul import STRATEGIES
from . import faultinject
from .api import MatmulProver, MatmulVerifier
from .artifacts import CircuitRegistry, KeyStore, default_keystore, default_registry
from .backends import get_backend
from .bundle import MatmulProofBundle
from .errors import ProvingError, wrap_error
from .pool import GroupChunkPolicy
from .remote import RemoteProvingExecutor
from .remote_worker import LocalFleet
from .resilience import RetryPolicy

CircuitKeyT = Tuple[int, int, int, str, str]  # (a, n, b, strategy, backend)

EXECUTORS = ("serial", "process", "remote")

#: comma-separated ``host:port`` fleet for ``executor="remote"`` when no
#: explicit ``remote_workers`` is passed
REMOTE_WORKERS_ENV = "REPRO_REMOTE_WORKERS"


@dataclass
class ProveJob:
    """One matmul instance awaiting proof."""

    job_id: int
    x: list
    w: list
    strategy: str = "crpc_psq"
    backend: str = "groth16"

    def circuit_key(self) -> CircuitKeyT:
        if not self.x or not self.x[0] or not self.w or not self.w[0]:
            raise ValueError(f"job {self.job_id}: empty matrix")
        a, n, b = len(self.x), len(self.x[0]), len(self.w[0])
        if len(self.w) != n:
            raise ValueError(f"job {self.job_id}: inner dimensions mismatch")
        if any(len(row) != n for row in self.x) or any(
            len(row) != b for row in self.w
        ):
            raise ValueError(f"job {self.job_id}: ragged matrix")
        return (a, n, b, self.strategy, self.backend)


@dataclass
class JobResult:
    """A served proof: the bundle both live and as wire bytes."""

    job_id: int
    circuit_key: CircuitKeyT
    bundle: MatmulProofBundle
    bundle_bytes: bytes
    prove_seconds: float


@dataclass
class JobOutcome:
    """Per-job disposition record — every job in a batch gets exactly one.

    ``status`` is ``"ok"`` (proof served), ``"failed"`` (no proof; the
    error may be environmental and a resubmit may succeed),
    ``"quarantined"`` (the job itself is poisonous — it failed
    persistently and in isolation; resubmitting it verbatim will fail
    again), or ``"invalid"`` (rejected before grouping).  ``attempts``
    counts prove dispatches charged to the job's chunk or to the job
    itself, whichever is larger.
    """

    job_id: int
    circuit_key: Optional[CircuitKeyT]
    status: str
    attempts: int = 1
    error: Optional[str] = None


@dataclass
class ServiceReport:
    """What one :meth:`ProvingService.run` drained, and how fast."""

    results: List[JobResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    setup_seconds: float = 0.0
    groups: Dict[CircuitKeyT, int] = field(default_factory=dict)
    #: circuit groups that failed *as a group* (setup raised, or
    #: dispatched chunks died unrecoverably with fallback disabled), with
    #: the error message; a group error never takes down the other
    #: groups, and a partially-served group keeps the results it did
    #: produce
    errors: Dict[CircuitKeyT, str] = field(default_factory=dict)
    #: jobs rejected before grouping (malformed shapes), by job id
    invalid_jobs: Dict[int, str] = field(default_factory=dict)
    #: where each group actually ran: ``"inline"`` (calling process),
    #: ``"process"``/``"remote"`` (workers), or ``"process+inline"``
    #: (chunk-fatal errors re-served inline) — populated by the dispatch
    #: executors, where the chunk policy makes a per-group decision
    placements: Dict[CircuitKeyT, str] = field(default_factory=dict)
    #: one record per job: status ok/failed/quarantined/invalid, attempt
    #: count, and the (typed, stringified) error if any
    job_outcomes: Dict[int, JobOutcome] = field(default_factory=dict)
    #: degradation events, oldest first: inline re-serves of failed
    #: chunks, and the fleet → serial executor flip
    fallbacks: List[str] = field(default_factory=list)
    #: True only if *every* job produced a bundle and every bundle
    #: verified — a batch with errors, invalid jobs, or failed/quarantined
    #: jobs is never "verified"
    verified: Optional[bool] = None

    @property
    def proofs_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.results) / self.wall_seconds

    def bundles(self) -> List[MatmulProofBundle]:
        return [r.bundle for r in self.results]

    def quarantined(self) -> List[JobOutcome]:
        """The poison jobs this batch isolated (assertion helper)."""
        return [
            o for o in self.job_outcomes.values() if o.status == "quarantined"
        ]


class ProvingService:
    """Groups prove jobs by circuit and serves them through shared
    artifacts.

    ``workers`` is the size of the process executor's fleet — a
    circuit's witness assignment is stateful, so jobs within a chunk run
    sequentially while distinct circuits (or shards of one circuit, each
    with its own worker-local circuit instance) overlap.  ``executor``
    picks the strategy: see the module docstring.  The dispatch executors
    ignore ``rng`` — workers use their own entropy, so deterministic-rng
    tests should stay on ``"serial"``.

    ``retry_policy`` tunes the fault-tolerance layer (attempts, backoff,
    chunk leases, bisection, the worker-breakage budget);
    ``fallback=False`` disables the degradation ladder — chunk-fatal
    errors are then reported instead of re-served inline, and the
    executor never flips tiers (useful when callers want failures loud).
    """

    def __init__(
        self,
        workers: int = 4,
        registry: Optional[CircuitRegistry] = None,
        keystore: Optional[KeyStore] = None,
        rng=None,
        executor: str = "serial",
        chunk_policy: Optional[GroupChunkPolicy] = None,
        retry_policy: Optional[RetryPolicy] = None,
        fallback: bool = True,
        remote_workers: Optional[Sequence] = None,
        heartbeat_seconds: float = 0.0,
    ):
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        self.workers = max(1, workers)
        self.executor = executor
        self.registry = registry if registry is not None else default_registry()
        self.keystore = keystore if keystore is not None else default_keystore()
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.fallback = fallback
        self._rng = rng
        self._heartbeat_seconds = heartbeat_seconds
        self._queue: List[ProveJob] = []
        self._next_id = 0
        self._provers: Dict[CircuitKeyT, MatmulProver] = {}
        self._chunk_policy = (
            chunk_policy
            if chunk_policy is not None
            else GroupChunkPolicy(workers=self.workers)
        )
        #: the chunk executor of the dispatch tiers; the process tier's,
        #: with its owned fleet, is built at the first dispatch
        self._remote: Optional[RemoteProvingExecutor] = None
        if executor == "remote":
            if remote_workers is None:
                env_fleet = os.environ.get(REMOTE_WORKERS_ENV, "")
                remote_workers = [a for a in env_fleet.split(",") if a.strip()]
            if not remote_workers:
                raise ValueError(
                    "executor='remote' needs remote_workers= "
                    f"(or {REMOTE_WORKERS_ENV}=host:port,...)"
                )
            self._remote = self._executor_for(remote_workers)

    def _executor_for(self, addrs, fleet: Optional[LocalFleet] = None):
        return RemoteProvingExecutor(
            addrs,
            retry_policy=self.retry_policy,
            key_provider=self._key_bytes_for,
            heartbeat_seconds=self._heartbeat_seconds,
            fleet=fleet,
        )

    def _key_bytes_for(
        self, shape: Tuple[int, int, int], strategy: str, backend_name: str
    ) -> bytes:
        """Serialized setup artifacts for a worker's KEY_REQUEST.

        ``create=False``: the dispatch path materialises artifacts before
        submitting chunks, so a request for a key this service never set
        up is answered empty (the worker then fails with MissingKey)
        instead of minting a fresh — unverifiable — keypair mid-batch.
        """
        backend = get_backend(backend_name)
        if not backend.requires_setup:
            return b""
        a, n, b = shape
        try:
            artifacts = self.keystore.artifacts(
                a, n, b, strategy, backend_name, create=False
            )
        except KeyError:
            return b""
        return backend.artifacts_to_bytes(artifacts)

    # -- job intake --------------------------------------------------------------
    def submit(
        self,
        x,
        w,
        strategy: str = "crpc_psq",
        backend: str = "groth16",
    ) -> int:
        """Queue one instance; returns its job id.

        Shape, strategy, and backend are validated here so a bad job is
        rejected at intake instead of failing a whole batch in a worker."""
        get_backend(backend)  # raises ValueError on unknown name
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        job = ProveJob(
            job_id=self._next_id, x=x, w=w, strategy=strategy, backend=backend
        )
        job.circuit_key()  # validate shape early
        self._next_id += 1
        self._queue.append(job)
        return job.job_id

    @property
    def pending(self) -> int:
        return len(self._queue)

    # -- execution ---------------------------------------------------------------
    def _prover_for(self, key: CircuitKeyT) -> MatmulProver:
        prover = self._provers.get(key)
        if prover is None:
            a, n, b, strategy, backend = key
            prover = MatmulProver(
                a,
                n,
                b,
                strategy=strategy,
                backend=backend,
                rng=self._rng,
                registry=self.registry,
                keystore=self.keystore,
            )
            self._provers[key] = prover
        return prover

    def _serve_group_safe(self, key: CircuitKeyT, jobs: Sequence[ProveJob]):
        """One group's ``(key, results, job_records, error)`` — a poisoned
        group (e.g. a setup failure) must not lose every other group's
        finished proofs, so group-level exceptions are reported, not
        raised."""
        try:
            results, records = self._serve_group(key, jobs)
            return key, results, records, None
        except Exception as exc:  # noqa: BLE001 — reported, not swallowed
            return key, [], {}, f"{type(exc).__name__}: {exc}"

    def _serve_group(
        self, key: CircuitKeyT, jobs: Sequence[ProveJob]
    ) -> Tuple[List[JobResult], Dict[int, JobOutcome]]:
        """Serve one group in-process, one job at a time, each under the
        retry policy.  A job that exhausts its retries is recorded —
        quarantined if its error class is isolatable, failed otherwise —
        and the rest of the group still proves."""
        prover = self._prover_for(key)
        # Pay setup / circuit warm-up before the per-job timers start, so
        # the first job's prove_seconds is not a setup-sized outlier
        # (setup cost is reported once in ServiceReport.setup_seconds).
        prover._artifacts()
        policy = self.retry_policy
        plan = faultinject.active_plan()
        results: List[JobResult] = []
        records: Dict[int, JobOutcome] = {}
        for job in jobs:
            attempts = 0
            while True:
                attempts += 1
                t0 = time.perf_counter()
                try:
                    if plan is not None:
                        plan.fire_inline(job.job_id, job.strategy, tier="inline")
                    bundle = prover.prove(job.x, job.w)
                except Exception as exc:  # noqa: BLE001 — classified below
                    err = (
                        exc
                        if isinstance(exc, ProvingError)
                        else wrap_error(exc, job_id=job.job_id)
                    )
                    err.attempts = attempts
                    if policy.is_retryable(err) and attempts < policy.max_attempts:
                        time.sleep(
                            policy.backoff_seconds((key, job.job_id), attempts)
                        )
                        continue
                    records[job.job_id] = JobOutcome(
                        job_id=job.job_id,
                        circuit_key=key,
                        status="quarantined" if err.isolate else "failed",
                        attempts=attempts,
                        error=str(err),
                    )
                    break
                results.append(
                    JobResult(
                        job_id=job.job_id,
                        circuit_key=key,
                        bundle=bundle,
                        bundle_bytes=bundle.to_bytes(),
                        prove_seconds=time.perf_counter() - t0,
                    )
                )
                records[job.job_id] = JobOutcome(
                    job_id=job.job_id,
                    circuit_key=key,
                    status="ok",
                    attempts=attempts,
                )
                break
        return results, records

    def _serve_groups_pool(
        self,
        groups: Dict[CircuitKeyT, List[ProveJob]],
        report: ServiceReport,
    ):
        """Dispatch groups to the workers, sharding large ones.

        Returns the same ``(key, results, records, error)`` outcome tuples
        the in-process path produces.  Groups the chunk policy deems too
        small for a dispatch hop stay inline; the rest fan out across the
        workers the registry currently believes placeable.  Each
        dispatched chunk carries a lease deadline derived from its
        predicted proving time; the executor retries, bisects, and
        quarantines per the retry policy, and whatever still fails as a
        chunk is re-served inline here (``fallback=True``).
        """
        tasks: List[Tuple[Tuple[CircuitKeyT, int], bytes]] = []
        timeouts: Dict[Tuple[CircuitKeyT, int], float] = {}
        outcomes = []
        inline: List[Tuple[CircuitKeyT, List[ProveJob]]] = []
        dispatched: List[CircuitKeyT] = []
        tier = self.executor
        pool = self._remote
        if pool is None:
            live_workers = self.workers  # the fleet to be launched
        else:
            pool.revive()
            # Breaker-aware: a reachable worker whose circuit is open is
            # not a dispatch target, so chunk fan-out must not count it.
            live_workers = pool.registry.placeable_count()
        for key, jobs in groups.items():
            backend = get_backend(key[4])
            n_chunks = self._chunk_policy.plan(key, len(jobs), workers=live_workers)
            if n_chunks <= 0:
                report.placements[key] = "inline"
                inline.append((key, jobs))
                continue
            try:
                # Workers never mint keys: the parent materialises setup
                # artifacts first — published to the disk root (if any)
                # for workers to read, held in memory to answer their
                # KEY_REQUESTs.
                if backend.requires_setup:
                    self._prover_for(key)._artifacts()
                blobs = [
                    serialize.prove_jobs_to_bytes(
                        [(j.job_id, j.x, j.w, j.strategy, j.backend) for j in chunk]
                    )
                    for chunk in GroupChunkPolicy.chunk(jobs, n_chunks)
                ]
            except Exception as exc:  # noqa: BLE001 — poisoned group, isolated
                outcomes.append((key, [], {}, f"{type(exc).__name__}: {exc}"))
                continue
            report.placements[key] = tier
            dispatched.append(key)
            job_seconds = self._chunk_policy.job_seconds(key)
            per_chunk = max(1, -(-len(jobs) // len(blobs)))
            lease = self.retry_policy.lease_seconds(job_seconds, per_chunk)
            for ci, blob in enumerate(blobs):
                tag = (key, ci)
                tasks.append((tag, blob))
                if lease is not None:
                    timeouts[tag] = lease
        if tasks and pool is None:
            # First dispatch: launch the owned fleet from this thread.
            fleet = LocalFleet(
                self.workers, keystore_root=self.keystore.root, tier="process"
            )
            pool = self._remote = self._executor_for(fleet.addrs, fleet)
        # Submit chunks before serving inline groups: the workers prove
        # concurrently while the parent handles the inline tail, instead
        # of the inline groups being dead serial time before the workers
        # even start.
        futures = pool.start(tasks, timeouts) if tasks else None
        outcomes.extend(
            self._serve_group_safe(key, jobs) for key, jobs in inline
        )
        if futures is not None:
            pool_outcome = pool.finish(tasks, futures, timeouts)
            job_key = {
                j.job_id: key for key in dispatched for j in groups[key]
            }
            merged: Dict[CircuitKeyT, List[JobResult]] = {k: [] for k in dispatched}
            records: Dict[int, JobOutcome] = {}
            for (key, _ci), triples in pool_outcome.results.items():
                attempts = pool_outcome.attempts.get((key, _ci), 1)
                for job_id, bundle_bytes, prove_s in triples:
                    merged[key].append(
                        JobResult(
                            job_id=job_id,
                            circuit_key=key,
                            bundle=MatmulProofBundle.from_bytes(bundle_bytes),
                            bundle_bytes=bundle_bytes,
                            prove_seconds=prove_s,
                        )
                    )
                    records[job_id] = JobOutcome(
                        job_id=job_id,
                        circuit_key=key,
                        status="ok",
                        attempts=attempts,
                    )
            for poison in pool_outcome.quarantined:
                records[poison.job_id] = JobOutcome(
                    job_id=poison.job_id,
                    circuit_key=job_key.get(poison.job_id),
                    status="quarantined",
                    attempts=max(1, poison.attempts),
                    error=str(poison),
                )
            chunk_fatal: Dict[CircuitKeyT, List[ProvingError]] = {}
            for (key, _ci), err in pool_outcome.errors.items():
                chunk_fatal.setdefault(key, []).append(err)
            for key in dispatched:
                group_records = {
                    jid: rec
                    for jid, rec in records.items()
                    if job_key.get(jid) == key
                }
                error_msgs = [str(e) for e in chunk_fatal.get(key, [])]
                if error_msgs and self.fallback:
                    # Chunk-fatal errors (e.g. MissingKey when the disk
                    # artifacts vanished) degrade to inline serving of
                    # only the jobs that have neither a proof nor a
                    # quarantine record — the parent may be able to do
                    # what the read-only workers could not.
                    done = set(group_records)
                    missing = [
                        j for j in groups[key] if j.job_id not in done
                    ]
                    kinds = ",".join(
                        sorted({e.kind for e in chunk_fatal[key]})
                    )
                    report.fallbacks.append(
                        f"group {key}: {tier}->inline after {kinds}"
                    )
                    report.placements[key] = f"{tier}+inline"
                    _, res, recs, err2 = self._serve_group_safe(key, missing)
                    merged[key].extend(res)
                    group_records.update(recs)
                    error_msgs = [] if err2 is None else error_msgs + [err2]
                outcomes.append(
                    (
                        key,
                        merged[key],
                        group_records,
                        "; ".join(error_msgs) if error_msgs else None,
                    )
                )
            if (
                self.fallback
                and pool.breakages >= self.retry_policy.max_pool_breakages
            ):
                # This tier keeps losing workers (crashes/hangs/dead
                # hosts): stop feeding it.  Future batches are served
                # in-process — the bottom of the ladder.
                report.fallbacks.append(
                    f"executor {tier}->serial after "
                    f"{pool.breakages} worker breakage(s)"
                )
                pool.shutdown()
                self._remote = None
                self.executor = "serial"
        return outcomes

    def run(self, verify: bool = False) -> ServiceReport:
        """Drain the queue: group, prove, serialize — and optionally check
        every served bundle through detached verifiers before returning."""
        jobs, self._queue = self._queue, []
        return self.prove_batch(jobs, verify=verify)

    def prove_batch(
        self, jobs: Sequence[ProveJob], verify: bool = False
    ) -> ServiceReport:
        t0 = time.perf_counter()
        groups: Dict[CircuitKeyT, List[ProveJob]] = {}
        invalid: Dict[int, str] = {}
        for job in jobs:
            # A malformed job (possible when callers build ProveJob
            # directly, or mutate matrices after submit) is reported, not
            # allowed to sink the whole batch.
            try:
                key = job.circuit_key()
            except ValueError as exc:
                invalid[job.job_id] = str(exc)
                continue
            groups.setdefault(key, []).append(job)
        # Setup cost already paid in earlier batches is amortised, not
        # re-billed: only setups that run during *this* batch count.
        already_setup = {
            key for key in groups if self.keystore.setup_seconds(*key) is not None
        }

        report = ServiceReport(
            groups={k: len(v) for k, v in groups.items()},
            invalid_jobs=invalid,
        )
        for job_id, msg in invalid.items():
            report.job_outcomes[job_id] = JobOutcome(
                job_id=job_id,
                circuit_key=None,
                status="invalid",
                attempts=0,
                error=msg,
            )
        if groups:
            if self.executor == "serial":
                outcomes = [self._serve_group_safe(k, v) for k, v in groups.items()]
            else:
                outcomes = self._serve_groups_pool(groups, report)
            for key, batch, job_records, error in outcomes:
                report.results.extend(batch)
                report.job_outcomes.update(job_records)
                if error is not None:
                    report.errors[key] = error
        # Every submitted job leaves with exactly one outcome record;
        # anything unaccounted for (e.g. a group-level setup failure
        # recorded no per-job outcomes) failed with its group's error.
        served = {r.job_id for r in report.results}
        for key, group_jobs in groups.items():
            for job in group_jobs:
                if job.job_id in report.job_outcomes:
                    continue
                if job.job_id in served:
                    report.job_outcomes[job.job_id] = JobOutcome(
                        job_id=job.job_id, circuit_key=key, status="ok"
                    )
                else:
                    report.job_outcomes[job.job_id] = JobOutcome(
                        job_id=job.job_id,
                        circuit_key=key,
                        status="failed",
                        error=report.errors.get(key, "no result"),
                    )
        report.results.sort(key=lambda r: r.job_id)
        report.setup_seconds = sum(
            s
            for key in groups
            if key not in already_setup
            and (s := self.keystore.setup_seconds(*key)) is not None
        )
        report.wall_seconds = time.perf_counter() - t0
        if verify:
            report.verified = (
                not report.errors
                and not report.invalid_jobs
                and all(
                    o.status == "ok" for o in report.job_outcomes.values()
                )
                and self.verify_report(report)
            )
        return report

    def close(self) -> None:
        """Release the dispatch executor.  Idempotent: safe to call
        repeatedly, after a degradation flip dropped the executor, and on
        services that never had one.

        The owned fleet is kept alive across batches so workers retain
        their circuit/keypair/table caches; long-lived services that are
        done proving call this to stop and reap the worker processes (a
        batch served after close() lazily launches a fresh fleet).  For
        the remote executor this drains in-flight dispatches, stops the
        heartbeat, and closes the pooled connections, but leaves the
        worker hosts running — a fleet outlives any one dispatcher."""
        pool = self._remote
        if pool is None:
            return
        pool.shutdown(drain=True)
        if pool.fleet is not None:
            self._remote = None

    # -- verification -------------------------------------------------------------
    def verify_report(self, report: ServiceReport) -> bool:
        """Detached-verify every bundle in a report, batching per group."""
        by_key: Dict[CircuitKeyT, List[MatmulProofBundle]] = {}
        for r in report.results:
            by_key.setdefault(r.circuit_key, []).append(r.bundle)
        for key, bundles in by_key.items():
            if not self.verifier_for(key).verify_batch(bundles):
                return False
        return True

    def verifier_for(self, key: CircuitKeyT) -> MatmulVerifier:
        return self._prover_for(key).verifier()

    def export_verifier(self, key: CircuitKeyT) -> bytes:
        """Wire-format verifier artifact for one served circuit."""
        return self._prover_for(key).export_verifier()
