"""Fault-tolerant proving pipeline.

The fault matrix {crash, hang, corrupt envelope, missing key, poison job}
x {serial, process, remote} drives every injected failure through
the full service stack and asserts the structured outcome: retryable faults
*recover* (every job proves and verifies), non-retryable faults degrade
to a quarantine record or an inline fallback — never a hang, never a raw
untyped exception, and never collateral damage to the other jobs in the
batch.  Alongside the matrix: unit coverage for the typed taxonomy
(:mod:`repro.core.errors`), the retry/lease policy
(:mod:`repro.core.resilience`), the fault-injection harness itself, the
executor degradation ladder, and shutdown/close idempotency.
"""

import os
import pickle
import random

import pytest
from _matutil import rand_mats

from repro.core import (
    BARE_POLICY,
    ChunkTimeout,
    CircuitRegistry,
    CorruptEnvelope,
    FaultPlan,
    FaultSpec,
    GroupChunkPolicy,
    KeyStore,
    MissingKey,
    PoisonJob,
    ProvingError,
    ProvingService,
    RetryPolicy,
    WorkerCrash,
    wrap_error,
)
from repro.core.faultinject import ENV_VAR
from repro.core.remote import RemoteProvingExecutor
from repro.core.remote_worker import LocalFleet

EXECUTORS = ("serial", "process", "remote")
#: the dispatch tiers whose chunk-fatal errors fall back inline (vs the
#: inline tier, where a non-retryable fault fails just the hit job)
DISPATCH_TIERS = ("process", "remote")
FAULTS = ("crash", "hang", "corrupt", "missing_key", "poison")

#: test-speed policy: quick backoff, a lease short enough that a hung
#: worker is reaped in ~1s but long enough that honest tiny proofs
#: (milliseconds) never trip it
FAST = RetryPolicy(
    max_attempts=3,
    backoff_base_seconds=0.001,
    lease_floor_seconds=1.0,
    lease_multiplier=40.0,
)

#: dispatch-tier variant: the lease is enforced as a *socket deadline* on
#: the dispatcher, so for the hang cell to actually expire it the lease
#: must sit below the injected 15s sleep — pin it to the 1s floor (honest
#: loopback chunks of tiny spartan proofs finish in milliseconds)
DISPATCH_FAST = RetryPolicy(
    max_attempts=3,
    backoff_base_seconds=0.001,
    lease_floor_seconds=1.0,
    lease_multiplier=0.001,
)


def make_service(tmp_path, executor, **kwargs):
    registry = CircuitRegistry()
    keystore = KeyStore(root=str(tmp_path / "keys"), registry=registry)
    kwargs.setdefault("retry_policy", FAST)
    return ProvingService(
        workers=2,
        registry=registry,
        keystore=keystore,
        executor=executor,
        chunk_policy=GroupChunkPolicy(
            workers=2, min_dispatch_seconds=0.0, target_chunk_seconds=0.0001
        ),
        **kwargs,
    )


def submit_batch(svc, n=6, seed=0):
    rng = random.Random(seed)
    ids = []
    for _ in range(n):
        x = [[rng.randrange(-3, 4) for _ in range(4)] for _ in range(3)]
        w = [[rng.randrange(-3, 4) for _ in range(2)] for _ in range(4)]
        ids.append(svc.submit(x, w, strategy="crpc_psq", backend="spartan"))
    return ids


def install(monkeypatch, tmp_path, *specs):
    plan = FaultPlan(list(specs), state_dir=str(tmp_path / "faults"))
    monkeypatch.setenv(ENV_VAR, plan.to_json())
    return plan


class TestFaultMatrix:
    """One injected fault per cell; the batch must end structured."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("kind", FAULTS)
    def test_cell(self, tmp_path, monkeypatch, executor, kind):
        target = 2  # job id the targeted faults single out
        # Remote workers only receive specs explicitly addressed to their
        # tier (scoped_env strips everything else from the launch env);
        # the service's own fleet sees the whole plan.
        tier = "remote" if executor == "remote" else None
        if kind == "poison":
            # fires on *every* attempt: must end in quarantine, with the
            # other five jobs still proving and verifying
            install(
                monkeypatch, tmp_path,
                FaultSpec(kind="poison", job_id=target, times=None, tier=tier),
            )
        elif kind == "missing_key":
            # not retryable: the dispatch tiers go chunk-fatal and fall
            # back inline (budget: one firing per dispatched chunk); the
            # inline tiers fail exactly one job, keeping the rest
            times = 2 if executor in DISPATCH_TIERS else 1
            install(
                monkeypatch, tmp_path,
                FaultSpec(kind="missing_key", times=times, tier=tier),
            )
        else:
            # transient (fires once): retries/leases must fully recover
            install(
                monkeypatch, tmp_path,
                FaultSpec(kind=kind, times=1, seconds=15.0, tier=tier),
            )
        kwargs = {}
        fleet = None
        if executor in DISPATCH_TIERS:
            kwargs["retry_policy"] = DISPATCH_FAST
        if executor == "remote":
            # Launched *after* install(): the plan must be in the env the
            # loopback workers inherit (remote-tier specs only).
            fleet = LocalFleet(2)
            kwargs["remote_workers"] = fleet.addrs
        svc = make_service(tmp_path, executor, **kwargs)
        ids = submit_batch(svc)
        try:
            report = svc.run(verify=True)
        finally:
            svc.close()
            if fleet is not None:
                fleet.close()

        statuses = {j: o.status for j, o in report.job_outcomes.items()}
        assert set(statuses) == set(ids)
        assert not report.errors  # never a group-fatal raw failure
        if kind == "poison":
            assert statuses.pop(target) == "quarantined"
            (poison,) = report.quarantined()
            assert poison.job_id == target
            assert "poison" in (poison.error or "")
            assert set(statuses.values()) == {"ok"}
            assert report.verified is False  # a job is missing a proof...
            assert svc.verify_report(report)  # ...but the others verify
        elif kind == "missing_key" and executor not in DISPATCH_TIERS:
            # exactly one inline job failed, typed, first-hit job
            failed = [j for j, s in statuses.items() if s == "failed"]
            assert len(failed) == 1
            assert "missing" in (
                report.job_outcomes[failed[0]].error or ""
            ).lower()
            assert svc.verify_report(report)
        else:
            # full recovery: every proof served and verified
            assert set(statuses.values()) == {"ok"}
            assert report.verified is True
            assert len(report.results) == len(ids)
            if kind == "missing_key":  # dispatch tier recovered inline
                assert any(
                    f"{executor}->inline" in f for f in report.fallbacks
                )
            if kind in ("crash", "hang"):
                # the injected failure burned a visible attempt
                assert any(
                    o.attempts > 1 for o in report.job_outcomes.values()
                )

    def test_no_fault_plan_is_inert(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        svc = make_service(tmp_path, "serial")
        submit_batch(svc, n=2)
        report = svc.run(verify=True)
        assert report.verified is True
        assert all(o.attempts == 1 for o in report.job_outcomes.values())


class TestDegradationLadder:
    def test_repeated_pool_breakage_flips_to_serial(
        self, tmp_path, monkeypatch
    ):
        """A process service whose workers keep dying degrades to the
        serial tier — and the serial tier then serves cleanly once the
        (worker-only) fault stops firing."""
        install(
            monkeypatch, tmp_path, FaultSpec(kind="crash", times=None)
        )
        svc = make_service(
            tmp_path,
            "process",
            retry_policy=RetryPolicy(
                max_attempts=1,
                backoff_base_seconds=0.001,
                lease_floor_seconds=60.0,
                bisect=False,
                max_pool_breakages=2,
            ),
        )
        submit_batch(svc, n=2)
        svc.run()
        # both workers died; nothing relaunched them yet: still trying
        assert svc.executor == "process"
        submit_batch(svc, n=2)
        report = svc.run()  # relaunches both: two breakages
        assert svc.executor == "serial"
        assert any("process->serial" in f for f in report.fallbacks)
        monkeypatch.delenv(ENV_VAR)
        ids = submit_batch(svc, n=2)
        report = svc.run(verify=True)
        assert report.verified is True
        assert [r.job_id for r in report.results] == ids
        svc.close()

    def test_fallback_disabled_reports_instead(self, tmp_path, monkeypatch):
        """``fallback=False``: chunk-fatal errors stay in the report (no
        inline re-serve, no executor flip) — failures loud, as asked."""
        install(monkeypatch, tmp_path, FaultSpec(kind="missing_key", times=2))
        svc = make_service(tmp_path, "process", fallback=False)
        submit_batch(svc)
        report = svc.run()
        svc.close()
        assert report.errors  # typed chunk errors surfaced, not healed
        assert not report.fallbacks
        assert all(
            "missing" in msg.lower() for msg in report.errors.values()
        )
        assert svc.executor == "process"


class TestIdempotentShutdown:
    def test_executor_shutdown_idempotent(self, tmp_path):
        fleet = LocalFleet(1, keystore_root=str(tmp_path))
        ex = RemoteProvingExecutor(fleet.addrs, fleet=fleet)
        ex.shutdown()  # before any dispatch: stops the fleet
        ex.shutdown()
        assert fleet.processes == [None]
        fleet = LocalFleet(1, keystore_root=str(tmp_path))
        ex = RemoteProvingExecutor(fleet.addrs, fleet=fleet)
        x, w = rand_mats(2, 2, 2, seed=0)
        from repro import serialize

        blob = serialize.prove_jobs_to_bytes([(0, x, w, "crpc_psq", "spartan")])
        outcome = ex.run([(("g", 0), blob)])
        assert ("g", 0) in outcome.results
        ex.shutdown()
        ex.shutdown()  # after use, repeatedly
        assert fleet.processes == [None]

    def test_service_close_idempotent_and_reusable(self, tmp_path):
        svc = make_service(tmp_path, "process")
        ids = submit_batch(svc, n=2)
        assert len(svc.run().results) == len(ids)
        svc.close()
        svc.close()
        # a batch after close() lazily launches a fresh fleet
        ids = submit_batch(svc, n=2, seed=1)
        report = svc.run(verify=True)
        assert report.verified is True
        svc.close()


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        p = RetryPolicy()
        tag = (("k",), 0)
        seq = [p.backoff_seconds(tag, a) for a in (1, 2, 3)]
        assert seq == [p.backoff_seconds(tag, a) for a in (1, 2, 3)]
        assert seq[0] < seq[1] < seq[2]  # exponential growth
        for a, s in enumerate(seq, start=1):
            base = min(
                p.backoff_base_seconds * p.backoff_multiplier ** (a - 1),
                p.backoff_max_seconds,
            )
            assert base <= s <= base * (1 + p.jitter_fraction)
        # jitter decorrelates chunks without breaking determinism
        assert p.backoff_seconds((("k",), 1), 1) != seq[0]

    def test_retryability_follows_the_taxonomy(self):
        p = RetryPolicy()
        assert p.is_retryable(WorkerCrash("x"))
        assert p.is_retryable(ChunkTimeout("x"))
        assert p.is_retryable(CorruptEnvelope("x"))
        assert not p.is_retryable(MissingKey("x"))
        assert not p.is_retryable(PoisonJob("x"))
        assert not p.is_retryable(ProvingError("x"))

    def test_lease_floor_and_scaling(self):
        p = RetryPolicy(lease_floor_seconds=30.0, lease_multiplier=40.0)
        assert p.lease_seconds(0.001, 1) == 30.0  # floor
        assert p.lease_seconds(2.0, 3) == 40.0 * 6.0  # scales with work
        assert RetryPolicy(lease_multiplier=0.0).lease_seconds(9.0, 9) is None
        assert BARE_POLICY.max_attempts == 1
        assert BARE_POLICY.lease_seconds(9.0, 9) is None


class TestErrorTaxonomy:
    def test_wrap_error_classification(self):
        from concurrent.futures import TimeoutError as FuturesTimeout

        assert isinstance(wrap_error(FuturesTimeout()), ChunkTimeout)
        assert isinstance(wrap_error(KeyError("k")), MissingKey)
        generic = wrap_error(ZeroDivisionError("den"), job_id=7)
        assert type(generic) is ProvingError
        assert generic.job_id == 7
        assert "ZeroDivisionError" in str(generic)

    def test_wrap_error_passthrough_merges_context(self):
        err = ChunkTimeout("late", deadline_seconds=1.5)
        same = wrap_error(err, job_id=3, attempts=2)
        assert same is err and err.job_id == 3 and err.attempts == 2

    def test_errors_pickle_with_context(self):
        err = PoisonJob(
            "bad job", circuit_key=(2, 2, 2, "s", "b"), job_id=5, attempts=3
        )
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is PoisonJob
        assert (back.job_id, back.attempts) == (5, 3)
        assert back.circuit_key == (2, 2, 2, "s", "b")
        assert "job=5" in str(back)

    def test_corrupt_envelope_is_a_value_error(self):
        assert issubclass(CorruptEnvelope, ValueError)


class TestFaultPlanHarness:
    def test_roundtrip_and_install(self, tmp_path, monkeypatch):
        plan = FaultPlan(
            [FaultSpec(kind="crash", job_id=1, times=2)],
            state_dir=str(tmp_path),
        )
        again = FaultPlan.from_json(plan.to_json())
        assert vars(again.specs[0]) == vars(plan.specs[0])
        monkeypatch.setenv(ENV_VAR, plan.to_json())
        from repro.core.faultinject import active_plan

        assert active_plan().specs[0].kind == "crash"
        monkeypatch.delenv(ENV_VAR)
        assert active_plan() is None

    def test_finite_times_counted_exactly(self, tmp_path):
        plan = FaultPlan(
            [FaultSpec(kind="poison", job_id=9, times=2)],
            state_dir=str(tmp_path),
        )
        fired = 0
        for _ in range(5):
            try:
                plan.fire_inline(9, "s")
            except ProvingError:
                fired += 1
        assert fired == 2  # budget spent, then inert
        assert plan.fired(0) == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="gremlins")

    def test_mangled_envelope_fails_typed(self):
        from repro import serialize

        plan = FaultPlan([FaultSpec(kind="corrupt", times=None)])
        jobs = [(0, [[1]], [[1]], "s", "b")]
        blob = serialize.job_results_to_bytes([(0, b"ok", 0.1)])
        mangled = plan.mangle_results(blob, jobs)
        assert mangled != blob
        with pytest.raises(CorruptEnvelope):
            serialize.job_results_from_bytes(mangled)
