"""Process executor: the service's own fleet of forked loopback workers.

Covers the executor contract: serial and process executors produce
bundles that all verify through one detached verifier (both backends);
the chunk policy's inline/shard decisions; worker keystore discipline
(read-or-adopt, never mint keys); failure isolation — a poisoned group
or a *dying* worker must never take down the other groups' finished
proofs; and the owned fleet's lifecycle — a dead or hung worker is
relaunched (one breakage each), and ``close()`` leaves no process
behind.
"""

import multiprocessing
import os
import random

import pytest
from _matutil import rand_mats

from repro import serialize
from repro.core import (
    CircuitRegistry,
    CorruptEnvelope,
    FaultPlan,
    FaultSpec,
    GroupChunkPolicy,
    KeyStore,
    LocalFleet,
    MatmulVerifier,
    MissingKey,
    ProvingService,
    RemoteProvingExecutor,
    RetryPolicy,
)
from repro.core import remote_worker
from repro.core.faultinject import ENV_VAR

DISPATCH_ALWAYS = dict(min_dispatch_seconds=0.0)

#: keep failure tests fast: short backoff, quick bisection
FAST_RETRIES = RetryPolicy(
    max_attempts=2, backoff_base_seconds=0.001, lease_floor_seconds=60.0
)


def make_service(tmp_path, executor, workers=2, **kwargs):
    registry = CircuitRegistry()
    keystore = KeyStore(root=str(tmp_path), registry=registry)
    kwargs.setdefault("retry_policy", FAST_RETRIES)
    return ProvingService(
        workers=workers,
        registry=registry,
        keystore=keystore,
        executor=executor,
        chunk_policy=GroupChunkPolicy(workers=workers, **DISPATCH_ALWAYS),
        **kwargs,
    )


class TestChunkPolicy:
    KEY_SMALL = (2, 2, 2, "crpc_psq", "groth16")
    KEY_BIG = (8, 16, 8, "crpc_psq", "groth16")

    def test_small_groups_stay_inline(self):
        policy = GroupChunkPolicy(workers=4)
        assert policy.plan(self.KEY_SMALL, 1) == 0
        assert policy.plan(self.KEY_SMALL, 0) == 0

    def test_large_groups_shard_up_to_workers(self):
        policy = GroupChunkPolicy(workers=4, min_dispatch_seconds=0.0)
        assert policy.plan(self.KEY_BIG, 8) == 4   # capped by workers
        assert policy.plan(self.KEY_BIG, 3) == 3   # capped by job count
        assert policy.plan(self.KEY_BIG, 1) == 1

    def test_threshold_scales_with_circuit_cost(self):
        policy = GroupChunkPolicy(workers=4)
        # The same job count that stays inline for a tiny circuit is
        # worth dispatching for a big one.
        jobs = 4
        assert policy.plan(self.KEY_SMALL, jobs) == 0
        assert policy.plan(self.KEY_BIG, jobs) > 0

    def test_cost_model_overrides_static_rate(self):
        class FreeModel:
            def groth16_prove_time(self, cost):
                return 0.0

            def spartan_prove_time(self, cost):
                return 0.0

        class DearModel(FreeModel):
            def groth16_prove_time(self, cost):
                return 10.0

        free = GroupChunkPolicy(workers=4, cost_model=FreeModel())
        dear = GroupChunkPolicy(workers=4, cost_model=DearModel())
        assert free.plan(self.KEY_BIG, 8) == 0
        assert dear.plan(self.KEY_SMALL, 8) == 4

    def test_chunk_partition_is_balanced_and_ordered(self):
        jobs = list(range(7))
        chunks = GroupChunkPolicy.chunk(jobs, 3)
        assert [j for c in chunks for j in c] == jobs
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert GroupChunkPolicy.chunk(jobs, 99) == [[j] for j in jobs]


class TestJobEnvelopes:
    def test_roundtrip(self):
        x, w = rand_mats(2, 3, 2, seed=1)
        blob = serialize.prove_jobs_to_bytes(
            [(7, x, w, "crpc_psq", "spartan")]
        )
        ((job_id, x2, w2, strategy, backend),) = serialize.prove_jobs_from_bytes(
            blob
        )
        assert job_id == 7 and strategy == "crpc_psq" and backend == "spartan"
        # entries come back canonical mod R
        from repro.field.prime_field import BN254_FR_MODULUS as R

        assert x2 == [[v % R for v in row] for row in x]
        assert w2 == [[v % R for v in row] for row in w]

    def test_results_roundtrip(self):
        blob = serialize.job_results_to_bytes([(3, b"bundle-bytes", 0.25)])
        ((job_id, bundle_bytes, secs),) = serialize.job_results_from_bytes(blob)
        assert (job_id, bundle_bytes, secs) == (3, b"bundle-bytes", 0.25)

    def test_ragged_job_rejected(self):
        with pytest.raises(serialize.SerializationError):
            serialize.prove_job_to_bytes(0, [[1, 2], [3]], [[1], [2]], "s", "b")

    def test_truncated_envelope_rejected(self):
        x, w = rand_mats(2, 2, 2, seed=2)
        blob = serialize.prove_jobs_to_bytes([(0, x, w, "crpc_psq", "spartan")])
        with pytest.raises(CorruptEnvelope) as excinfo:
            serialize.prove_jobs_from_bytes(blob[:-5])
        # typed, still a ValueError for legacy handlers, and it says where
        assert isinstance(excinfo.value, ValueError)
        assert excinfo.value.offset is not None

    def test_empty_matrices_rejected(self):
        for x, w in ([], [[1]]), ([[]], [[1]]), ([[1]], []), ([[1]], [[]]):
            with pytest.raises(serialize.SerializationError):
                serialize.prove_job_to_bytes(0, x, w, "s", "b")


@pytest.mark.parametrize("backend", ["groth16", "spartan"])
class TestExecutorEquivalence:
    def test_all_executors_verify_under_one_detached_key(
        self, backend, tmp_path
    ):
        """Serial and process executors over one shared disk keystore
        produce bundles that a single detached verifier (built from
        exported bytes alone) accepts."""
        registry = CircuitRegistry()
        keystore = KeyStore(root=str(tmp_path), registry=registry)
        all_bytes = []
        artifact = None
        for executor in ("serial", "process"):
            svc = ProvingService(
                workers=2,
                registry=registry,
                keystore=keystore,
                executor=executor,
                chunk_policy=GroupChunkPolicy(workers=2, **DISPATCH_ALWAYS),
            )
            for seed in range(2):
                svc.submit(*rand_mats(2, 3, 2, seed=seed), backend=backend)
            report = svc.run()
            assert not report.errors and not report.invalid_jobs
            assert len(report.results) == 2
            if executor == "process":
                (key,) = report.groups
                assert report.placements[key] == "process"
            all_bytes.extend(r.bundle_bytes for r in report.results)
            if artifact is None:
                (key,) = report.groups
                artifact = svc.export_verifier(key)
            svc.close()
        # keys were set up exactly once and adopted everywhere
        assert keystore.setups <= 1
        verifier = MatmulVerifier.from_bytes(artifact, registry=CircuitRegistry())
        assert all(verifier.verify_bytes(blob) for blob in all_bytes)

    def test_spawn_start_method(self, backend, tmp_path, monkeypatch):
        """The worker entry point survives ``spawn``, the start method of
        platforms without fork (no inherited state: fresh interpreter,
        keys read from disk only)."""
        monkeypatch.setattr(remote_worker, "_fork_available", lambda: False)
        svc = make_service(tmp_path, "process")
        svc.submit(*rand_mats(2, 2, 2, seed=3), backend=backend)
        svc.submit(*rand_mats(2, 2, 2, seed=4), backend=backend)
        try:
            report = svc.run(verify=True)
            procs = svc._remote.fleet.processes
            assert {type(p).__name__ for p in procs} == {"SpawnProcess"}
        finally:
            svc.close()
        assert report.verified
        assert set(report.placements.values()) == {"process"}


class TestFailureIsolation:
    def test_poisoned_group_reported_not_fatal(self, tmp_path):
        """Jobs whose matrices cannot even be wire-encoded fail their own
        group at dispatch; other groups still serve."""
        svc = make_service(tmp_path, "process")
        good = svc.submit(*rand_mats(2, 2, 2, seed=1), backend="spartan")
        svc.submit([["x", "y"], [1, 2]], [[1], [2]], backend="spartan")
        try:
            report = svc.run(verify=True)
        finally:
            svc.close()
        assert [r.job_id for r in report.results] == [good]
        assert len(report.errors) == 1
        assert report.verified is False
        assert svc.verify_report(report)

    def test_dying_worker_poisons_only_its_group(self, tmp_path, monkeypatch):
        """A worker that dies without cleanup (simulated segfault) on
        every chunk of one strategy takes its in-flight chunks down with
        it; innocent groups are re-dispatched to relaunched workers and
        complete, while the culprit — which keeps crashing every retry —
        is bisected down to a quarantined poison job."""
        plan = FaultPlan(
            [FaultSpec(kind="crash", strategy="crpc", tier="process", times=None)]
        )
        monkeypatch.setenv(ENV_VAR, plan.to_json())
        svc = make_service(tmp_path, "process")
        good = [
            svc.submit(*rand_mats(2, 2, 2, seed=s), backend="spartan")
            for s in range(2)
        ]
        bad = svc.submit(
            *rand_mats(2, 2, 2, seed=9), strategy="crpc", backend="spartan"
        )
        try:
            report = svc.run()
        finally:
            svc.close()
        assert [r.job_id for r in report.results] == good
        assert not report.errors  # the crash was isolated, not group-fatal
        (poison,) = report.quarantined()
        assert poison.job_id == bad
        assert "worker-crash" in (poison.error or "")
        assert {j: o.status for j, o in report.job_outcomes.items()} == {
            good[0]: "ok",
            good[1]: "ok",
            bad: "quarantined",
        }
        assert svc.verify_report(report)

    @pytest.mark.parametrize("fallback", [True, False])
    def test_partially_failed_sharded_group(self, tmp_path, monkeypatch, fallback):
        """A chunk-fatal failure inside a sharded group keeps the other
        chunks' results.  With the degradation ladder on (the default) the
        missing jobs are re-served inline and the group fully recovers;
        with ``fallback=False`` the partial results are kept and the
        group reports the typed chunk error."""
        svc = make_service(tmp_path, "process", fallback=fallback)
        ids = [
            svc.submit(*rand_mats(2, 2, 2, seed=seed), backend="spartan")
            for seed in range(4)  # one group, sharded into 2 chunks
        ]
        # MissingKey is neither retried nor bisected: chunk-fatal.
        plan = FaultPlan(
            [FaultSpec(kind="missing_key", job_id=ids[2], tier="process", times=None)]
        )
        monkeypatch.setenv(ENV_VAR, plan.to_json())
        try:
            report = svc.run()
        finally:
            svc.close()
        (key,) = report.groups
        if fallback:
            assert [r.job_id for r in report.results] == ids
            assert not report.errors
            assert report.placements[key] == "process+inline"
            assert any("process->inline" in f for f in report.fallbacks)
        else:
            # the surviving chunk's proofs are not discarded
            assert [r.job_id for r in report.results] == ids[:2]
            assert "missing key" in report.errors[key]
            assert [
                o.job_id
                for o in report.job_outcomes.values()
                if o.status == "failed"
            ] == ids[2:]
        assert svc.verify_report(report)

    def test_worker_refuses_to_mint_keys(self, tmp_path):
        """A groth16 chunk dispatched against a root that holds no
        published keypair, by a dispatcher that pushes none, must fail
        with MissingKey — a worker-minted key would produce proofs nobody
        can verify."""
        x, w = rand_mats(2, 2, 2, seed=5)
        blob = serialize.prove_jobs_to_bytes(
            [(0, x, w, "crpc_psq", "groth16")]
        )
        fleet = LocalFleet(1, keystore_root=str(tmp_path))
        executor = RemoteProvingExecutor(fleet.addrs, fleet=fleet)
        try:
            outcome = executor.run([(("g", 0), blob)])
        finally:
            executor.shutdown()
        assert not outcome.results
        err = outcome.errors[("g", 0)]
        assert isinstance(err, MissingKey)  # typed: not retried, not bisected
        assert "no setup artifacts" in str(err)
        # ...and it wrote nothing: the root is still empty.
        assert os.listdir(tmp_path) == []


class TestWorkerKeystoreDiscipline:
    def test_readonly_keystore_never_writes(self, tmp_path):
        root = tmp_path / "absent"
        store = KeyStore(root=str(root), registry=CircuitRegistry(), readonly=True)
        with pytest.raises(KeyError):
            store.artifacts(2, 2, 2, "crpc_psq", "groth16")
        assert not root.exists()

    def test_readonly_forces_create_false(self, tmp_path):
        store = KeyStore(
            root=str(tmp_path), registry=CircuitRegistry(), readonly=True
        )
        with pytest.raises(KeyError):
            store.artifacts(2, 2, 2, "crpc_psq", "groth16", create=True)
        assert store.setups == 0

    def test_groth16_dispatch_without_root_adopts_pushed_key(self):
        """No disk root: the group still dispatches, and the worker adopts
        the keypair the service pushes over the wire instead of minting
        one — the service's single setup stays the only one."""
        registry = CircuitRegistry()
        keystore = KeyStore(registry=registry)  # memory-only
        svc = ProvingService(
            workers=2,
            registry=registry,
            keystore=keystore,
            executor="process",
            chunk_policy=GroupChunkPolicy(workers=2, **DISPATCH_ALWAYS),
        )
        svc.submit(*rand_mats(2, 2, 2, seed=6), backend="groth16")
        try:
            report = svc.run(verify=True)
            reg = svc._remote.registry
            adopted = sum(
                (reg.ping(w.addr) or {}).get("keys_adopted", 0)
                for w in reg.workers()
            )
        finally:
            svc.close()
        assert report.verified
        (key,) = report.groups
        assert report.placements[key] == "process"
        assert adopted == 1
        assert keystore.setups == 1


class TestVerifiableInferenceProcessPath:
    def test_layer_proofs_via_process_executor(self, tmp_path):
        """The zkml opt-in: captured layer matmuls route through the
        process executor and still verify layer-by-layer."""
        import numpy as np

        from repro.zkml import VerifiableInference

        registry = CircuitRegistry()
        keystore = KeyStore(root=str(tmp_path), registry=registry)
        vi = VerifiableInference(
            None,
            backend="spartan",
            registry=registry,
            keystore=keystore,
            executor="process",
            workers=2,
        )
        rng = np.random.default_rng(0)
        captured = [
            (f"layer{i}", rng.integers(-5, 5, (2, 3)), rng.integers(-5, 5, (3, 2)))
            for i in range(3)
        ]
        proofs = vi._prove_layers(captured)
        assert [p.layer for p in proofs] == ["layer0", "layer1", "layer2"]
        from repro.zkml import InferenceProof

        assert vi.verify(InferenceProof(0, [], proofs))
        # the service (and its workers) persists across prove calls
        assert vi._prove_layers(captured[:1])[0].layer == "layer0"
        assert vi._service is not None
        vi.close()


#: service_mix's batch: (count, backend, shape)
MIX = ((2, "groth16", (4, 8, 4)), (2, "spartan", (8, 16, 8)), (2, "spartan", (16, 32, 16)))

#: leases well above an honest chunk (a cold worker builds circuits and
#: reads keys) and well below the injected hang
LEASED = RetryPolicy(
    max_attempts=3,
    backoff_base_seconds=0.001,
    lease_floor_seconds=5.0,
    lease_multiplier=0.001,
)


def submit_mix(svc, rng):
    ids = []
    for count, backend, (a, n, b) in MIX:
        for _ in range(count):
            x = [[rng.randrange(-128, 128) for _ in range(n)] for _ in range(a)]
            w = [[rng.randrange(-128, 128) for _ in range(b)] for _ in range(n)]
            ids.append(svc.submit(x, w, strategy="crpc_psq", backend=backend))
    return ids


def exited(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestOwnedFleet:
    def make_mix_service(self, tmp_path, **kwargs):
        registry = CircuitRegistry()
        kwargs.setdefault("retry_policy", LEASED)
        return ProvingService(
            workers=1,
            registry=registry,
            keystore=KeyStore(root=str(tmp_path / "keys"), registry=registry),
            executor="process",
            chunk_policy=GroupChunkPolicy(workers=1, **DISPATCH_ALWAYS),
            **kwargs,
        )

    @pytest.mark.parametrize("kind", ["crash", "hang"])
    def test_single_worker_recovers(self, tmp_path, monkeypatch, kind):
        """One worker, service_mix's batch, and a one-shot fault on the
        second batch: the dead (or hung) worker is relaunched exactly
        once, and every job still proves on the fleet and verifies."""
        rng = random.Random(kind)
        mix_jobs = sum(count for count, _, _ in MIX)
        plan = FaultPlan(
            # the first job of the second batch
            [FaultSpec(kind=kind, job_id=mix_jobs, tier="process", seconds=60.0)],
            state_dir=str(tmp_path / "faults"),
        )
        monkeypatch.setenv(ENV_VAR, plan.to_json())
        svc = self.make_mix_service(tmp_path)
        try:
            submit_mix(svc, rng)
            assert svc.run(verify=True).verified
            (before,) = svc._remote.fleet.pids()
            assert svc._remote.breakages == 0
            ids = submit_mix(svc, rng)
            report = svc.run(verify=True)
            (after,) = svc._remote.fleet.pids()
            breakages = svc._remote.breakages
        finally:
            svc.close()
        assert plan.fired() == 1
        assert report.verified is True
        assert sorted(r.job_id for r in report.results) == ids
        assert set(report.placements.values()) == {"process"}
        assert not report.fallbacks
        assert breakages == 1
        assert before != after
        assert exited(before) and exited(after)

    def test_close_leaves_no_worker_running(self, tmp_path, monkeypatch):
        """After close() every owned worker has exited and no
        multiprocessing child is left: after a clean batch, after a
        relaunch that recovered a hang, and after the fleet → serial
        flip."""
        pids = []

        # a clean batch
        svc = self.make_mix_service(tmp_path)
        submit_mix(svc, random.Random(1))
        assert svc.run(verify=True).verified
        pids += svc._remote.fleet.pids()
        svc.close()
        assert multiprocessing.active_children() == []

        # a hang, recovered by a relaunch
        plan = FaultPlan(
            [FaultSpec(kind="hang", tier="process", seconds=60.0)],
            state_dir=str(tmp_path / "faults"),
        )
        monkeypatch.setenv(ENV_VAR, plan.to_json())
        svc = self.make_mix_service(tmp_path)
        submit_mix(svc, random.Random(2))
        assert svc.run(verify=True).verified
        assert svc._remote.breakages == 1
        pids += svc._remote.fleet.pids()
        svc.close()
        assert multiprocessing.active_children() == []

        # workers that crash on every chunk flip the service to serial:
        # the first batch leaves its worker dead, the second relaunches
        # it (one breakage, the whole budget) and loses it again
        plan = FaultPlan([FaultSpec(kind="crash", tier="process", times=None)])
        monkeypatch.setenv(ENV_VAR, plan.to_json())
        svc = self.make_mix_service(
            tmp_path,
            retry_policy=RetryPolicy(
                max_attempts=1, bisect=False, max_pool_breakages=1
            ),
        )
        submit_mix(svc, random.Random(3))
        assert svc.run(verify=True).verified  # re-served inline
        pids += svc._remote.fleet.pids()
        submit_mix(svc, random.Random(4))
        report = svc.run(verify=True)
        assert report.verified
        assert any("process->serial" in f for f in report.fallbacks)
        assert svc.executor == "serial" and svc._remote is None
        svc.close()
        assert multiprocessing.active_children() == []
        assert all(exited(pid) for pid in pids)
