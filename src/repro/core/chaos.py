"""Seeded chaos soak for the remote proving fleet.

One-shot fault tests (``tests/test_resilience.py``, ``tests/test_remote.py``)
prove each failure mode is *handled*; this harness proves the transport
survives *sustained, overlapping* churn — workers SIGKILLed and restarted
mid-batch, replies eaten by the network (``net_drop``), replies stalled
past the chunk lease (``net_stall``) — while the service keeps its
exactly-once results contract:

* **zero lost jobs** — every submitted job id comes back proven;
* **zero duplicated jobs** — no job id is reported twice;
* **byte-identical bundles** — under ``REPRO_WORKER_RNG_SEED`` the
  surviving Groth16 bundles equal a fault-free reference run's, byte for
  byte, no matter which worker (or which retry) proved them.

Everything is driven by one integer seed: the job matrices, the
kill/restart schedule, and (via the fault plan's ``times`` budgets and
marker files) the network faults all replay identically.  A killed worker
restarts on its old port (:meth:`~repro.core.remote_worker.LocalFleet.
relaunch`), so the fleet topology the dispatcher sees never changes,
only its health.

The CI smoke mode (``tests/test_chaos.py``) runs the acceptance-sized
soak (200 jobs, 3 kills, drops + stalls) inside a ~60 s budget; bigger
soaks just scale :class:`ChaosConfig`.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .artifacts import CircuitRegistry, KeyStore
from .faultinject import ENV_VAR as FAULT_ENV
from .faultinject import FaultPlan, FaultSpec
from .pool import GroupChunkPolicy
from .remote import TOKEN_ENV, parse_worker_addr
from .remote_worker import LocalFleet
from .resilience import RetryPolicy
from .service import ProvingService

RNG_SEED_ENV = "REPRO_WORKER_RNG_SEED"


@dataclass
class ChaosConfig:
    """Everything a soak run needs, all deterministic from ``seed``."""

    seed: int = 0xC4A05
    jobs: int = 200
    batches: int = 8
    workers: int = 2
    kills: int = 3  # SIGKILL + same-port restart events, spread over batches
    net_drops: int = 2  # RESULTS frames eaten by the "network"
    net_stalls: int = 1  # replies stalled past the chunk lease
    stall_seconds: float = 6.0  # must exceed the chunk lease below
    shape: Tuple[int, int, int] = (2, 2, 2)
    strategy: str = "crpc_psq"
    backend: str = "groth16"  # the rng-threaded backend: byte-stable
    rng_seed: str = "chaos-soak-9"
    heartbeat_seconds: float = 0.25  # fast revival of restarted workers
    kill_delay_range: Tuple[float, float] = (0.05, 0.4)  # into-the-batch jitter
    verify_reference: bool = True  # batch-verify the fault-free run

    def retry_policy(self) -> RetryPolicy:
        """Chaos-tuned: enough attempt budget that transport-level
        recovery absorbs every injected fault (a chunk only goes inline
        if *all* retries exhaust — which would also break byte-identity,
        so the soak asserts it never happens), leases short enough that a
        ``net_stall`` trips them inside the smoke budget, and the ladder
        pinned to the remote tier."""
        return RetryPolicy(
            max_attempts=5,
            backoff_base_seconds=0.01,
            backoff_max_seconds=0.25,
            lease_multiplier=3.0,
            lease_floor_seconds=4.0,
            seed=self.seed & 0xFFFF,
            bisect=True,
            max_pool_breakages=1 << 30,
        )


@dataclass
class ChaosReport:
    """What the soak observed; the test layer asserts on this."""

    submitted: List[int] = field(default_factory=list)
    bundles: Dict[int, bytes] = field(default_factory=dict)
    duplicate_ids: List[int] = field(default_factory=list)
    lost_ids: List[int] = field(default_factory=list)
    kills: int = 0
    restarts: int = 0
    net_faults_fired: int = 0
    fallbacks: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    transport: dict = field(default_factory=dict)
    wall_seconds: float = 0.0
    reference_verified: Optional[bool] = None
    reference_bundles: Dict[int, bytes] = field(default_factory=dict)

    @property
    def byte_identical(self) -> bool:
        return bool(self.reference_bundles) and self.bundles == self.reference_bundles


def _make_jobs(config: ChaosConfig, rng: random.Random):
    """The full deterministic job list (x, w matrix pairs)."""
    a, n, b = config.shape
    jobs = []
    for _ in range(config.jobs):
        x = [[rng.randrange(1, 97) for _ in range(n)] for _ in range(a)]
        w = [[rng.randrange(1, 97) for _ in range(b)] for _ in range(n)]
        jobs.append((x, w))
    return jobs


def _make_service(
    config: ChaosConfig, executor: str, keys_root: str, addrs=None
) -> ProvingService:
    registry = CircuitRegistry()
    keystore = KeyStore(root=keys_root, registry=registry)
    kwargs = {}
    if executor == "remote":
        kwargs["remote_workers"] = addrs
        kwargs["heartbeat_seconds"] = config.heartbeat_seconds
    return ProvingService(
        workers=config.workers,
        registry=registry,
        keystore=keystore,
        executor=executor,
        chunk_policy=GroupChunkPolicy(
            workers=config.workers,
            min_dispatch_seconds=0.0,
            target_chunk_seconds=0.0001,
        ),
        retry_policy=config.retry_policy(),
        **kwargs,
    )


def run_chaos(
    config: ChaosConfig,
    workdir: str,
    auth_token: Optional[str] = None,
) -> ChaosReport:
    """Run the soak and its fault-free reference; returns the evidence.

    ``workdir`` holds the shared keystore root (both runs must prove
    under the *same* keypair for byte-identity) and the fault plan's
    firing markers.  ``auth_token`` (or an ambient ``REPRO_FLEET_TOKEN``)
    makes the whole fleet — dispatch, heartbeats, teardown — run over
    authenticated sessions.
    """
    rng = random.Random(config.seed)
    job_mats = _make_jobs(config, rng)  # consumed by BOTH runs, pre-schedule
    report = ChaosReport()
    keys_root = os.path.join(workdir, "keys")
    state_dir = os.path.join(workdir, "faults")
    os.makedirs(keys_root, exist_ok=True)

    plan = FaultPlan(
        specs=[
            FaultSpec(
                kind="net_drop", tier="remote", times=config.net_drops
            ),
            FaultSpec(
                kind="net_stall",
                tier="remote",
                times=config.net_stalls,
                seconds=config.stall_seconds,
            ),
        ],
        state_dir=state_dir,
    )

    saved_env = {
        k: os.environ.get(k) for k in (RNG_SEED_ENV, TOKEN_ENV, FAULT_ENV)
    }
    os.environ[RNG_SEED_ENV] = config.rng_seed
    if auth_token is not None:
        os.environ[TOKEN_ENV] = auth_token
    # The plan goes to the *workers'* environment only (scoped_env keeps
    # it tier-addressed); the dispatcher never fires transport faults.
    worker_env = dict(os.environ)
    plan.install(worker_env)

    fleet: Optional[LocalFleet] = None
    t_start = time.monotonic()
    try:
        fleet = LocalFleet(config.workers, keystore_root=keys_root, env=worker_env)
        svc = _make_service(config, "remote", keys_root, fleet.addrs)

        # -- deterministic kill/restart schedule (batch -> victim, delay) ----
        kill_batches = sorted(
            rng.sample(
                range(1, config.batches), min(config.kills, config.batches - 1)
            )
        )
        schedule = {
            b: (
                rng.randrange(config.workers),
                rng.uniform(*config.kill_delay_range),
            )
            for b in kill_batches
        }

        def _kill_and_restart(victim: int, delay: float) -> None:
            time.sleep(delay)
            # SIGKILL: no drain, no goodbye — the hard case
            fleet.relaunch(victim)
            report.kills += 1
            report.restarts += 1
            # One prompt probe so the registry revives the slot without
            # waiting a full heartbeat interval.
            svc._remote.registry.ping(parse_worker_addr(fleet.addrs[victim]))

        # -- the soak ---------------------------------------------------------
        try:
            per_batch = (config.jobs + config.batches - 1) // config.batches
            cursor = 0
            for batch in range(config.batches):
                mats = job_mats[cursor:cursor + per_batch]
                cursor += per_batch
                if not mats:
                    break
                for x, w in mats:
                    report.submitted.append(
                        svc.submit(
                            x, w, strategy=config.strategy, backend=config.backend
                        )
                    )
                killer = None
                if batch in schedule:
                    killer = threading.Thread(
                        target=_kill_and_restart, args=schedule[batch]
                    )
                    killer.start()
                batch_report = svc.run(verify=False)
                if killer is not None:
                    killer.join(timeout=60)
                report.fallbacks.extend(batch_report.fallbacks)
                report.errors.extend(
                    f"job {o.job_id}: {o.status}: {o.error}"
                    for o in batch_report.job_outcomes.values()
                    if o.status != "ok"
                )
                for r in batch_report.results:
                    if r.job_id in report.bundles:
                        report.duplicate_ids.append(r.job_id)
                    else:
                        report.bundles[r.job_id] = r.bundle_bytes
            if svc._remote is not None:
                report.transport = svc._remote.transport_stats()
        finally:
            svc.close()

        report.lost_ids = sorted(set(report.submitted) - set(report.bundles))
        report.net_faults_fired = sum(
            plan.fired(i) for i in range(len(plan.specs))
        )
        report.wall_seconds = time.monotonic() - t_start

        # -- fault-free reference run (process tier, same keys, same rng) ----
        ref = _make_service(config, "process", keys_root)
        try:
            for x, w in job_mats:
                ref.submit(x, w, strategy=config.strategy, backend=config.backend)
            ref_report = ref.run(verify=config.verify_reference)
            if config.verify_reference:
                report.reference_verified = ref_report.verified
            report.reference_bundles = {
                r.job_id: r.bundle_bytes for r in ref_report.results
            }
        finally:
            ref.close()
    finally:
        if fleet is not None:
            fleet.close()
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return report


__all__ = ["ChaosConfig", "ChaosReport", "run_chaos"]
