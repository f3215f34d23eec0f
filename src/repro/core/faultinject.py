"""Deterministic fault injection for the proving pipeline.

The resilience layer (typed errors, retries, leases, bisection,
quarantine, degradation ladder) is only trustworthy if every failure mode
can be forced on demand, deterministically, across *all three* executors
— including spawn-started worker processes that share no Python state
with the test.  This module provides that harness:

* A :class:`FaultPlan` is a list of :class:`FaultSpec` entries selecting
  jobs (by ``job_id`` and/or ``strategy``) and a fault ``kind``:

  - ``"crash"``   — the worker dies without cleanup (``os._exit``);
    inline executors raise :class:`~repro.core.errors.WorkerCrash`.
  - ``"hang"``    — the worker sleeps ``seconds`` (long enough for the
    chunk lease to expire and kill it); inline executors sleep a short
    ``inline_seconds`` and raise
    :class:`~repro.core.errors.ChunkTimeout` (in-process code cannot be
    preempted, so the inline hang is a *simulated* lease expiry).
  - ``"corrupt"`` — the worker's result envelope is bit-flipped on the
    way out, so the parent's decode raises
    :class:`~repro.core.errors.CorruptEnvelope`.
  - ``"missing_key"`` — raises ``KeyError`` exactly as a keystore miss
    would (workers) / :class:`~repro.core.errors.MissingKey` (inline).
  - ``"poison"``  — raises a deterministic, job-attributed
    :class:`~repro.core.errors.ProvingError` on every attempt, the
    canonical quarantine target.
  - ``"net_drop"`` — remote tier only: the worker proves the chunk, then
    the connection "loses" the RESULTS frame (hang-up without a reply) —
    the dispatcher sees :class:`~repro.core.errors.WorkerCrash` for work
    that actually completed, the hardest case for exactly-once delivery.
  - ``"net_stall"`` — remote tier only: the reply stalls ``seconds``
    (past the chunk lease), so the dispatcher times out and re-dispatches
    while the original worker is still holding the proven chunk.

* Plans cross the process boundary through the ``REPRO_FAULT_PLAN``
  environment variable (JSON), the only channel that survives ``spawn``.
* ``times`` bounds how often a spec fires.  Firings are counted with
  ``O_EXCL`` marker files under the plan's ``state_dir``, so the count is
  exact across any number of worker processes and retries — "fail the
  first two dispatches, succeed on the third" replays identically every
  run.  ``times=None`` means "always" and needs no state.

Production code calls :func:`active_plan` at its hook points; with the
variable unset (the default, including under pytest) that is one dict
lookup and the whole module stays cold.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import List, Optional

from .errors import ChunkTimeout, MissingKey, ProvingError, WorkerCrash

ENV_VAR = "REPRO_FAULT_PLAN"

KINDS = ("crash", "hang", "corrupt", "missing_key", "poison", "net_drop", "net_stall")

#: kinds that act on the worker's *reply* path, not at chunk entry
_EXIT_KINDS = ("corrupt", "net_drop", "net_stall")


@dataclass
class FaultSpec:
    """One injected fault: which jobs, what failure, how many times.

    ``tier`` scopes the spec to one executor tier (``"process"``,
    ``"remote"``, ``"inline"``); ``None`` means any tier — but note that
    :func:`scoped_env` only forwards *explicitly* tier-addressed specs
    across a launch boundary, so an untiered plan never leaks into a
    remote worker's environment.
    """

    kind: str
    job_id: Optional[int] = None
    strategy: Optional[str] = None
    tier: Optional[str] = None  # None = any tier (local process tree only)
    times: Optional[int] = 1  # None = every attempt
    seconds: float = 30.0  # worker hang duration (lease must be shorter)
    inline_seconds: float = 0.01  # simulated hang for in-process executors

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")

    def matches(
        self,
        job_id: Optional[int],
        strategy: Optional[str],
        tier: Optional[str] = None,
    ) -> bool:
        if self.tier is not None and tier is not None and self.tier != tier:
            return False
        if self.job_id is not None and self.job_id != job_id:
            return False
        if self.strategy is not None and self.strategy != strategy:
            return False
        return True

    def ident(self) -> str:
        # tier is part of the identity: two otherwise-equal specs aimed at
        # different tiers must not share O_EXCL firing markers.
        return f"{self.kind}-j{self.job_id}-s{self.strategy}-t{self.tier}"


@dataclass
class FaultPlan:
    specs: List[FaultSpec] = field(default_factory=list)
    #: directory for cross-process firing counters; required for any
    #: spec with a finite ``times`` that must hold across retries
    state_dir: Optional[str] = None

    # -- wire format (environment variable JSON) ------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "state_dir": self.state_dir,
                "specs": [vars(s) for s in self.specs],
            }
        )

    @classmethod
    def from_json(cls, blob: str) -> "FaultPlan":
        data = json.loads(blob)
        return cls(
            specs=[FaultSpec(**s) for s in data.get("specs", [])],
            state_dir=data.get("state_dir"),
        )

    def install(self, env=os.environ) -> str:
        """Serialize into the environment (spawn-safe channel); returns
        the value so tests can assert/uninstall it."""
        value = self.to_json()
        env[ENV_VAR] = value
        return value

    # -- firing accounting ----------------------------------------------------
    def _should_fire(self, spec: FaultSpec) -> bool:
        if spec.times is None:
            return True
        if spec.times <= 0:
            return False
        if self.state_dir is None:
            raise ValueError(
                "FaultSpec with finite `times` needs a plan state_dir "
                "(cross-process firing counts use marker files)"
            )
        os.makedirs(self.state_dir, exist_ok=True)
        for n in range(spec.times):
            marker = os.path.join(self.state_dir, f"{spec.ident()}.{n}")
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue  # that firing already happened (maybe elsewhere)
            os.close(fd)
            return True
        return False  # budget spent: let the work through

    def fired(self, spec_index: int = 0) -> int:
        """How many times spec ``spec_index`` has fired so far (exact,
        cross-process) — test assertion helper."""
        spec = self.specs[spec_index]
        if spec.times is None or self.state_dir is None:
            raise ValueError("only finite-times specs are counted")
        return sum(
            1
            for n in range(spec.times)
            if os.path.exists(os.path.join(self.state_dir, f"{spec.ident()}.{n}"))
        )

    # -- scoping ----------------------------------------------------------------
    def scoped(self, tier: str) -> Optional["FaultPlan"]:
        """The subset of this plan explicitly addressed to ``tier``, or
        ``None`` when nothing is.  Untiered specs do NOT cross a launch
        boundary — that ambient leak is the bug this exists to close."""
        specs = [s for s in self.specs if s.tier == tier]
        if not specs:
            return None
        return FaultPlan(specs=specs, state_dir=self.state_dir)

    # -- hook points -----------------------------------------------------------
    def fire_worker(self, jobs, tier: Optional[str] = None) -> None:
        """Worker-process entry hook: ``jobs`` is the decoded chunk
        (sequence of ``(job_id, x, w, strategy, backend)``).  A matching
        chunk-level fault acts on the whole chunk — which is exactly what
        makes bisection meaningful: only chunks *containing* the targeted
        job fail, so the bisector can corner it."""
        for spec in self.specs:
            if spec.kind in _EXIT_KINDS:
                continue  # handled on the result path
            if not any(spec.matches(j[0], j[3], tier) for j in jobs):
                continue
            if not self._should_fire(spec):
                continue
            if spec.kind == "crash":
                os._exit(13)
            if spec.kind == "hang":
                time.sleep(spec.seconds)
                return  # slept through the lease; proceed (pool kills us)
            if spec.kind == "missing_key":
                raise KeyError("injected: missing key")
            if spec.kind == "poison":
                job_id = next(
                    j[0] for j in jobs if spec.matches(j[0], j[3], tier)
                )
                raise ProvingError("injected: poison job", job_id=job_id)

    def mangle_results(self, blob: bytes, jobs, tier: Optional[str] = None) -> bytes:
        """Worker-process exit hook: corrupt the result envelope for a
        matching ``"corrupt"`` spec (transport-fault simulation)."""
        for spec in self.specs:
            if spec.kind != "corrupt":
                continue
            if not any(spec.matches(j[0], j[3], tier) for j in jobs):
                continue
            if not self._should_fire(spec):
                continue
            mangled = bytearray(blob)
            if mangled:
                mangled[len(mangled) // 2] ^= 0xFF
            mangled.extend(b"\xff")  # even an empty envelope must break
            return bytes(mangled)
        return blob

    def transport_fault(self, jobs, tier: Optional[str] = None) -> Optional[FaultSpec]:
        """Remote-worker reply hook: the matching ``net_drop``/``net_stall``
        spec that should fire for this (already-proven) chunk, or ``None``.
        The worker acts it out — dropping the connection or stalling the
        send — because only the server side holds the socket."""
        for spec in self.specs:
            if spec.kind not in ("net_drop", "net_stall"):
                continue
            if not any(spec.matches(j[0], j[3], tier) for j in jobs):
                continue
            if not self._should_fire(spec):
                continue
            return spec
        return None

    def fire_inline(
        self,
        job_id: int,
        strategy: Optional[str] = None,
        tier: Optional[str] = None,
    ) -> None:
        """In-process per-job hook, called right before each prove
        attempt; raises the typed error a worker would have produced."""
        for spec in self.specs:
            if spec.kind in _EXIT_KINDS:
                continue  # no wire (or envelope) exists on the inline path
            if not spec.matches(job_id, strategy, tier):
                continue
            if not self._should_fire(spec):
                continue
            if spec.kind == "crash":
                raise WorkerCrash("injected: crash", job_id=job_id)
            if spec.kind == "hang":
                time.sleep(spec.inline_seconds)
                raise ChunkTimeout(
                    "injected: hang (simulated lease expiry)",
                    job_id=job_id,
                    deadline_seconds=spec.inline_seconds,
                )
            if spec.kind == "missing_key":
                raise MissingKey("injected: missing key", job_id=job_id)
            if spec.kind == "poison":
                raise ProvingError("injected: poison job", job_id=job_id)


# Cache keyed by the raw env value: workers hit active_plan() once per
# chunk and parents once per job, and the plan is immutable per value.
_PARSED: dict = {}


def active_plan(env=os.environ) -> Optional[FaultPlan]:
    """The installed plan, or ``None`` (the fast path: one dict lookup)."""
    blob = env.get(ENV_VAR)
    if not blob:
        return None
    plan = _PARSED.get(blob)
    if plan is None:
        plan = _PARSED[blob] = FaultPlan.from_json(blob)
    return plan


def scoped_env(tier: str, env=os.environ) -> dict:
    """A copy of ``env`` safe to hand a ``tier`` worker launch: the
    ambient fault plan is stripped, and only specs explicitly addressed
    to ``tier`` are re-installed.  This is the boundary that keeps a plan
    scoped to one executor's workers from leaking into every further
    subprocess (or across the wire to a remote host)."""
    out = dict(env)
    out.pop(ENV_VAR, None)
    plan = active_plan(env)
    if plan is not None:
        sub = plan.scoped(tier)
        if sub is not None:
            sub.install(out)
    return out
