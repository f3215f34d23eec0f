"""Retry, backoff, and lease policy for the proving pipeline.

:class:`RetryPolicy` is the one configuration object the fault-tolerant
serving stack reads: how many times a failed chunk is re-dispatched, how
long to back off between attempts (exponential, with *deterministic*
seeded jitter so tests replay exactly), which error classes are worth
retrying at all (delegated to the taxonomy in
:mod:`repro.core.errors`), how chunk lease deadlines are derived from the
cost model's per-job estimates, and when a persistently failing executor
tier should be abandoned for the next rung of the degradation ladder.

:class:`CircuitBreaker` is the per-worker health gate the remote
registry consults before placement: dispatch outcomes feed failure and
latency EWMAs, a worker that fails too often trips *open* (no dispatches),
and after a deterministic cooldown a single *half-open* probe decides
whether it closes again or re-opens with an escalated cooldown.  The
clock is injectable, so every transition is replayable in tests.
"""

from __future__ import annotations

import hashlib
import struct
import threading
import time
from dataclasses import dataclass
from typing import Optional

from .errors import ProvingError


@dataclass
class RetryPolicy:
    """Tunable fault-tolerance parameters (all deterministic).

    ``max_attempts`` counts *dispatches* of one chunk, the first included;
    ``1`` disables retries entirely.  Backoff for attempt *k* (after the
    k-th failure) is ``base * multiplier**(k-1)``, capped at
    ``backoff_max_seconds``, scaled by ``1 + jitter_fraction * u`` where
    ``u ∈ [0, 1)`` is derived by hashing ``(seed, tag, attempt)`` — the
    same schedule on every run, but decorrelated across chunks.

    Chunk leases are ``lease_multiplier ×`` the chunk's predicted proving
    seconds (from :meth:`repro.core.pool.GroupChunkPolicy.job_seconds`),
    floored at ``lease_floor_seconds``; the generous defaults make a
    spurious expiry on a slow machine far less likely than a real hang.
    ``lease_multiplier <= 0`` disables deadlines (the pre-resilience
    behaviour: wait forever).

    ``bisect`` controls whether a chunk that exhausts its retries with an
    isolatable error is split to hunt the poison job;
    ``max_pool_breakages`` is the degradation-ladder trigger: once one
    service's dispatch executor counts that many worker breakages
    (relaunches of its own workers, or remote workers lost), it stops
    dispatching and degrades to the serial tier.
    """

    max_attempts: int = 3
    backoff_base_seconds: float = 0.02
    backoff_multiplier: float = 2.0
    backoff_max_seconds: float = 1.0
    jitter_fraction: float = 0.25
    seed: int = 0x5EED
    lease_multiplier: float = 40.0
    lease_floor_seconds: float = 30.0
    bisect: bool = True
    max_pool_breakages: int = 3

    def is_retryable(self, error: ProvingError) -> bool:
        """Whether the error class permits another dispatch (attempt
        budget is the caller's concern)."""
        return bool(error.retryable)

    def backoff_seconds(self, tag, attempt: int) -> float:
        """Deterministic backoff before dispatch ``attempt + 1`` of
        ``tag`` (``attempt`` = dispatches already failed, >= 1)."""
        if self.max_attempts <= 1 or self.backoff_base_seconds <= 0:
            return 0.0
        base = self.backoff_base_seconds * (
            self.backoff_multiplier ** max(0, attempt - 1)
        )
        base = min(base, self.backoff_max_seconds)
        digest = hashlib.sha256(
            struct.pack(">Q", self.seed & 0xFFFFFFFFFFFFFFFF)
            + repr(tag).encode()
            + struct.pack(">I", attempt)
        ).digest()
        u = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return base * (1.0 + self.jitter_fraction * u)

    def lease_seconds(
        self, predicted_job_seconds: float, n_jobs: int
    ) -> Optional[float]:
        """Deadline for a chunk of ``n_jobs`` jobs, or ``None`` for no
        deadline (``lease_multiplier <= 0``)."""
        if self.lease_multiplier <= 0:
            return None
        predicted = max(0.0, predicted_job_seconds) * max(1, n_jobs)
        return max(self.lease_floor_seconds, self.lease_multiplier * predicted)


# -- per-worker circuit breaker ---------------------------------------------------

#: breaker states (strings, not an enum: they travel into stats dicts)
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


@dataclass
class BreakerConfig:
    """Tunable thresholds for :class:`CircuitBreaker` (all deterministic).

    A breaker opens when either ``consecutive_failures`` dispatches in a
    row fail, or — once at least ``min_samples`` outcomes are recorded —
    the failure EWMA (per-outcome exponential moving average with weight
    ``ewma_alpha``) crosses ``failure_threshold``.  An open breaker
    schedules its half-open probe ``cooldown_seconds`` later, doubling
    (``cooldown_multiplier``) per consecutive re-open up to
    ``cooldown_max_seconds`` — a flapping worker is probed ever more
    lazily, a recovered one rejoins after a single successful probe.
    """

    consecutive_failures: int = 3
    failure_threshold: float = 0.5
    min_samples: int = 4
    ewma_alpha: float = 0.35
    cooldown_seconds: float = 2.0
    cooldown_multiplier: float = 2.0
    cooldown_max_seconds: float = 30.0


class CircuitBreaker:
    """closed → open → half-open gate for one remote worker.

    Thread-safe; fed by dispatch outcomes only (heartbeat reachability is
    tracked separately by the registry — a worker that *answers pings but
    botches chunks* is exactly what this catches).  All scheduling is
    against the injected ``clock`` (``time.monotonic`` by default), so a
    test with a fake clock steps every transition deterministically.
    """

    def __init__(
        self,
        config: Optional[BreakerConfig] = None,
        clock=time.monotonic,
    ):
        self.config = config if config is not None else BreakerConfig()
        self.clock = clock
        self._guard = threading.Lock()
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.failure_ewma = 0.0  # 0.0 = all success, 1.0 = all failure
        self.latency_ewma: Optional[float] = None  # seconds; None until sampled
        self.samples = 0
        self.opened_count = 0  # escalation level (halved on each close)
        self.total_opens = 0  # lifetime opens (stats only)
        self.probe_at: Optional[float] = None  # when half-open admits a probe
        self._probe_in_flight = False

    # -- placement gate -----------------------------------------------------------
    def admissible(self, now: Optional[float] = None) -> bool:
        """Whether placement may offer this worker a chunk right now.
        Read-only: claiming the half-open probe slot happens in
        :meth:`note_dispatch`."""
        with self._guard:
            if self.state == BREAKER_CLOSED:
                return True
            now = self.clock() if now is None else now
            if self.state == BREAKER_OPEN and self.probe_at is not None:
                if now >= self.probe_at:
                    return True  # cooldown served; a probe may be claimed
                return False
            if self.state == BREAKER_HALF_OPEN:
                return not self._probe_in_flight
            return False

    def note_dispatch(self, now: Optional[float] = None) -> None:
        """Record that placement chose this worker.  An open breaker past
        its cooldown transitions to half-open here and claims the single
        probe slot, so concurrent dispatch threads cannot double-probe."""
        with self._guard:
            now = self.clock() if now is None else now
            if self.state == BREAKER_OPEN and (
                self.probe_at is not None and now >= self.probe_at
            ):
                self.state = BREAKER_HALF_OPEN
                self._probe_in_flight = True
            elif self.state == BREAKER_HALF_OPEN:
                self._probe_in_flight = True

    # -- outcome feed -------------------------------------------------------------
    def record_success(self, latency_seconds: Optional[float] = None) -> None:
        with self._guard:
            self._sample(failed=False, latency=latency_seconds)
            self.consecutive_failures = 0
            if self.state in (BREAKER_HALF_OPEN, BREAKER_OPEN):
                # The probe (or a straggler dispatch) came back good:
                # close, but keep the escalation history — a flapper that
                # re-opens gets the next-longer cooldown.
                self.state = BREAKER_CLOSED
                self._probe_in_flight = False
                self.probe_at = None
                # Decay rather than reset the history: one good probe is
                # evidence, not absolution — a flapper that re-opens still
                # serves an escalated cooldown.
                self.failure_ewma *= 0.5
                self.opened_count //= 2

    def record_failure(self, latency_seconds: Optional[float] = None) -> None:
        with self._guard:
            self._sample(failed=True, latency=latency_seconds)
            self.consecutive_failures += 1
            cfg = self.config
            if self.state == BREAKER_HALF_OPEN:
                self._open()  # failed probe: straight back to open, longer
                return
            if self.state == BREAKER_OPEN:
                return  # stragglers from before the trip change nothing
            tripped = self.consecutive_failures >= cfg.consecutive_failures or (
                self.samples >= cfg.min_samples
                and self.failure_ewma >= cfg.failure_threshold
            )
            if tripped:
                self._open()

    # -- internals ---------------------------------------------------------------
    def _sample(self, failed: bool, latency: Optional[float]) -> None:
        a = self.config.ewma_alpha
        self.failure_ewma += a * ((1.0 if failed else 0.0) - self.failure_ewma)
        if latency is not None:
            if self.latency_ewma is None:
                self.latency_ewma = latency
            else:
                self.latency_ewma += a * (latency - self.latency_ewma)
        self.samples += 1

    def _open(self) -> None:
        cfg = self.config
        self.state = BREAKER_OPEN
        self._probe_in_flight = False
        self.opened_count += 1
        self.total_opens += 1
        cooldown = min(
            cfg.cooldown_max_seconds,
            cfg.cooldown_seconds
            * cfg.cooldown_multiplier ** max(0, self.opened_count - 1),
        )
        self.probe_at = self.clock() + cooldown

    def snapshot(self) -> dict:
        """Stats-dict view (registry PONG/report plumbing)."""
        with self._guard:
            return {
                "state": self.state,
                "failure_ewma": round(self.failure_ewma, 4),
                "latency_ewma": (
                    None
                    if self.latency_ewma is None
                    else round(self.latency_ewma, 6)
                ),
                "samples": self.samples,
                "total_opens": self.total_opens,
            }


#: the pre-resilience configuration: single dispatch, no deadline, no
#: bisection — used by the overhead benchmark to price the layer itself
BARE_POLICY = RetryPolicy(
    max_attempts=1, lease_multiplier=0.0, bisect=False, max_pool_breakages=1 << 30
)
