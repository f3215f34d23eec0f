"""Typed error taxonomy for the proving pipeline.

Every failure the serving stack can produce is a :class:`ProvingError`
carrying structured context (circuit key, chunk index, job id, attempt
count) instead of a bare exception string.  Two class attributes drive the
resilience machinery in :mod:`repro.core.resilience` /
:mod:`repro.core.pool`:

* ``retryable`` — whether re-dispatching the same work can plausibly
  succeed (a crashed or hung worker may have been transient OOM or
  scheduling; a missing key will be missing again);
* ``isolate`` — whether the failure is worth *bisecting*: splitting the
  chunk to pin the blame on a single poison job (a crash or a per-job
  Python error is; a key the whole group lacks is not).

This module is import-light on purpose (stdlib only): ``serialize.py``
raises :class:`CorruptEnvelope` and must not drag the whole ``core``
package in, and instances cross process boundaries, so they pickle
through a plain ``(class, message, context)`` triple.
"""

from __future__ import annotations

from typing import Optional, Tuple

#: context attributes every ProvingError carries (and pickles)
_CONTEXT_FIELDS = (
    "circuit_key",
    "chunk_index",
    "job_id",
    "attempts",
    "deadline_seconds",
    "offset",
)


def _rebuild_error(cls, message, context):
    err = cls(message)
    for name, value in context.items():
        setattr(err, name, value)
    return err


class ProvingError(Exception):
    """Base of the proving-pipeline failure taxonomy.

    ``message`` is the human-readable cause; the keyword context fields
    locate the failure (which circuit, which chunk, which job, how many
    attempts were burned).  ``str()`` renders both, so legacy callers
    that stored ``f"{type}: {exc}"`` strings lose nothing.
    """

    #: taxonomy label, stable across renames (used in reports/logs)
    kind = "proving-error"
    #: re-dispatching the identical work may succeed
    retryable = False
    #: bisecting the chunk can pin the failure on a poison job
    isolate = True

    def __init__(
        self,
        message: str = "",
        *,
        circuit_key: Optional[Tuple] = None,
        chunk_index: Optional[int] = None,
        job_id: Optional[int] = None,
        attempts: int = 1,
        deadline_seconds: Optional[float] = None,
        offset: Optional[int] = None,
    ):
        super().__init__(message)
        self.message = message
        self.circuit_key = circuit_key
        self.chunk_index = chunk_index
        self.job_id = job_id
        self.attempts = attempts
        self.deadline_seconds = deadline_seconds
        self.offset = offset

    # -- pickling (workers raise these across the process boundary) -----------
    def __reduce__(self):
        context = {name: getattr(self, name) for name in _CONTEXT_FIELDS}
        return (_rebuild_error, (type(self), self.message, context))

    # -- rendering ------------------------------------------------------------
    def context(self) -> str:
        parts = []
        if self.circuit_key is not None:
            parts.append(f"circuit={self.circuit_key}")
        if self.chunk_index is not None:
            parts.append(f"chunk={self.chunk_index}")
        if self.job_id is not None:
            parts.append(f"job={self.job_id}")
        if self.attempts > 1:
            parts.append(f"attempts={self.attempts}")
        if self.deadline_seconds is not None:
            parts.append(f"deadline={self.deadline_seconds:.3g}s")
        if self.offset is not None:
            parts.append(f"offset={self.offset}")
        return ", ".join(parts)

    def __str__(self) -> str:
        ctx = self.context()
        base = self.message or self.kind
        return f"{base} [{ctx}]" if ctx else base


class WorkerCrash(ProvingError):
    """A worker process died without reporting (segfault, ``os._exit``,
    OOM-kill) — observed as its connection lost mid-chunk."""

    kind = "worker-crash"
    retryable = True
    isolate = True


class ChunkTimeout(ProvingError):
    """A chunk outlived its lease deadline; the worker was presumed hung
    and its pool was torn down so the chunk could be re-dispatched."""

    kind = "chunk-timeout"
    retryable = True
    isolate = True


class CorruptEnvelope(ProvingError, ValueError):
    """A job or result wire envelope failed to decode.

    Subclasses ``ValueError`` so every existing ``except ValueError``
    (and the fuzzing contract in ``tests/test_serialize_fuzz.py``) still
    holds.  Retryable: a corrupt *result* envelope is a transport-layer
    fault a re-dispatch can outrun; a corrupt *jobs* blob will fail again
    and exhausts into a chunk-fatal error (it cannot be bisected — the
    jobs inside it are unreadable)."""

    kind = "corrupt-envelope"
    retryable = True
    isolate = False


class MissingKey(ProvingError):
    """A worker found no setup artifacts to rehydrate (workers must adopt
    the parent's keypair or fail — never mint their own).  Not retryable
    and not bisectable: the whole group lacks the key equally.  The
    degradation ladder re-serves the group in-process instead, where the
    parent *may* run setup."""

    kind = "missing-key"
    retryable = False
    isolate = False


class PoisonJob(ProvingError):
    """A single job confirmed (by bisection or repeated single-job
    failure) to kill every worker or attempt it touches.  Quarantined
    into the report; never retried."""

    kind = "poison-job"
    retryable = False
    isolate = True


class FleetAuthError(ProvingError):
    """The HMAC session handshake failed: missing/wrong fleet token,
    a malformed handshake frame, or a worker that closed the connection
    before granting a session.  Not retryable — the same credentials will
    fail the same way on every dispatch — and never bisected: the jobs
    were never even decoded.  Exhausts straight to chunk-fatal, so the
    degradation ladder re-serves the group locally."""

    kind = "auth-failed"
    retryable = False
    isolate = False


class WorkerUnavailable(ProvingError):
    """No worker could be reached to run the chunk (connection refused,
    empty registry, every host marked dead).  Retryable — a host may come
    back, or another may take the chunk — but never bisected: the jobs
    are innocent, the *fleet* is the problem.  Exhausted retries go
    chunk-fatal so the degradation ladder re-serves the group locally."""

    kind = "worker-unavailable"
    retryable = True
    isolate = False


#: kind tag -> class, for rehydrating a typed error that crossed the wire
#: as a ``(kind, message, job_id)`` payload (see ``serialize.remote_error_*``).
ERROR_KINDS = {
    cls.kind: cls
    for cls in (
        ProvingError,
        WorkerCrash,
        ChunkTimeout,
        CorruptEnvelope,
        MissingKey,
        PoisonJob,
        FleetAuthError,
        WorkerUnavailable,
    )
}


def error_from_kind(kind: str, message: str, **context) -> ProvingError:
    """Rebuild a typed error from its wire ``kind`` tag (unknown tags
    degrade to the base class — a newer worker must not crash an older
    dispatcher)."""
    return ERROR_KINDS.get(kind, ProvingError)(message, **context)


def wrap_error(exc: BaseException, **context) -> ProvingError:
    """Classify an arbitrary exception into the taxonomy.

    Already-typed errors pass through (context merged in); everything
    else maps by cause: future timeouts to :class:`ChunkTimeout`,
    ``KeyError`` (the keystore's rehydrate-or-fail contract) to
    :class:`MissingKey`, decode failures to :class:`CorruptEnvelope`.  The generic fallback is a deterministic,
    non-retryable :class:`ProvingError` (a Python-level error in the
    prover fails the same way every time) that is still ``isolate`` —
    bisection can pin it on the job that caused it.
    """
    if isinstance(exc, ProvingError):
        for name, value in context.items():
            if value is not None:
                setattr(exc, name, value)
        return exc
    from concurrent.futures import TimeoutError as FuturesTimeout

    message = f"{type(exc).__name__}: {exc}"
    if isinstance(exc, FuturesTimeout):
        cls = ChunkTimeout
    elif isinstance(exc, KeyError):
        cls = MissingKey
    else:
        cls = ProvingError
    return cls(message, **context)
