"""zkVC core: CRPC + PSQ matmul proving API, the backend registry, the
artifact store, the batched proving service, and the hybrid mixer planner."""

from .api import (
    BACKENDS,
    MatmulProofBundle,
    MatmulProver,
    MatmulVerifier,
    prove_matmul,
    verify_matmul,
)
from .artifacts import (
    CircuitRegistry,
    KeyStore,
    default_keystore,
    default_registry,
    set_default_keystore,
)
from .backends import (
    ProofBackend,
    backend_names,
    get_backend,
    register_backend,
)
from .errors import (
    ChunkTimeout,
    CorruptEnvelope,
    FleetAuthError,
    MissingKey,
    PoisonJob,
    ProvingError,
    WorkerCrash,
    WorkerUnavailable,
    wrap_error,
)
from .faultinject import FaultPlan, FaultSpec, scoped_env
from .remote import ConnectionPool, RemoteProvingExecutor, WorkerRegistry
from .remote_worker import LocalFleet
from .resilience import (
    BARE_POLICY,
    BreakerConfig,
    CircuitBreaker,
    RetryPolicy,
)
from .crpc import (
    ConstraintTheory,
    crpc_identity_holds,
    pack_x_column,
    pack_w_row,
    pack_y,
    theory_counts,
)
from .pool import GroupChunkPolicy, PoolOutcome
from .psq import LeftWireReport, left_wire_report, prefix_sums, psq_reduction_factor
from .service import (
    EXECUTORS,
    JobOutcome,
    JobResult,
    ProveJob,
    ProvingService,
    ServiceReport,
)

__all__ = [
    "BACKENDS",
    "BARE_POLICY",
    "BreakerConfig",
    "ChunkTimeout",
    "CircuitBreaker",
    "CircuitRegistry",
    "ConnectionPool",
    "FleetAuthError",
    "ConstraintTheory",
    "CorruptEnvelope",
    "EXECUTORS",
    "FaultPlan",
    "FaultSpec",
    "GroupChunkPolicy",
    "JobOutcome",
    "JobResult",
    "KeyStore",
    "LeftWireReport",
    "LocalFleet",
    "MissingKey",
    "PoisonJob",
    "PoolOutcome",
    "ProvingError",
    "RemoteProvingExecutor",
    "RetryPolicy",
    "WorkerCrash",
    "WorkerRegistry",
    "WorkerUnavailable",
    "scoped_env",
    "MatmulProofBundle",
    "MatmulProver",
    "MatmulVerifier",
    "ProofBackend",
    "ProveJob",
    "ProvingService",
    "ServiceReport",
    "backend_names",
    "crpc_identity_holds",
    "default_keystore",
    "default_registry",
    "get_backend",
    "left_wire_report",
    "pack_w_row",
    "pack_x_column",
    "pack_y",
    "prefix_sums",
    "prove_matmul",
    "psq_reduction_factor",
    "register_backend",
    "set_default_keystore",
    "theory_counts",
    "verify_matmul",
    "wrap_error",
]
