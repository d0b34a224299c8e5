"""Discrete-event workflow engine: the simulated Argo-style operator.

Executes :class:`~repro.engine.spec.ExecutableWorkflow` DAGs on a
simulated cluster with resource contention, input-fetch modelling via
the caching layer, failure injection, retries, and restart-from-failure.
"""

from .admission import AdmissionError, AdmissionPipeline, AdmissionRecord
from .cachehooks import BandwidthModel, CacheManagerProtocol, NullCacheManager
from .fairness import (
    DEFAULT_SLO_CLASS,
    FAIRNESS_REGISTRY,
    SLO_BATCH,
    SLO_SERVING,
    DRFPolicy,
    FairnessError,
    FairnessPolicy,
    LaneConfig,
    StrictPriorityPolicy,
    TenantShares,
    WeightedFairPolicy,
    default_lanes,
    make_fairness_policy,
)
from .journal import (
    REPLICA_LOST_ERR,
    Journal,
    JournalRecord,
    demote_running_steps,
)
from .metrics import UtilizationRecorder, UtilizationSample
from .operator import WorkflowOperator, validate_when_expr
from .queue import (
    DeferredDequeue,
    MultiClusterQueue,
    QueuedWorkflow,
    QuotaError,
    UserQuota,
)
from .replicas import ShardedOperatorFleet, shard_of
from .retry import (
    FATAL_PATTERNS,
    INFRA_PATTERNS,
    FailureInjector,
    RETRYABLE_PATTERNS,
    UNSCHEDULABLE_ERR,
    RetryPolicy,
    is_infra,
    is_retryable,
)
from .simclock import EventHandle, SimClock, SimulationError
from .spec import (
    ArtifactSpec,
    ExecutableStep,
    ExecutableWorkflow,
    FailureProfile,
    SpecError,
    parse_argo_manifest,
    step_profile_annotation,
)
from .status import StepRecord, StepStatus, WorkflowPhase, WorkflowRecord

__all__ = [
    "AdmissionError",
    "AdmissionPipeline",
    "AdmissionRecord",
    "ArtifactSpec",
    "BandwidthModel",
    "CacheManagerProtocol",
    "DEFAULT_SLO_CLASS",
    "DRFPolicy",
    "DeferredDequeue",
    "EventHandle",
    "FAIRNESS_REGISTRY",
    "ExecutableStep",
    "ExecutableWorkflow",
    "FATAL_PATTERNS",
    "INFRA_PATTERNS",
    "FailureInjector",
    "FailureProfile",
    "FairnessError",
    "FairnessPolicy",
    "Journal",
    "JournalRecord",
    "LaneConfig",
    "MultiClusterQueue",
    "REPLICA_LOST_ERR",
    "ShardedOperatorFleet",
    "SLO_BATCH",
    "SLO_SERVING",
    "StrictPriorityPolicy",
    "TenantShares",
    "WeightedFairPolicy",
    "default_lanes",
    "make_fairness_policy",
    "NullCacheManager",
    "QueuedWorkflow",
    "QuotaError",
    "RETRYABLE_PATTERNS",
    "RetryPolicy",
    "SimClock",
    "SimulationError",
    "SpecError",
    "StepRecord",
    "StepStatus",
    "UNSCHEDULABLE_ERR",
    "UserQuota",
    "UtilizationRecorder",
    "UtilizationSample",
    "WorkflowOperator",
    "WorkflowPhase",
    "WorkflowRecord",
    "demote_running_steps",
    "is_infra",
    "is_retryable",
    "parse_argo_manifest",
    "shard_of",
    "step_profile_annotation",
    "validate_when_expr",
]
