"""Stable v2 Couler API facade.

This module is the supported import surface for user code::

    from repro import couler

    couler.run_container(image="whalesay:latest", command=["cowsay"],
                         args=["hello"], step_name="A")
    record = couler.run(submitter=couler.ArgoSubmitter())

Everything listed in ``__all__`` here is covered by the v2 stability
contract: names are not removed or re-ordered, optional parameters on
the ``run_*`` step constructors are keyword-only so new options never
shift call sites, and any submitter conforming to the
:class:`~repro.backends.base.Submitter` protocol plugs into
:func:`run` interchangeably.

v2 gives every engine knob one spelling.  Submitters take one
keyword-only ``config=``\\ :class:`EngineConfig` bundle, validated at
construction and introspectable as ``submitter.config``.  The v1
compatibility spellings are gone with no alias left behind; the
README's v2 migration table maps each to its replacement.

``repro.core`` remains as the historical import path and re-exports
the same names; new code should import :mod:`repro.couler`.

Caching (Algorithm 2): :class:`CacheManager` attaches automatic
artifact caching to a run, :class:`ScoreWeights` tunes the Eq. 6
importance factor, and custom admission policies subclass
:class:`CachePolicy` and implement ``decide(decision: CacheDecision)``.

Multi-tenant fairness:
``AdmissionSubmitter(config=EngineConfig(fairness="drf",
slo_class="serving"))`` selects a cross-tenant ordering policy
(``strict-priority`` / ``weighted-fair`` / ``drf``) and an SLO lane for
the submission.  Custom policies subclass :class:`FairnessPolicy` and
implement ``key(...)``.  The two lanes are fixed and take no settings:
``SLO_SERVING`` work places first in every pass and may preempt, and
``SLO_BATCH`` work is preemptible.

The journal-backed engine is **opt-in and default-off**:
``EngineConfig(journaled=True)`` on an Argo or admission submitter
records every admission decision and step event into a
:class:`Journal`, from which a fresh engine replica recovers by pure
replay (``resume_from_journal``) — :class:`ShardedOperatorFleet` is the
multi-replica driver.  With ``journaled`` left off, nothing is
journaled.

``EngineConfig(engine="naive")`` selects the straight-line reference
hot paths the ``engine_fast`` verify oracle diffs against;
:func:`profile_run` (also ``python -m repro profile``) measures
per-workflow engine cost under either mode on a deterministic synthetic
fleet.  Adaptive policy knobs (:class:`PolicyConfig`) ride in
``EngineConfig(policy=...)`` and reach the cache as
``CacheManager(weights=policy.score_weights())``.
"""

from .backends.base import Submitter, submission_record
from .caching import (
    CacheDecision,
    CacheManager,
    CachePolicy,
    ScoreWeights,
    make_policy,
)
from .core.api import (
    PENDING,
    StepOutput,
    bigger,
    bigger_equal,
    concurrent,
    dag,
    equal,
    exec_while,
    map,  # noqa: A004 - matches the paper's couler.map
    not_equal,
    run,
    run_container,
    run_job,
    run_script,
    set_dependencies,
    smaller,
    smaller_equal,
    when,
    workflow_ir,
)
from .core.artifacts import (
    create_gcs_artifact,
    create_git_artifact,
    create_hdfs_artifact,
    create_oss_artifact,
    create_parameter_artifact,
    create_s3_artifact,
)
from .control import AdaptationLog, AdaptationResult, Controller, PolicyConfig
from .core.conditions import Condition, OutputRef
from .core.context import WorkflowContext, get_context, reset_context, workflow
from .core.submitter import (
    AdmissionSubmitter,
    AirflowSubmitter,
    ArgoSubmitter,
    LocalSubmitter,
    SubmissionResult,
    TektonSubmitter,
    default_environment,
    default_multicluster,
)
from .engine.config import DEFAULT_CONFIG, EngineConfig
from .engine.fairness import (
    SLO_BATCH,
    SLO_SERVING,
    FairnessPolicy,
    make_fairness_policy,
)
from .engine.journal import Journal, JournalRecord
from .engine.replicas import ShardedOperatorFleet
from .profiling import ProfileReport, profile_run

__all__ = [
    # submission contract
    "Submitter",
    "submission_record",
    # submitters
    "AdmissionSubmitter",
    "AirflowSubmitter",
    "ArgoSubmitter",
    "LocalSubmitter",
    "SubmissionResult",
    "TektonSubmitter",
    "default_environment",
    "default_multicluster",
    # step definition
    "PENDING",
    "StepOutput",
    "run_container",
    "run_job",
    "run_script",
    # control flow
    "concurrent",
    "exec_while",
    "map",
    "when",
    # explicit DAG structure
    "dag",
    "set_dependencies",
    # conditions
    "Condition",
    "OutputRef",
    "bigger",
    "bigger_equal",
    "equal",
    "not_equal",
    "smaller",
    "smaller_equal",
    # caching (Algorithm 2)
    "CacheDecision",
    "CacheManager",
    "CachePolicy",
    "ScoreWeights",
    "make_policy",
    # multi-tenant fairness & SLO lanes
    "FairnessPolicy",
    "SLO_BATCH",
    "SLO_SERVING",
    "make_fairness_policy",
    # unified engine configuration & profiling
    "DEFAULT_CONFIG",
    "EngineConfig",
    "ProfileReport",
    "profile_run",
    # adaptive policy control
    "AdaptationLog",
    "AdaptationResult",
    "Controller",
    "PolicyConfig",
    # journal-backed engine (opt-in via EngineConfig(journaled=True))
    "Journal",
    "JournalRecord",
    "ShardedOperatorFleet",
    # artifacts
    "create_gcs_artifact",
    "create_git_artifact",
    "create_hdfs_artifact",
    "create_oss_artifact",
    "create_parameter_artifact",
    "create_s3_artifact",
    # workflow context & finalization
    "WorkflowContext",
    "get_context",
    "reset_context",
    "run",
    "workflow",
    "workflow_ir",
]
