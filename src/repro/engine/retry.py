"""Failure patterns and retry policy (paper Appendix B.B).

Ant Group's production deployment catalogued "more than 20 abnormal
patterns" whose failures the workflow controller retries in place
(restarting the failed step, not the whole workflow).  This module
carries that catalogue, a backoff-limited :class:`RetryPolicy`, and a
seeded :class:`FailureInjector` that the operator consults on each step
attempt.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

#: Retryable system-level error patterns.  The first two are named in the
#: paper; the remainder model the catalogue of transient cloud errors the
#: production controller absorbs.
RETRYABLE_PATTERNS = frozenset(
    {
        "ExceededQuotaErr",
        "TooManyRequestsErr",
        "PodEvictedErr",
        "ImagePullBackOffErr",
        "NodeNotReadyErr",
        "NetworkTimeoutErr",
        "VolumeMountErr",
        "OOMKilledTransientErr",
        "DNSResolutionErr",
        "RegistryThrottleErr",
        "APIServerTimeoutErr",
        "EtcdLeaderChangeErr",
        "SidecarInjectionErr",
        "ConfigMapSyncErr",
        "SecretSyncErr",
        "PVCPendingErr",
        "IPAllocationErr",
        "KubeletRestartErr",
        "ContainerCreateErr",
        "WebhookTimeoutErr",
        "QuotaSyncLagErr",
        "SchedulerPreemptedErr",
    }
)

#: A step larger than every node of its cluster: no retry can place it.
#: The operator fails such a workflow at submit (``WorkflowOperator.submit``).
UNSCHEDULABLE_ERR = "UnschedulableErr"

#: Non-retryable (application-level) patterns: retrying cannot help.
FATAL_PATTERNS = frozenset(
    {
        "PodCrashErr",
        "InvalidImageErr",
        "PermissionDeniedErr",
        "DataCorruptionErr",
        UNSCHEDULABLE_ERR,
    }
)

#: Infrastructure faults: the cluster, not the step, is at fault.  These
#: are what the chaos layer injects (node loss, eviction/preemption,
#: cache-fetch outages, controller restarts) and they are retried on a
#: separate budget — an eviction storm must not exhaust a step's
#: application retry limit (``infra_retry`` path, see RetryPolicy).
INFRA_PATTERNS = frozenset(
    {
        "NodeLostErr",
        "PodEvictedErr",
        "SchedulerPreemptedErr",
        "CacheFetchTimeoutErr",
        "OperatorRestartErr",
        # A hard-killed engine replica lost the attempt: journal replay
        # settles it with this pattern (repro.engine.journal).
        "ReplicaLostErr",
    }
)


def is_retryable(pattern: str) -> bool:
    return pattern in RETRYABLE_PATTERNS or pattern in INFRA_PATTERNS


def is_infra(pattern: str) -> bool:
    return pattern in INFRA_PATTERNS


@dataclass
class RetryPolicy:
    """Backoff-limited retry decisions for failed step attempts.

    ``backoff_base`` and ``backoff_factor`` produce the delay before the
    next attempt: ``base * factor ** (attempt - 1)``, capped by
    ``backoff_cap``.  When the caller passes a seeded ``rng``, the delay
    is jittered by ``±jitter`` (fractionally) so steps that failed on
    the same tick don't retry in lockstep and hammer the scheduler at
    the same virtual instant.
    """

    limit: int = 3
    backoff_base: float = 10.0
    backoff_factor: float = 2.0
    backoff_cap: float = 300.0
    #: Fractional symmetric jitter applied when an ``rng`` is supplied.
    jitter: float = 0.1
    #: Separate budget for infrastructure faults (node loss, eviction,
    #: controller restart): generous, because none of them indicate the
    #: step itself is broken.
    infra_limit: int = 32
    #: Flat requeue delay after an infra fault — the work just needs to
    #: land elsewhere; exponential backoff would punish the victim.
    infra_backoff: float = 5.0

    def should_retry(
        self, pattern: str, attempts: int, limit_override: Optional[int] = None
    ) -> bool:
        """Decide whether a failed attempt should be retried in place.

        ``limit_override`` is a per-step retry budget (Argo's
        ``retryStrategy.limit``); None uses the policy's global limit.
        ``attempts`` must count application attempts only — callers
        subtract the infra interruptions recorded on the step, so that
        a displaced pod never burns the step's own retry budget.
        """
        effective_limit = self.limit if limit_override is None else limit_override
        return is_retryable(pattern) and attempts <= effective_limit

    def is_infra(self, pattern: str) -> bool:
        return is_infra(pattern)

    def infra_retry(self, pattern: str, infra_failures: int) -> bool:
        """The infra path: requeue displaced work on its own budget."""
        return is_infra(pattern) and infra_failures <= self.infra_limit

    def backoff(self, attempts: int, rng: Optional[random.Random] = None) -> float:
        """Delay before the next attempt.

        Without ``rng`` the delay is the exact capped exponential (the
        deterministic value unit tests and capacity planning reason
        about); with a seeded ``rng`` the delay is spread uniformly over
        ``[1 - jitter, 1 + jitter]`` of that value.
        """
        delay = self.backoff_base * (self.backoff_factor ** max(0, attempts - 1))
        delay = min(delay, self.backoff_cap)
        if rng is not None and self.jitter > 0.0:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, delay)


@dataclass
class FailureInjector:
    """Seeded per-attempt failure sampling.

    Each step attempt fails with the step's configured ``failure.rate``;
    on failure a pattern is drawn: with probability
    ``retryable_fraction`` a retryable system pattern, otherwise the
    step's own (usually fatal) pattern.
    """

    seed: int = 0
    retryable_fraction: float = 0.8
    _rng: random.Random = field(init=False, repr=False)
    injected: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def sample(self, step_name: str, rate: float, own_pattern: str) -> Optional[str]:
        """Return a failure pattern for this attempt, or None for success."""
        if rate <= 0.0:
            return None
        if self._rng.random() >= rate:
            return None
        if self._rng.random() < self.retryable_fraction:
            pattern = self._rng.choice(sorted(RETRYABLE_PATTERNS))
        else:
            pattern = own_pattern
        self.injected[pattern] = self.injected.get(pattern, 0) + 1
        return pattern
