"""Runtime cache manager — wires policy, store and scorer into the engine.

Implements :class:`repro.engine.cachehooks.CacheManagerProtocol`: the
operator calls :meth:`fetch` for every input artifact read (the manager
answers with the simulated read time and whether it was a cache hit)
and :meth:`on_artifact_produced` for every output (the policy decides
admission/eviction through the :class:`~repro.caching.policy.CacheDecision`
API).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from ..engine.cachehooks import BandwidthModel
from ..engine.spec import ArtifactSpec, ExecutableWorkflow
from ..obs.metrics import MetricsRegistry
from .artifact_store import ArtifactStore
from .policy import CacheDecision, CachePolicy, make_policy
from .score import (
    ArtifactScorer,
    IncrementalArtifactScorer,
    ScoreWeights,
    WorkflowGraphIndex,
)


class CacheManager:
    """The automatic caching optimizer attached to a running operator.

    All parameters are keyword-only.

    Parameters
    ----------
    policy:
        A :class:`CachePolicy` instance or a registered policy name
        (``"no"``, ``"all"``, ``"couler"``, ``"fifo"``, ``"lru"``).
    capacity_bytes:
        Store capacity; ``None`` means unbounded (for the ALL baseline).
    weights:
        Eq. 6 weights for the Couler policy (production default
        alpha=1.5, beta=1).  The adaptive controller's knobs reach the
        cache through here: pass
        ``weights=policy.score_weights()`` for a
        :class:`~repro.control.policy.PolicyConfig` ``policy``
        (``PolicyConfig().score_weights()`` is bit-identical to the
        default).
    bandwidth / distance:
        Storage-tier read model; ``distance`` scales remote reads by the
        cluster's distance to the storage cluster (Appendix B.A).
    metrics:
        Shared :class:`~repro.obs.metrics.MetricsRegistry`; pass the
        simulation's registry so cache counters land next to the
        engine's (a private one is created otherwise).
    scorer:
        ``"incremental"`` (default) memoizes L/F per uid and
        invalidates only dirty sets on graph/store changes;
        ``"naive"`` recomputes from scratch on every call (the
        reference implementation the ``scores`` verify oracle compares
        against); or pass a pre-built :class:`ArtifactScorer`.
    record_decisions:
        Keep a structured log of every admission decision in
        :attr:`decisions` — used by the verification oracles to compare
        policy behavior across scorer implementations.
    """

    def __init__(
        self,
        *,
        policy: Union[CachePolicy, str] = "couler",
        capacity_bytes: Optional[int] = 30 * 2**30,
        weights: Optional[ScoreWeights] = None,
        bandwidth: Optional[BandwidthModel] = None,
        distance: float = 1.0,
        metrics: Optional[MetricsRegistry] = None,
        scorer: Union[ArtifactScorer, str] = "incremental",
        record_decisions: bool = False,
    ) -> None:
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.store = ArtifactStore(capacity_bytes, metrics=metrics)
        self.metrics = self.store.metrics
        self.index = WorkflowGraphIndex()
        score_weights = weights or ScoreWeights()
        if isinstance(scorer, ArtifactScorer):
            self.scorer = scorer
        elif scorer == "incremental":
            self.scorer = IncrementalArtifactScorer(
                index=self.index,
                weights=score_weights,
                metrics=self.metrics,
            )
        elif scorer == "naive":
            self.scorer = ArtifactScorer(
                index=self.index,
                weights=score_weights,
                metrics=self.metrics,
            )
        else:
            raise ValueError(
                f"unknown scorer {scorer!r}; pass 'incremental', 'naive' "
                "or an ArtifactScorer instance"
            )
        if isinstance(self.scorer, IncrementalArtifactScorer):
            self.scorer.bind_store(self.store)
        self.bandwidth = bandwidth or BandwidthModel()
        self.distance = distance
        self.record_decisions = record_decisions
        #: Structured admission log (populated when ``record_decisions``).
        self.decisions: List[dict] = []
        self.store.add_listener(self._forward_store_event)

    def _forward_store_event(self, event: str, uid: str) -> None:
        if event == "evict":
            self.policy.on_evict(uid)

    def _decide(self, artifact: ArtifactSpec, now: float, event: str) -> bool:
        decision = CacheDecision(
            artifact=artifact,
            store=self.store,
            scorer=self.scorer,
            now=now,
            metrics=self.metrics,
        )
        if event == "read":
            admitted = self.policy.on_external_read(decision)
        else:
            admitted = self.policy.decide(decision)
        if self.record_decisions:
            self.decisions.append(
                {
                    "event": event,
                    "uid": artifact.uid,
                    "admitted": bool(admitted),
                    "evicted": list(decision.evicted),
                    "score": None if decision.score is None else repr(decision.score),
                }
            )
        return admitted

    # ------------------------------------------------- CacheManagerProtocol

    def register_workflow(self, workflow: ExecutableWorkflow) -> None:
        self.index.register(workflow)

    def fetch(self, artifact: ArtifactSpec, now: float = 0.0) -> Tuple[float, bool]:
        if self.store.contains(artifact.uid):
            self.store.record_hit(artifact.uid, now=now)
            return self.bandwidth.local_seconds(artifact.size_bytes), True
        self.store.record_miss()
        # Read-through admission (Alluxio semantics): a remote read
        # leaves the artifact locally, subject to the policy's
        # on_external_read hook, so later readers of the same data hit.
        self._decide(artifact, now, "read")
        return (
            self.bandwidth.remote_seconds(artifact.size_bytes, self.distance),
            False,
        )

    def on_artifact_produced(self, artifact: ArtifactSpec, now: float) -> None:
        self._decide(artifact, now, "produce")

    def contains(self, uid: str) -> bool:
        """Is this artifact currently resident?  Used by the operator's
        cached-step-skip optimization (reuse of intermediate results)."""
        return self.store.contains(uid)

    def on_step_finished(self, node_key: str) -> None:
        """Engine callback: a step completed, so its reads are now
        *past* usage and no longer contribute to F(u)."""
        self.index.mark_done(node_key)

    # ----------------------------------------------------------- reporting

    def hit_ratio(self) -> float:
        return self.store.stats.hit_ratio

    def report(self) -> dict:
        """Summary used by the experiment drivers."""
        stats = self.store.stats
        return {
            "policy": self.policy.name,
            "capacity_bytes": self.store.capacity_bytes,
            "used_bytes": self.store.used_bytes,
            "peak_bytes": self.store.peak_bytes,
            "entries": len(self.store),
            "hits": stats.hits,
            "misses": stats.misses,
            "hit_ratio": stats.hit_ratio,
            "evictions": stats.evictions,
            "insertions": stats.insertions,
            "rejected": stats.rejected,
        }
