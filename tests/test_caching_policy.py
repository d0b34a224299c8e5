"""Unit tests for cache policies, including Algorithm 2's mechanics."""

import pytest

from repro.caching.artifact_store import ArtifactStore
from repro.caching.policy import (
    CacheAllPolicy,
    CacheDecision,
    CoulerCachePolicy,
    FIFOCachePolicy,
    LRUCachePolicy,
    NoCachePolicy,
    make_policy,
)
from repro.caching.score import ArtifactScorer, WorkflowGraphIndex
from repro.engine.spec import ArtifactSpec, ExecutableStep, ExecutableWorkflow

def _artifact(uid: str, size: int = 10) -> ArtifactSpec:
    return ArtifactSpec(uid=uid, size_bytes=size)


def _decide(policy, artifact, store, scorer, now):
    return policy.decide(
        CacheDecision(artifact=artifact, store=store, scorer=scorer, now=now)
    )


def _scorer_with(consumer_counts: dict) -> ArtifactScorer:
    """A scorer whose artifacts have the given number of future readers."""
    wf = ExecutableWorkflow(name="g")
    artifacts = {uid: _artifact(uid) for uid in consumer_counts}
    for uid, artifact in artifacts.items():
        wf.add_step(
            ExecutableStep(name=f"make-{uid}", duration_s=100, outputs=[artifact])
        )
    for uid, count in consumer_counts.items():
        for index in range(count):
            wf.add_step(
                ExecutableStep(
                    name=f"use-{uid}-{index}",
                    duration_s=10,
                    dependencies=[f"make-{uid}"],
                    inputs=[artifacts[uid]],
                )
            )
    index = WorkflowGraphIndex()
    index.register(wf)
    return ArtifactScorer(index=index)


class TestRegistry:
    def test_make_policy(self):
        assert isinstance(make_policy("couler"), CoulerCachePolicy)
        assert isinstance(make_policy("lru"), LRUCachePolicy)
        with pytest.raises(ValueError):
            make_policy("magic")


class TestNoAndAll:
    def test_no_policy_never_caches(self):
        store = ArtifactStore(capacity_bytes=100)
        assert not _decide(NoCachePolicy(), _artifact("a"), store, None, 0.0)
        assert len(store) == 0

    def test_all_policy_caches_until_full_without_eviction(self):
        store = ArtifactStore(capacity_bytes=25)
        policy = CacheAllPolicy()
        assert _decide(policy, _artifact("a"), store, None, 0.0)
        assert _decide(policy, _artifact("b"), store, None, 0.0)
        assert not _decide(policy, _artifact("c"), store, None, 0.0)
        assert store.stats.evictions == 0


class TestFifoLru:
    def test_fifo_evicts_oldest(self):
        store = ArtifactStore(capacity_bytes=20)
        policy = FIFOCachePolicy()
        _decide(policy, _artifact("old"), store, None, 0.0)
        _decide(policy, _artifact("mid"), store, None, 1.0)
        _decide(policy, _artifact("new"), store, None, 2.0)
        assert not store.contains("old")
        assert store.contains("mid") and store.contains("new")

    def test_lru_evicts_least_recently_used(self):
        store = ArtifactStore(capacity_bytes=20)
        policy = LRUCachePolicy()
        _decide(policy, _artifact("a"), store, None, 0.0)
        _decide(policy, _artifact("b"), store, None, 1.0)
        store.record_hit("a", now=5.0)  # refresh a
        _decide(policy, _artifact("c"), store, None, 6.0)
        assert store.contains("a")
        assert not store.contains("b")


class TestCoulerPolicy:
    def test_requires_scorer(self):
        with pytest.raises(ValueError):
            _decide(CoulerCachePolicy(), _artifact("a"), ArtifactStore(100), None, 0.0)

    def test_admits_while_space_remains(self):
        scorer = _scorer_with({"a": 1})
        store = ArtifactStore(capacity_bytes=100)
        assert _decide(CoulerCachePolicy(), _artifact("a"), store, scorer, 0.0)

    def test_evicts_lower_scored_artifact_under_pressure(self):
        # "hot" has 5 future readers, "cold" has none.
        scorer = _scorer_with({"hot": 5, "cold": 0, "warm": 2})
        store = ArtifactStore(capacity_bytes=20)
        policy = CoulerCachePolicy()
        _decide(policy, _artifact("hot"), store, scorer, 0.0)
        _decide(policy, _artifact("cold"), store, scorer, 1.0)
        # warm beats cold, so cold is evicted to make room.
        assert _decide(policy, _artifact("warm"), store, scorer, 2.0)
        assert store.contains("hot") and store.contains("warm")
        assert not store.contains("cold")

    def test_rejects_newcomer_weaker_than_everything_cached(self):
        scorer = _scorer_with({"hot": 5, "warm": 3, "cold": 0})
        store = ArtifactStore(capacity_bytes=20)
        policy = CoulerCachePolicy()
        _decide(policy, _artifact("hot"), store, scorer, 0.0)
        _decide(policy, _artifact("warm"), store, scorer, 1.0)
        assert not _decide(policy, _artifact("cold"), store, scorer, 2.0)
        assert store.stats.rejected == 1
        assert store.contains("hot") and store.contains("warm")

    def test_oversized_artifact_rejected(self):
        scorer = _scorer_with({"big": 9})
        store = ArtifactStore(capacity_bytes=20)
        assert not _decide(
            CoulerCachePolicy(), _artifact("big", size=50), store, scorer, 0.0
        )

    def test_idempotent_on_already_cached(self):
        scorer = _scorer_with({"a": 1})
        store = ArtifactStore(capacity_bytes=100)
        policy = CoulerCachePolicy()
        _decide(policy, _artifact("a"), store, scorer, 0.0)
        assert _decide(policy, _artifact("a"), store, scorer, 1.0)
        assert len(store) == 1
