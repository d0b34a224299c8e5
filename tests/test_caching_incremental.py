"""Incremental scorer, CacheDecision policy API, and heap eviction tests."""

import pytest

from repro.caching.artifact_store import ArtifactStore
from repro.caching.manager import CacheManager
from repro.caching.policy import (
    CacheDecision,
    CachePolicy,
    CoulerCachePolicy,
)
from repro.caching.score import (
    ArtifactScorer,
    IncrementalArtifactScorer,
    ScoreWeights,
    WorkflowGraphIndex,
)
from repro.engine.spec import ArtifactSpec, ExecutableStep, ExecutableWorkflow
from repro.experiments import sql_nl_pipeline
from repro.k8s.resources import ResourceQuantity
from repro.obs.metrics import MetricsRegistry

GB = 2**30


def _artifact(uid: str, size: int = 10) -> ArtifactSpec:
    return ArtifactSpec(uid=uid, size_bytes=size)


def _consumer_workflow(consumer_counts: dict) -> ExecutableWorkflow:
    """make-<uid> steps plus the given number of use-<uid> readers."""
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
    return wf


def _pipeline_workflow(name: str = "w") -> ExecutableWorkflow:
    """load -> pre -> {t0, t1, t2} ; each t consumes pre's output."""
    wf = ExecutableWorkflow(name=name)
    loaded = ArtifactSpec(uid=f"{name}/load/out", size_bytes=2 * GB)
    pre = ArtifactSpec(uid=f"{name}/pre/out", size_bytes=GB)
    wf.add_step(
        ExecutableStep(
            name="load",
            duration_s=100,
            requests=ResourceQuantity(cpu=2),
            outputs=[loaded],
        )
    )
    wf.add_step(
        ExecutableStep(
            name="pre",
            duration_s=200,
            requests=ResourceQuantity(cpu=4),
            dependencies=["load"],
            inputs=[loaded],
            outputs=[pre],
        )
    )
    for index in range(3):
        ckpt = ArtifactSpec(uid=f"{name}/t{index}/ckpt", size_bytes=GB)
        wf.add_step(
            ExecutableStep(
                name=f"t{index}",
                duration_s=500,
                requests=ResourceQuantity(cpu=4),
                dependencies=["pre"],
                inputs=[pre],
                outputs=[ckpt],
            )
        )
    return wf


def _bound_pair(workflow, capacity=None):
    """(store, incremental scorer, naive scorer) over one shared index."""
    index = WorkflowGraphIndex()
    index.register(workflow)
    store = ArtifactStore(capacity_bytes=capacity)
    incremental = IncrementalArtifactScorer(index=index, metrics=MetricsRegistry())
    incremental.bind_store(store)
    naive = ArtifactScorer(index=index)
    return store, incremental, naive


class TestRegisterIdempotent:
    def test_reregistration_does_not_duplicate_consumers(self):
        index = WorkflowGraphIndex()
        wf = _pipeline_workflow()
        index.register(wf)
        before = {uid: list(nodes) for uid, nodes in index.consumers.items()}
        index.register(wf)  # operator restart / split+stitch resubmit
        assert index.consumers == before
        assert all(
            len(nodes) == len(set(nodes)) for nodes in index.node_outputs.values()
        )

    def test_reregistration_preserves_reuse_value(self):
        index = WorkflowGraphIndex()
        wf = _pipeline_workflow()
        index.register(wf)
        scorer = ArtifactScorer(index=index)
        before = scorer.reuse_value("w/pre/out")
        index.register(wf)
        assert scorer.reuse_value("w/pre/out") == before

    def test_reregistration_emits_no_change_event(self):
        index = WorkflowGraphIndex()
        wf = _pipeline_workflow()
        index.register(wf)
        events = []

        class Listener:
            def on_graph_changed(self, nodes, artifacts):
                events.append((set(nodes), set(artifacts)))

        index.add_listener(Listener())
        index.register(wf)
        assert events == []


class TestIncrementalEquivalence:
    def test_scores_match_naive_through_lifecycle(self):
        wf = _pipeline_workflow()
        store, incremental, naive = _bound_pair(wf)

        def assert_equal():
            for uid in sorted(incremental.index.artifacts):
                assert incremental.importance(uid, store.contains) == naive.importance(
                    uid, store.contains
                ), uid

        assert_equal()
        store.put("w/load/out", 2 * GB)  # cache-state flip truncates G_p
        assert_equal()
        incremental.index.mark_done("w/t0")  # done-transition drops F
        assert_equal()
        store.evict("w/load/out")
        assert_equal()
        incremental.index.register(_pipeline_workflow("v"))  # graph change
        assert_equal()

    def test_cache_flip_reaches_a_producer_a_rerun_replaced(self):
        # A: s1 -> s2 (makes x) -> s3 (reads x, makes u).  A split part
        # re-produces x, so the index names a new producer while A/s2
        # still lists x, and a walk for u still truncates at A/s2.
        x, u = _artifact("x"), _artifact("u")
        first = ExecutableWorkflow(name="A")
        first.add_step(ExecutableStep(name="s1", duration_s=15))
        first.add_step(
            ExecutableStep(name="s2", duration_s=15, dependencies=["s1"], outputs=[x])
        )
        first.add_step(
            ExecutableStep(
                name="s3",
                duration_s=30,
                dependencies=["s2"],
                inputs=[x],
                outputs=[u],
            )
        )
        store, incremental, naive = _bound_pair(first)
        store.put("x", 10)
        assert incremental.reconstruction_cost("u") == 30.0
        part = ExecutableWorkflow(name="B-part-0")
        part.add_step(ExecutableStep(name="s2", duration_s=15, outputs=[x]))
        incremental.index.register(part)
        assert incremental.index.producer["x"] == "B-part-0/s2"
        store.evict("x")
        assert naive.reconstruction_cost("u", store.contains) == 64.0
        assert incremental.reconstruction_cost("u") == 64.0

    def test_memo_hits_and_invalidation_counters(self):
        wf = _pipeline_workflow()
        store, incremental, _ = _bound_pair(wf)
        hits = incremental.metrics.counter("cache_score_memo_hits_total")
        incremental.importance("w/pre/out", store.contains)
        base = hits.total()
        incremental.importance("w/pre/out", store.contains)
        assert hits.total() > base  # second call served from the memo
        invalidations = incremental.metrics.counter(
            "cache_score_invalidations_total"
        )
        before = invalidations.total()
        incremental.index.mark_done("w/t0")
        assert invalidations.total() > before

    def test_untracked_predicate_falls_back_to_from_scratch(self):
        wf = _pipeline_workflow()
        store, incremental, naive = _bound_pair(wf)
        cached_upstream = lambda uid: uid == "w/load/out"  # noqa: E731
        assert incremental.reconstruction_cost(
            "w/t0/ckpt", cached_upstream
        ) == naive.reconstruction_cost("w/t0/ckpt", cached_upstream)

    @pytest.mark.parametrize(
        "weights",
        [
            ScoreWeights(use_reconstruction=False),
            ScoreWeights(use_reuse=False),
            ScoreWeights(use_cache_cost=False),
            ScoreWeights(alpha=0.1, beta=4.0, horizon=1),
        ],
    )
    def test_ablation_switches_under_incremental_path(self, weights):
        wf = _pipeline_workflow()
        index = WorkflowGraphIndex()
        index.register(wf)
        store = ArtifactStore(capacity_bytes=None)
        incremental = IncrementalArtifactScorer(index=index, weights=weights)
        incremental.bind_store(store)
        naive = ArtifactScorer(index=index, weights=weights)
        for uid in sorted(index.artifacts):
            assert incremental.importance(uid, store.contains) == naive.importance(
                uid, store.contains
            )


class TestEventsKeepTheMemosTheyCannotChange:
    """A store or done event at u's producer leaves u's memo standing
    unless the walk read what the event changed."""

    def test_a_store_event_at_the_producer_keeps_l(self):
        # pre lists its own output, so putting it touches only pre,
        # where the walk for w/pre/out starts and never truncates.
        store, incremental, naive = _bound_pair(_pipeline_workflow())
        computes = incremental.metrics.counter("cache_score_computes_total")
        hits = incremental.metrics.counter("cache_score_memo_hits_total")
        first = incremental.reconstruction_cost("w/pre/out")
        before = (computes.total(), hits.total())
        store.put("w/pre/out", GB)
        assert incremental.reconstruction_cost("w/pre/out") == first
        assert (computes.total(), hits.total()) == (before[0], before[1] + 1)
        assert naive.reconstruction_cost("w/pre/out", store.contains) == first

    def test_the_producer_finishing_keeps_f(self):
        _, incremental, naive = _bound_pair(_pipeline_workflow())
        computes = incremental.metrics.counter("cache_score_computes_total")
        hits = incremental.metrics.counter("cache_score_memo_hits_total")
        first = incremental.reuse_value("w/pre/out")
        before = (computes.total(), hits.total())
        incremental.index.mark_done("w/pre")
        assert incremental.reuse_value("w/pre/out") == first
        assert (computes.total(), hits.total()) == (before[0], before[1] + 1)
        assert naive.reuse_value("w/pre/out") == first

    def test_a_producer_that_reads_its_output_drops_f_when_done(self):
        # p reads and writes u, so p's done flag is a reader's done flag.
        u = _artifact("u")
        wf = ExecutableWorkflow(name="w")
        wf.add_step(ExecutableStep(name="p", duration_s=10, inputs=[u], outputs=[u]))
        wf.add_step(ExecutableStep(name="s", duration_s=10, dependencies=["p"]))
        _, incremental, naive = _bound_pair(wf)
        assert incremental.reuse_value("u") == naive.reuse_value("u") == 2.0
        incremental.index.mark_done("w/p")
        assert incremental.reuse_value("u") == naive.reuse_value("u") == 0.0


def _corpus_run(monkeypatch, scorer: str, **options):
    """``sql_nl_pipeline.run`` under ``scorer``: its decision log and fingerprint."""
    managers = []

    def recording_manager(**kwargs):
        managers.append(
            CacheManager(scorer=scorer, record_decisions=True, **kwargs)
        )
        return managers[-1]

    monkeypatch.setattr(sql_nl_pipeline, "CacheManager", recording_manager)
    result = sql_nl_pipeline.run(**options)
    (manager,) = managers
    return manager, result.fingerprint


@pytest.mark.parametrize(
    ("seed", "size", "cache_gb"),
    [(0, 24, 0.5), (1, 24, 0.5), (7, 24, 0.5), (32, 64, 2.0)],
)
def test_corpus_runs_decide_alike_under_both_scorers(monkeypatch, seed, size, cache_gb):
    # Reruns and split parts share artifacts across workflows, which a
    # one-workflow oracle run never does.
    runs = {
        scorer: _corpus_run(
            monkeypatch, scorer, seed=seed, size=size, cache_gb=cache_gb
        )
        for scorer in ("naive", "incremental")
    }
    naive, naive_fingerprint = runs["naive"]
    incremental, incremental_fingerprint = runs["incremental"]
    assert naive.report()["evictions"] > 0 and naive.report()["rejected"] > 0
    assert incremental.decisions == naive.decisions
    assert incremental_fingerprint == naive_fingerprint


class TestHeapEviction:
    def _decide(self, policy, artifact, store, scorer, now=0.0):
        decision = CacheDecision(
            artifact=artifact, store=store, scorer=scorer, now=now
        )
        admitted = policy.decide(decision)
        return admitted, decision

    def test_equal_scores_evict_in_stable_uid_order(self):
        # a1/a2/a0 are structurally identical (equal scores); "hot" has
        # readers.  Ties must break by ascending uid, matching the
        # from-scratch `(score, uid)` min.
        wf = _consumer_workflow({"a1": 0, "a2": 0, "a0": 0, "hot": 3})
        for scorer_kind in ("heap", "rescan"):
            index = WorkflowGraphIndex()
            index.register(wf)
            store = ArtifactStore(capacity_bytes=30)
            if scorer_kind == "heap":
                scorer = IncrementalArtifactScorer(index=index)
                scorer.bind_store(store)
            else:
                scorer = ArtifactScorer(index=index)
            policy = CoulerCachePolicy()
            for uid in ("a2", "a1", "a0"):  # insertion order != uid order
                self._decide(policy, _artifact(uid), store, scorer)
            admitted, decision = self._decide(
                policy, _artifact("hot", size=25), store, scorer
            )
            assert admitted, scorer_kind
            assert decision.evicted == ["a0", "a1", "a2"], scorer_kind

    def test_newcomer_rescored_after_each_eviction(self):
        # The paper recomputes every score after an eviction — including
        # the newcomer's, whose G_p truncation just changed.  Pin the
        # per-iteration recompute by counting importance() calls for the
        # newcomer during a multi-eviction admission.
        wf = _consumer_workflow({"a1": 0, "a2": 0, "hot": 3})

        class CountingScorer(ArtifactScorer):
            def __init__(self, index):
                super().__init__(index=index)
                self.calls = {}

            def importance(self, uid, is_cached=None):
                self.calls[uid] = self.calls.get(uid, 0) + 1
                return super().importance(uid, is_cached)

        index = WorkflowGraphIndex()
        index.register(wf)
        store = ArtifactStore(capacity_bytes=20)
        scorer = CountingScorer(index)
        policy = CoulerCachePolicy()
        for uid in ("a1", "a2"):
            self._decide(policy, _artifact(uid), store, scorer)
        admitted, decision = self._decide(
            policy, _artifact("hot", size=20), store, scorer
        )
        assert admitted and decision.evicted == ["a1", "a2"]
        assert scorer.calls["hot"] >= 2  # once per eviction iteration

    def test_heap_matches_rescan_decisions_under_churn(self):
        wf = _pipeline_workflow()
        runs = {}
        for scorer_mode in ("naive", "incremental"):
            manager = CacheManager(
                policy="couler",
                capacity_bytes=2 * GB + GB // 2,
                scorer=scorer_mode,
                record_decisions=True,
            )
            manager.register_workflow(wf)
            now = 0.0
            for step in wf.steps.values():
                now += 1.0
                for artifact in step.inputs:
                    manager.fetch(artifact, now=now)
                for artifact in step.outputs:
                    manager.on_artifact_produced(artifact, now=now)
                manager.on_step_finished(f"{wf.name}/{step.name}")
            runs[scorer_mode] = (
                manager.decisions,
                sorted(manager.store.uids()),
            )
        assert runs["naive"] == runs["incremental"]


class TestCacheDecisionAPI:
    def test_custom_policy_receives_decision_context(self):
        seen = []

        class Sampler(CachePolicy):
            name = "sampler"

            def decide(self, decision):
                seen.append(decision)
                decision.store.put(
                    decision.artifact.uid,
                    decision.artifact.size_bytes,
                    decision.artifact.kind,
                    decision.now,
                )
                decision.admitted = True
                return True

        manager = CacheManager(policy=Sampler(), capacity_bytes=100)
        manager.on_artifact_produced(_artifact("a"), now=3.0)
        assert manager.contains("a")
        assert len(seen) == 1 and seen[0].now == 3.0
        assert seen[0].metrics is manager.metrics

    def test_abstract_base_rejects_unimplemented(self):
        with pytest.raises(NotImplementedError):
            CachePolicy().decide(
                CacheDecision(
                    artifact=_artifact("a"), store=ArtifactStore(capacity_bytes=10)
                )
            )

    def test_on_external_read_defaults_to_decide(self):
        class Refuser(CachePolicy):
            name = "refuser"
            read_offers = 0

            def decide(self, decision):
                type(self).read_offers += 1
                decision.admitted = False
                return False

        manager = CacheManager(policy=Refuser(), capacity_bytes=100)
        _, hit = manager.fetch(_artifact("a"), now=0.0)
        assert not hit and Refuser.read_offers == 1

    def test_on_evict_hook_fires_for_policy(self):
        class Watcher(CachePolicy):
            name = "watcher"
            evicted = []

            def decide(self, decision):
                decision.admitted = False
                return False

            def on_evict(self, uid):
                type(self).evicted.append(uid)

        manager = CacheManager(policy=Watcher(), capacity_bytes=100)
        manager.store.put("x", 10)
        manager.store.evict("x")
        assert Watcher.evicted == ["x"]

    def test_decision_log_records_evictions_and_scores(self):
        wf = _consumer_workflow({"a1": 0, "hot": 3})
        manager = CacheManager(
            policy="couler", capacity_bytes=10, record_decisions=True
        )
        manager.register_workflow(wf)
        manager.on_artifact_produced(_artifact("a1"), now=0.0)
        manager.on_artifact_produced(_artifact("hot"), now=1.0)
        assert [d["uid"] for d in manager.decisions] == ["a1", "hot"]
        last = manager.decisions[-1]
        assert last["admitted"] and last["evicted"] == ["a1"]
        assert last["score"] is not None


class TestManagerScorerModes:
    def test_default_is_incremental_and_bound(self):
        manager = CacheManager(capacity_bytes=100)
        assert isinstance(manager.scorer, IncrementalArtifactScorer)
        assert manager.scorer.bound_store is manager.store

    def test_naive_mode_and_unknown_mode(self):
        manager = CacheManager(capacity_bytes=100, scorer="naive")
        assert type(manager.scorer) is ArtifactScorer
        with pytest.raises(ValueError):
            CacheManager(capacity_bytes=100, scorer="telepathic")

    def test_keyword_only_construction(self):
        with pytest.raises(TypeError):
            CacheManager("couler")  # noqa: B026 - positional use must fail

    def test_rebinding_scorer_to_second_store_rejected(self):
        scorer = IncrementalArtifactScorer(index=WorkflowGraphIndex())
        scorer.bind_store(ArtifactStore(capacity_bytes=10))
        with pytest.raises(ValueError):
            scorer.bind_store(ArtifactStore(capacity_bytes=10))
