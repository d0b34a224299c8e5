"""Tests for fairness policies, SLO lanes and checkpoint preemption."""

import pytest

from repro.engine.admission import AdmissionPipeline
from repro.engine.config import EngineConfig
from repro.engine.fairness import (
    DEFAULT_SLO_CLASS,
    LANES,
    SLO_BATCH,
    SLO_SERVING,
    DRFPolicy,
    FairnessError,
    FairnessPolicy,
    StrictPriorityPolicy,
    TenantShares,
    WeightedFairPolicy,
    make_fairness_policy,
)
from repro.engine.spec import ExecutableStep, ExecutableWorkflow
from repro.engine.status import StepStatus, WorkflowPhase
from repro.k8s.cluster import Cluster
from repro.k8s.resources import ResourceQuantity

GB = 2**30


def _wf(
    name: str,
    cpu: float = 8.0,
    gpu: int = 0,
    duration: float = 50.0,
    steps: int = 1,
):
    wf = ExecutableWorkflow(name=name)
    previous = None
    for index in range(steps):
        step = ExecutableStep(
            name=f"s{index}",
            duration_s=duration,
            requests=ResourceQuantity(cpu=cpu, memory=4 * GB, gpu=gpu),
        )
        if previous is not None:
            step.dependencies.append(previous)
        wf.add_step(step)
        previous = step.name
    return wf


def _cluster(name: str = "solo", cpu: float = 8.0, gpu: int = 0):
    return Cluster.uniform(
        name, 1, cpu_per_node=cpu, memory_per_node=32 * GB, gpu_per_node=gpu
    )


# ----------------------------------------------------------------- policies


class TestPolicyResolution:
    def test_none_is_strict_priority(self):
        assert isinstance(make_fairness_policy(None), StrictPriorityPolicy)

    def test_names_resolve(self):
        assert isinstance(
            make_fairness_policy("strict-priority"), StrictPriorityPolicy
        )
        assert isinstance(make_fairness_policy("weighted-fair"), WeightedFairPolicy)
        assert isinstance(make_fairness_policy("drf"), DRFPolicy)

    def test_instance_passes_through(self):
        policy = DRFPolicy()
        assert make_fairness_policy(policy) is policy

    def test_unknown_name_raises(self):
        with pytest.raises(FairnessError, match="unknown fairness policy"):
            make_fairness_policy("round-robin")

    def test_custom_policy_subclass_plugs_in(self):
        class Newest(FairnessPolicy):
            name = "newest-first"

            def key(self, admission, seq, *, now, aging_rate, shares):
                return (-seq,)

        pipeline = AdmissionPipeline([_cluster(cpu=64.0)], fairness=Newest())
        assert pipeline.fairness.name == "newest-first"


class TestTenantShares:
    def _shares(self, usage, weights=None):
        capacity = ResourceQuantity(cpu=100.0, memory=100 * GB, gpu=10)
        return TenantShares(capacity, lambda user: usage[user], weights)

    def test_fractions_and_dominant_share(self):
        shares = self._shares({"a": (50.0, 10 * GB, 0)})
        cpu_frac, mem_frac, gpu_frac = shares.fractions("a")
        assert cpu_frac == pytest.approx(0.5)
        assert mem_frac == pytest.approx(0.1)
        assert gpu_frac == 0.0
        assert shares.dominant_share("a") == pytest.approx(0.5)

    def test_gpu_can_be_the_dominant_resource(self):
        shares = self._shares({"a": (10.0, 10 * GB, 8)})
        assert shares.dominant_share("a") == pytest.approx(0.8)

    def test_weight_scales_entitlement(self):
        usage = {"heavy": (50.0, 0, 0), "light": (50.0, 0, 0)}
        shares = self._shares(usage, weights={"heavy": 2.0})
        assert shares.dominant_share("heavy") == pytest.approx(0.25)
        assert shares.dominant_share("light") == pytest.approx(0.5)

    def test_non_positive_weight_rejected(self):
        with pytest.raises(FairnessError, match="weight must be > 0"):
            self._shares({"a": (0.0, 0, 0)}, weights={"a": 0.0})

    def test_strict_priority_key_matches_seed_sort(self):
        """The compat policy's key is exactly the pre-fairness sort:
        (-aged priority, arrival sequence)."""
        from repro.engine.admission import AdmissionRecord

        policy = StrictPriorityPolicy()
        admission = AdmissionRecord(
            workflow_name="w", user="u", priority=3, arrival_time=10.0
        )
        shares = self._shares({"u": (0.0, 0, 0)})
        key = policy.key(admission, 7, now=30.0, aging_rate=0.5, shares=shares)
        assert key == (-(3 + 0.5 * 20.0), 7)


# ------------------------------------------------------------------- lanes


class TestLaneConfig:
    def test_default_lanes_shape(self):
        """Two fixed lanes, serving placed first; unlaned work is batch."""
        assert LANES == (SLO_SERVING, SLO_BATCH)
        assert DEFAULT_SLO_CLASS == SLO_BATCH

    def test_unknown_slo_class_rejected_at_submit(self):
        from repro.engine.admission import AdmissionError

        pipeline = AdmissionPipeline([_cluster()])
        with pytest.raises(AdmissionError, match="unknown slo_class"):
            pipeline.submit(_wf("a"), slo_class="platinum")

    def test_serving_lane_places_before_batch(self):
        """Same arrival instant, higher batch priority — the serving
        submission still places first because lanes order the pass."""
        pipeline = AdmissionPipeline([_cluster(cpu=8.0)])
        batch = pipeline.submit_at(
            0.0, _wf("batch", cpu=8.0), priority=9, slo_class=SLO_BATCH
        )
        serving = pipeline.submit_at(
            0.0, _wf("serving", cpu=8.0), priority=0, slo_class=SLO_SERVING
        )
        pipeline.run()
        assert serving.place_time == 0.0
        assert batch.place_time > 0.0


# ----------------------------------------------------- placement ordering


def _contended_pipeline(fairness, weights=None):
    """One 16-cpu cluster; tenant 'hog' holds 8 cpu, then 'hog' and
    'idle' each queue an 8-cpu workflow at the same instant with 'hog'
    carrying the higher priority."""
    pipeline = AdmissionPipeline(
        [_cluster(cpu=16.0)], fairness=fairness, tenant_weights=weights
    )
    pipeline.submit_at(0.0, _wf("held", cpu=8.0, duration=200.0), user="hog")
    hog = pipeline.submit_at(
        10.0, _wf("hog-next", cpu=8.0, duration=30.0), user="hog", priority=9
    )
    idle = pipeline.submit_at(
        10.0, _wf("idle-first", cpu=8.0, duration=30.0), user="idle", priority=0
    )
    return pipeline, hog, idle


class TestPlacementOrdering:
    def test_strict_priority_favours_the_priority_stream(self):
        pipeline, hog, idle = _contended_pipeline("strict-priority")
        pipeline.run()
        assert hog.place_time < idle.place_time

    def test_weighted_fair_favours_the_low_share_tenant(self):
        pipeline, hog, idle = _contended_pipeline("weighted-fair")
        pipeline.run()
        assert idle.place_time < hog.place_time

    def test_drf_favours_the_low_share_tenant(self):
        pipeline, hog, idle = _contended_pipeline("drf")
        pipeline.run()
        assert idle.place_time < hog.place_time

    def test_weights_restore_the_hog_entitlement(self):
        """With a large enough fairness weight the heavy tenant's
        *normalized* share drops below a lightly-loaded peer's, and
        priority decides again."""
        pipeline = AdmissionPipeline(
            [_cluster(cpu=16.0)],
            fairness="weighted-fair",
            tenant_weights={"hog": 1000.0},
        )
        pipeline.submit_at(0.0, _wf("held", cpu=8.0, duration=200.0), user="hog")
        pipeline.submit_at(0.0, _wf("light", cpu=4.0, duration=200.0), user="idle")
        hog = pipeline.submit_at(
            10.0, _wf("hog-next", cpu=4.0, duration=30.0), user="hog", priority=9
        )
        idle = pipeline.submit_at(
            10.0, _wf("idle-next", cpu=4.0, duration=30.0), user="idle", priority=0
        )
        pipeline.run()
        # 4 cpu free at t=10, so exactly one of the two can place first.
        assert hog.place_time < idle.place_time

    def test_drf_compares_dominant_resources(self):
        """A GPU-saturating tenant is over-share on DRF even when its
        CPU footprint is tiny."""
        cluster = _cluster(cpu=64.0, gpu=4)
        pipeline = AdmissionPipeline([cluster], fairness="drf")
        # gpu-tenant holds all 4 GPUs but barely any CPU.
        pipeline.submit_at(
            0.0, _wf("gpu-held", cpu=2.0, gpu=4, duration=200.0), user="gputeam"
        )
        # cpu-tenant holds 32 of 64 cpus (dominant share 0.5 < 1.0).
        pipeline.submit_at(
            0.0, _wf("cpu-held", cpu=32.0, duration=200.0), user="cputeam"
        )
        late_gpu = pipeline.submit_at(
            10.0, _wf("gpu-next", cpu=2.0, duration=30.0), user="gputeam", priority=9
        )
        late_cpu = pipeline.submit_at(
            10.0, _wf("cpu-next", cpu=2.0, duration=30.0), user="cputeam", priority=0
        )
        pipeline.run()
        # Both fit immediately (plenty of cpu free); ordering happens
        # within one pass, visible through the dispatch history.
        placed_names = [a.workflow_name for a in pipeline.placed]
        assert placed_names.index("cpu-next") < placed_names.index("gpu-next")
        assert late_cpu.admitted and late_gpu.admitted


# ------------------------------------------------- starvation gap metric


class TestStarvationGap:
    def test_pending_waits_count_toward_the_gap(self):
        """Regression: a workflow still waiting in the queue used to be
        invisible to starvation_gap() until it placed."""
        pipeline = AdmissionPipeline([_cluster(cpu=8.0)])
        pipeline.submit_at(0.0, _wf("blocker", cpu=8.0, duration=500.0))
        pipeline.submit_at(10.0, _wf("starving", cpu=8.0))
        pipeline.run(until=300.0)
        # Nothing but the blocker has placed; the starving workflow has
        # waited 290 s and the gap must say so.
        assert pipeline.pending_workflows() == ["starving"]
        assert pipeline.starvation_gap() == pytest.approx(290.0)

    def test_gap_still_reports_placed_latencies(self):
        pipeline = AdmissionPipeline([_cluster(cpu=8.0)])
        pipeline.submit_at(0.0, _wf("a", cpu=8.0, duration=50.0))
        pipeline.submit_at(0.0, _wf("b", cpu=8.0, duration=50.0))
        pipeline.run()
        assert pipeline.starvation_gap() == pytest.approx(50.0)

    def test_per_tenant_gaps(self):
        pipeline = AdmissionPipeline([_cluster(cpu=8.0)])
        pipeline.submit_at(0.0, _wf("a", cpu=8.0, duration=50.0), user="t0")
        pipeline.submit_at(0.0, _wf("b", cpu=8.0, duration=50.0), user="t1")
        pipeline.run()
        gaps = pipeline.tenant_starvation_gaps()
        assert gaps["t0"] == pytest.approx(0.0)
        assert gaps["t1"] == pytest.approx(50.0)
        latencies = pipeline.tenant_queue_latencies()
        assert latencies["t1"] == [pytest.approx(50.0)]


# ------------------------------------------------------------- preemption


def _preemption_pipeline(seed: int = 0):
    """Two clusters; the batch tenant saturates both, then a serving
    submission arrives with nowhere to go."""
    clusters = [_cluster(name="a", cpu=8.0), _cluster(name="b", cpu=8.0)]
    pipeline = AdmissionPipeline(
        clusters, seed=seed, fairness="drf", preemption=True
    )
    # Four sequential 2-cpu steps: peak demand 8 cpu (one full cluster),
    # 400 s of work — long enough to still be running at t=250.
    victims = [
        pipeline.submit_at(
            0.0,
            _wf(f"batch-{index}", cpu=2.0, duration=100.0, steps=4),
            user="batcher",
            slo_class=SLO_BATCH,
        )
        for index in range(2)
    ]
    serving = pipeline.submit_at(
        250.0,
        _wf("latency-job", cpu=8.0, duration=20.0),
        user="frontend",
        slo_class=SLO_SERVING,
    )
    return pipeline, victims, serving


class TestPreemption:
    def test_serving_preempts_over_share_batch(self):
        pipeline, victims, serving = _preemption_pipeline()
        pipeline.run()
        events = pipeline.metrics.get("admission_events_total")
        assert events.value(event="preemption") >= 1
        preempted = [v for v in victims if v.preemptions > 0]
        assert preempted
        # The serving job ran long before the batch work's natural end.
        assert serving.place_time == pytest.approx(250.0)
        assert serving.record.phase == WorkflowPhase.SUCCEEDED

    def test_preempted_workflow_resumes_and_succeeds(self):
        pipeline, victims, serving = _preemption_pipeline()
        pipeline.run()
        for victim in victims:
            assert victim.record.phase == WorkflowPhase.SUCCEEDED
            assert all(
                step.status in (StepStatus.SUCCEEDED, StepStatus.CACHED)
                for step in victim.record.steps.values()
            )

    def test_resume_preserves_completed_steps(self):
        """Checkpoint/restart semantics: steps finished before the
        eviction are not re-executed after resume."""
        pipeline, victims, serving = _preemption_pipeline()
        pipeline.run()
        victim = next(v for v in victims if v.preemptions > 0)
        # Eviction hit at t=250 with 100 s steps: at least two steps
        # had finished, and their records survive with 1 attempt each.
        done_before = [
            step
            for step in victim.record.steps.values()
            if step.finish_time is not None and step.finish_time <= 250.0
        ]
        assert len(done_before) >= 2
        assert all(step.attempts == 1 for step in done_before)

    def test_preemption_is_deterministic(self):
        def history(seed):
            pipeline, _, _ = _preemption_pipeline(seed)
            pipeline.run()
            return (
                [(a.workflow_name, a.place_time) for a in pipeline.placed],
                pipeline.clock.now,
            )

        assert history(7) == history(7)

    def test_preemption_off_by_default(self):
        clusters = [_cluster(name="a", cpu=8.0)]
        pipeline = AdmissionPipeline(clusters, fairness="drf")
        pipeline.submit_at(
            0.0, _wf("batch", cpu=8.0, duration=400.0), user="b", slo_class=SLO_BATCH
        )
        serving = pipeline.submit_at(
            10.0, _wf("serve", cpu=8.0), user="f", slo_class=SLO_SERVING
        )
        pipeline.run()
        events = pipeline.metrics.get("admission_events_total")
        assert events.value(event="preemption") == 0
        assert serving.place_time == pytest.approx(400.0)

    def test_max_preemptions_caps_evictions_per_workflow(self):
        pipeline, victims, serving = _preemption_pipeline()
        pipeline.max_preemptions = 0
        pipeline.run()
        assert all(v.preemptions == 0 for v in victims)
        events = pipeline.metrics.get("admission_events_total")
        assert events.value(event="preemption") == 0

    def test_same_tenant_is_never_preempted_for_itself(self):
        clusters = [_cluster(name="a", cpu=8.0)]
        pipeline = AdmissionPipeline(clusters, fairness="drf", preemption=True)
        pipeline.submit_at(
            0.0, _wf("mine-1", cpu=8.0, duration=300.0), user="me", slo_class=SLO_BATCH
        )
        pipeline.submit_at(
            10.0, _wf("mine-2", cpu=8.0), user="me", slo_class=SLO_SERVING
        )
        pipeline.run()
        events = pipeline.metrics.get("admission_events_total")
        assert events.value(event="preemption") == 0

    def test_protect_gpu_headroom_does_not_block_preemption(self):
        """Regression: the victim search counted GPU-cluster headroom that
        ``protect_gpu`` never gives CPU-only work, so it saw room for the
        serving workflow, evicted nothing, and the workflow waited for the
        batch work to end."""
        clusters = [
            _cluster(name="gpu", cpu=16.0, gpu=4),
            _cluster(name="cpu", cpu=8.0),
        ]
        pipeline = AdmissionPipeline(
            clusters, fairness="drf", preemption=True, protect_gpu=True
        )
        hogs = [
            pipeline.submit_at(
                0.0,
                _wf(f"hog-{index}", cpu=4.0, duration=1000.0),
                user="hog",
                slo_class=SLO_BATCH,
            )
            for index in range(2)
        ]
        serving = pipeline.submit_at(
            10.0, _wf("svc", cpu=4.0, duration=10.0), user="svc", slo_class=SLO_SERVING
        )
        pipeline.run()
        assert [hog.cluster_name for hog in hogs] == ["cpu", "cpu"]
        events = pipeline.metrics.get("admission_events_total")
        assert events.value(event="preemption") == 1
        assert serving.place_time == pytest.approx(10.0)
        assert serving.cluster_name == "cpu"
        assert sum(hog.preemptions for hog in hogs) == 1
        assert all(hog.record.phase == WorkflowPhase.SUCCEEDED for hog in hogs)


def _thrash_pipeline(cooldown: float, seed: int = 0):
    """One cluster, one long batch victim, two serving bursts.

    The second burst arrives shortly after the victim was restored from
    its first eviction — inside the cooldown window.  Without the
    cooldown the victim is evicted again before making any progress
    (eviction thrash); with it, the burst waits.
    """
    pipeline = AdmissionPipeline(
        [_cluster(name="a", cpu=8.0)],
        seed=seed,
        fairness="drf",
        preemption=True,
        max_preemptions=4,
        preempt_cooldown=cooldown,
    )
    victim = pipeline.submit_at(
        0.0,
        _wf("batch", cpu=2.0, duration=100.0, steps=4),
        user="batcher",
        slo_class=SLO_BATCH,
    )
    bursts = [
        pipeline.submit_at(
            at, _wf(f"serve-{at:.0f}", cpu=8.0, duration=20.0),
            user="frontend", slo_class=SLO_SERVING,
        )
        for at in (50.0, 90.0)
    ]
    return pipeline, victim, bursts


class TestPreemptCooldown:
    def test_restored_at_stamped_on_resume(self):
        pipeline, victim, _ = _thrash_pipeline(cooldown=60.0)
        pipeline.run()
        assert victim.preemptions >= 1
        assert victim.restored_at is not None

    def test_cooldown_blocks_re_preemption_thrash(self):
        # Without a cooldown the just-restored victim is evicted again
        # by the second burst...
        pipeline, victim, bursts = _thrash_pipeline(cooldown=0.0)
        pipeline.run()
        assert victim.preemptions >= 2
        # ...with the cooldown it keeps running and the burst waits.
        pipeline, victim, bursts = _thrash_pipeline(cooldown=60.0)
        pipeline.run()
        assert victim.preemptions == 1
        assert victim.record.phase == WorkflowPhase.SUCCEEDED
        assert all(b.record.phase == WorkflowPhase.SUCCEEDED for b in bursts)

    def test_cooldown_expires(self):
        # The second burst lands >= cooldown after the restore, so the
        # victim is fair game again: the window protects progress, it
        # does not grant immunity.
        pipeline, victim, _ = _thrash_pipeline(cooldown=10.0)
        pipeline.run()
        assert victim.preemptions >= 2

    def test_negative_cooldown_rejected(self):
        with pytest.raises(ValueError):
            AdmissionPipeline([_cluster()], preempt_cooldown=-1.0)


# -------------------------------------------------------------- v1 facade


class TestFacade:
    def test_couler_exports_fairness_surface(self):
        from repro import couler

        assert couler.SLO_SERVING == "serving"
        assert callable(couler.make_fairness_policy)
        assert "FairnessPolicy" in couler.__all__

    def test_admission_submitter_fairness_kwargs(self):
        from repro.core.submitter import AdmissionSubmitter
        from repro.ir import IRNode, OpKind, WorkflowIR

        ir = WorkflowIR(name="probe")
        ir.add_node(IRNode(name="only", op=OpKind.CONTAINER, image="img"))
        submitter = AdmissionSubmitter(
            config=EngineConfig(fairness="drf", slo_class="serving")
        )
        record = submitter.submit(ir)
        assert record.phase == WorkflowPhase.SUCCEEDED
        assert submitter.last_admission.slo_class == "serving"
        assert submitter.pipeline.fairness.name == "drf"

    def test_submitter_rejects_pipeline_plus_fairness(self):
        from repro.core.submitter import AdmissionSubmitter, default_multicluster

        with pytest.raises(ValueError, match="fairness"):
            AdmissionSubmitter(
                pipeline=default_multicluster(), config=EngineConfig(fairness="drf")
            )
