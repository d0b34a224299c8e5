"""Tests for the event-driven admission & scheduling pipeline."""

import collections
from dataclasses import fields

import pytest

from repro.control.policy import PolicyConfig
from repro.engine.admission import AdmissionError, AdmissionPipeline, AdmissionRecord
from repro.engine.config import EngineConfig
from repro.engine.journal import Journal
from repro.engine.queue import MultiClusterQueue, QueuedWorkflow, UserQuota
from repro.engine.spec import ExecutableStep, ExecutableWorkflow
from repro.engine.status import WorkflowPhase
from repro.k8s.cluster import Cluster
from repro.k8s.resources import ResourceQuantity
from repro.verify.generator import generate_ir
from repro.verify.oracles import DETERMINISTIC_CONFIG, _co_tenants, _contended_run
from repro.workloads.fleetgen import build_fleet, build_pipeline, submit_fleet

GB = 2**30


def _wf(name: str, cpu: float = 8.0, gpu: int = 0, duration: float = 50.0):
    wf = ExecutableWorkflow(name=name)
    wf.add_step(
        ExecutableStep(
            name="work",
            duration_s=duration,
            requests=ResourceQuantity(cpu=cpu, memory=4 * GB, gpu=gpu),
        )
    )
    return wf


def _small_cluster(cpu: float = 8.0):
    return Cluster.uniform("solo", 1, cpu_per_node=cpu, memory_per_node=32 * GB)


class TestArrivals:
    def test_past_arrival_rejected(self):
        pipeline = AdmissionPipeline([_small_cluster()])
        pipeline.submit_at(100.0, _wf("a"))
        pipeline.run()
        assert pipeline.clock.now >= 100.0
        with pytest.raises(AdmissionError):
            pipeline.submit_at(pipeline.clock.now - 1.0, _wf("late"))

    def test_arrival_trace_runs_open_loop(self):
        pipeline = AdmissionPipeline([_small_cluster(cpu=64.0)])
        handles = [
            pipeline.submit_at(float(i) * 10.0, _wf(f"wf{i}", cpu=2.0)) for i in range(5)
        ]
        pipeline.run()
        assert [h.arrival_time for h in handles] == [0.0, 10.0, 20.0, 30.0, 40.0]
        assert all(h.record.phase == WorkflowPhase.SUCCEEDED for h in handles)
        # Uncontended fleet: everything places at its own arrival instant.
        assert all(h.queue_latency == 0.0 for h in handles)


class TestIncrementalPlacement:
    def test_completion_triggers_replacement(self):
        """A capacity-deferred workflow starts the moment its blocker ends.

        One 8-cpu cluster, two 8-cpu workflows arriving together: the
        second must wait for the first's completion event — not for a
        retry round or the end of the batch.
        """
        pipeline = AdmissionPipeline([_small_cluster(cpu=8.0)])
        first = pipeline.submit_at(0.0, _wf("first", cpu=8.0, duration=100.0))
        second = pipeline.submit_at(0.0, _wf("second", cpu=8.0, duration=100.0))
        pipeline.run()
        assert first.record.phase == WorkflowPhase.SUCCEEDED
        assert second.record.phase == WorkflowPhase.SUCCEEDED
        assert second.deferrals >= 1
        assert second.place_time == first.finish_time
        assert second.queue_latency == pytest.approx(first.finish_time)

    def test_quota_deferred_replacement_ordering(self):
        """Quota-deferred workflows re-place in priority order on release."""
        quotas = {"alice": UserQuota(user="alice", cpu_limit=8, memory_limit=64 * GB)}
        pipeline = AdmissionPipeline(
            [_small_cluster(cpu=64.0)], quotas=quotas
        )
        running = pipeline.submit_at(0.0, _wf("running", cpu=8.0, duration=60.0), user="alice")
        low = pipeline.submit_at(1.0, _wf("low", cpu=8.0), user="alice", priority=1)
        high = pipeline.submit_at(2.0, _wf("high", cpu=8.0), user="alice", priority=9)
        pipeline.run()
        # Both queued behind alice's 8-cpu grant while "running" held it;
        # on its completion the higher-priority workflow goes first even
        # though it arrived later.
        assert low.deferrals >= 1 and high.deferrals >= 1
        assert running.finish_time == high.place_time
        assert high.place_time < low.place_time
        names = [a.workflow_name for a in pipeline.placed]
        assert names == ["running", "high", "low"]
        assert pipeline.queue.quotas["alice"].cpu_used == 0.0

    def test_starvation_gap_tracks_worst_wait(self):
        pipeline = AdmissionPipeline([_small_cluster(cpu=8.0)])
        pipeline.submit_at(0.0, _wf("a", cpu=8.0, duration=100.0))
        pipeline.submit_at(0.0, _wf("b", cpu=8.0, duration=100.0))
        pipeline.run()
        assert pipeline.starvation_gap() == pytest.approx(100.0)


class TestPriorityAging:
    def _starved_run(self, aging_rate: float) -> float:
        """A low-priority arrival vs a steady high-priority stream.

        Cluster fits exactly one workflow; a fresh priority-5 workflow
        arrives every time the running one finishes, so without aging
        the priority-1 tenant waits out the entire stream.  Aging only
        matters against *later* arrivals — the waiter has accumulated
        age they haven't.  Returns the low workflow's wait.
        """
        pipeline = AdmissionPipeline(
            [_small_cluster(cpu=8.0)], aging_rate=aging_rate
        )
        low = pipeline.submit_at(0.0, _wf("low", cpu=8.0, duration=50.0), priority=1)
        for index in range(10):
            pipeline.submit_at(
                float(index) * 50.0,
                _wf(f"high{index}", cpu=8.0, duration=50.0),
                priority=5,
            )
        pipeline.run()
        assert low.record.phase == WorkflowPhase.SUCCEEDED
        return low.queue_latency

    def test_aging_bounds_starvation(self):
        starved_wait = self._starved_run(aging_rate=0.0)
        aged_wait = self._starved_run(aging_rate=0.1)
        # Without aging the low-priority tenant drains last (10 x 50s
        # of higher-priority work ahead of it); with 0.1 pt/s aging its
        # 50s of queue age outbids the 4-point priority gap at the
        # first completion.
        assert starved_wait == pytest.approx(500.0)
        assert aged_wait == pytest.approx(50.0)

    def test_effective_priority_growth(self):
        pipeline = AdmissionPipeline([_small_cluster()], aging_rate=0.5)
        record = pipeline.submit_at(10.0, _wf("w"))
        assert record.effective_priority(10.0, 0.5) == 0.0
        assert record.effective_priority(30.0, 0.5) == pytest.approx(10.0)


class TestAdmissionControl:
    def test_requires_clusters(self):
        with pytest.raises(ValueError, match="at least one cluster"):
            AdmissionPipeline([])

    def test_backpressure_sheds_when_queue_full(self):
        pipeline = AdmissionPipeline([_small_cluster(cpu=8.0)], max_pending=2)
        handles = [
            pipeline.submit_at(0.0, _wf(f"wf{i}", cpu=8.0, duration=1000.0))
            for i in range(5)
        ]
        pipeline.run(until=1.0)
        rejected = [h for h in handles if h.admitted is False]
        # All five arrive in the same instant, before placement fires:
        # two fill the bounded queue, the remaining three are shed.
        assert len(rejected) == 3
        assert all("queue full" in h.reject_reason for h in rejected)
        assert pipeline.metrics.counter("admission_rejected_total").value(
            reason="queue-full"
        ) == 3

    def test_infeasible_gpu_demand_rejected_at_arrival(self):
        pipeline = AdmissionPipeline([_small_cluster()])
        handle = pipeline.submit_at(0.0, _wf("gpu-wf", gpu=2))
        pipeline.run()
        assert handle.admitted is False
        assert "demand" in handle.reject_reason

    def test_oversized_demand_rejected_not_deadlocked(self):
        pipeline = AdmissionPipeline([_small_cluster(cpu=8.0)])
        giant = pipeline.submit_at(0.0, _wf("giant", cpu=100.0))
        normal = pipeline.submit_at(0.0, _wf("normal", cpu=4.0))
        makespan = pipeline.run()
        # The impossible workflow is shed instead of parking the queue.
        assert giant.admitted is False
        assert normal.record.phase == WorkflowPhase.SUCCEEDED
        assert makespan < 10_000

    def test_quota_grant_too_small_rejected(self):
        quotas = {"bob": UserQuota(user="bob", cpu_limit=2, memory_limit=64 * GB)}
        pipeline = AdmissionPipeline([_small_cluster(cpu=64.0)], quotas=quotas)
        handle = pipeline.submit_at(0.0, _wf("big", cpu=8.0), user="bob")
        pipeline.run()
        assert handle.admitted is False
        assert "quota grant" in handle.reject_reason


class TestStepsFitNodes:
    """A workflow is placed only where each of its steps fits a node.

    Peak demand against a cluster's total capacity let through a step
    larger than every node; its pod then could never bind, and the
    scheduler's error aborted the whole run."""

    def test_step_larger_than_every_node_rejected_at_arrival(self):
        cluster = Cluster.uniform("c", 4, cpu_per_node=16, memory_per_node=32 * GB)
        pipeline = AdmissionPipeline([cluster])
        big = pipeline.submit_at(0.0, _wf("big", cpu=20.0))
        normal = pipeline.submit_at(0.0, _wf("normal", cpu=4.0))
        pipeline.run()
        assert big.admitted is False
        assert "one node" in big.reject_reason
        assert pipeline.metrics.counter("admission_rejected_total").value(
            reason="infeasible"
        ) == 1
        assert normal.record.phase == WorkflowPhase.SUCCEEDED

    def test_step_goes_to_the_cluster_whose_node_fits_it(self):
        small = Cluster.uniform("small", 8, cpu_per_node=16, memory_per_node=32 * GB)
        big = Cluster.uniform("big", 1, cpu_per_node=32, memory_per_node=32 * GB)
        pipeline = AdmissionPipeline([small, big])
        first = pipeline.submit_at(0.0, _wf("ten", cpu=10.0))
        second = pipeline.submit_at(0.0, _wf("twenty", cpu=20.0))
        pipeline.run()
        # Peak demand against total capacity scored "small" the better
        # host for the second: 128 CPU free against big's 22.
        assert second.cluster_name == "big"
        assert first.record.phase == WorkflowPhase.SUCCEEDED
        assert second.record.phase == WorkflowPhase.SUCCEEDED

    def test_eligibility_needs_every_step_on_one_node(self):
        small = Cluster.uniform("small", 8, cpu_per_node=16, memory_per_node=32 * GB)
        big = Cluster.uniform("big", 1, cpu_per_node=32, memory_per_node=32 * GB)
        queue = MultiClusterQueue(clusters=[small, big])
        item = QueuedWorkflow(_wf("twenty", cpu=20.0), user="u")
        assert not queue.eligible(item, small)
        assert queue.eligible(item, big)
        _, cluster = queue.try_place(item)
        assert cluster is big


class TestObservability:
    def test_every_decision_counted(self):
        pipeline = AdmissionPipeline([_small_cluster(cpu=8.0)])
        for i in range(3):
            pipeline.submit_at(0.0, _wf(f"wf{i}", cpu=8.0, duration=10.0))
        pipeline.submit_at(0.0, _wf("gpu-wf", gpu=2))
        pipeline.run()
        events = {
            dict(labels)["event"]: value
            for labels, value in pipeline.metrics.counter(
                "admission_events_total"
            ).series().items()
        }
        assert events["arrival"] == 4
        assert events["admit"] == 3
        assert events["rejection"] == 1
        assert events["placement"] == 3
        assert events["completion"] == 3
        # Serial drain on a one-slot cluster: wf1 and wf2 defer at the
        # first pass, wf2 defers once more before its turn.
        assert events["deferral"] == 3
        assert events["pass"] == 3

    def test_determinism_same_seed(self):
        def fingerprints(seed):
            pipeline = AdmissionPipeline(
                [_small_cluster(cpu=16.0)], seed=seed, aging_rate=0.05
            )
            for i in range(8):
                pipeline.submit_at(float(i) * 5.0, _wf(f"wf{i}", cpu=8.0), priority=i % 3)
            pipeline.run()
            return [
                (a.workflow_name, a.cluster_name, a.place_time, a.finish_time, a.deferrals)
                for a in pipeline.placed
            ]

        assert fingerprints(7) == fingerprints(7)


class TestDeferralsByPassEpochs:
    """An independent deferral reference: every placement pass is watched
    from outside, through ``pending_workflows()`` before and after it."""

    @pytest.mark.parametrize("engine", ["fast", "naive"])
    def test_deferrals_are_the_passes_each_workflow_sat_through(
        self, monkeypatch, engine
    ):
        """A workflow pending before and after a pass deferred in it,
        unless the pass placed it and then preempted it; the deferral
        counter is the sum over workflows.

        The fleet is the ``engine_fast`` oracle's contended one under DRF
        and preemption, with per-tenant grants of 16 of its node's 24
        CPUs, so a tenant's second workflow waits on quota (the fast path
        parks it; the naive path never parks) and victims re-queue.
        """
        sat: collections.Counter = collections.Counter()
        parked_on_quota = []
        original = AdmissionPipeline._placement_pass

        def watched(pipeline):
            before = set(pipeline.pending_workflows())
            preemptions = {a.workflow_name: a.preemptions for a in pipeline.records}
            original(pipeline)
            waited = before & set(pipeline.pending_workflows())
            sat.update(
                admission.workflow_name
                for admission in pipeline.records
                if admission.workflow_name in waited
                and admission.preemptions == preemptions[admission.workflow_name]
            )
            parked_on_quota.append(any(pipeline._parked_user.values()))

        monkeypatch.setattr(AdmissionPipeline, "_placement_pass", watched)
        quotas = {
            user: UserQuota(user=user, cpu_limit=16.0, memory_limit=12 * GB, gpu_limit=4)
            for user in ("t0", "t1", "t2", "t3")
        }
        fleet = _co_tenants(generate_ir(7, DETERMINISTIC_CONFIG), 7, 301, 7)
        pipeline, admissions = _contended_run(
            fleet,
            7,
            "engine-verify",
            fairness="drf",
            preemption=True,
            fast=engine == "fast",
            quotas=quotas,
        )
        events = pipeline.metrics.get("admission_events_total")
        assert events.value(event="preemption") >= 1
        assert any(parked_on_quota) == (engine == "fast")
        assert all(admission.place_time is not None for _, admission in admissions)
        assert [admission.deferrals for _, admission in admissions] == [
            sat[admission.workflow_name] for _, admission in admissions
        ]
        assert events.value(event="deferral") == sum(sat.values()) > 0


class TestSimultaneousArrivals:
    """A batch is a set of same-instant arrivals: one coalesced pass
    places it in priority order, routes GPU work to GPU capacity and
    spreads the rest across clusters."""

    def _clusters(self):
        return [
            Cluster.uniform("gpu", 2, cpu_per_node=32, memory_per_node=128 * GB, gpu_per_node=4),
            Cluster.uniform("cpu-a", 2, cpu_per_node=32, memory_per_node=128 * GB),
            Cluster.uniform("cpu-b", 2, cpu_per_node=32, memory_per_node=128 * GB),
        ]

    def test_priority_order_of_simultaneous_arrivals(self):
        pipeline = AdmissionPipeline(self._clusters())
        expected = []
        for index in range(9):
            priority = (index * 7) % 5
            pipeline.submit(_wf(f"wf{index}"), priority=priority)
            expected.append((f"wf{index}", priority))
        pipeline.run()
        # Strict priority order (ties by submission order), and every
        # workflow completes.
        expected.sort(key=lambda pair: -pair[1])
        assert [a.workflow_name for a in pipeline.placed] == [
            name for name, _ in expected
        ]
        assert all(
            a.record.phase == WorkflowPhase.SUCCEEDED for a in pipeline.placed
        )

    def test_priority_served_first(self):
        pipeline = AdmissionPipeline(self._clusters())
        pipeline.submit(_wf("low"), priority=1)
        pipeline.submit(_wf("high"), priority=9)
        pipeline.run()
        assert pipeline.placed[0].workflow_name == "high"

    def test_gpu_workflows_only_on_gpu_cluster(self):
        pipeline = AdmissionPipeline(self._clusters())
        trainer = pipeline.submit(_wf("trainer", gpu=2))
        pipeline.submit(_wf("batch"))
        pipeline.run()
        assert trainer.cluster_name == "gpu"

    def test_load_spreads_across_clusters(self):
        pipeline = AdmissionPipeline(self._clusters())
        for index in range(12):
            pipeline.submit(_wf(f"wf{index}", cpu=16.0))
        pipeline.run()
        counts = {name: 0 for name in pipeline.operators}
        for admission in pipeline.placed:
            counts[admission.cluster_name] += 1
        # No single cluster hoards the fleet: each placement sees the
        # reservations left by earlier ones.
        assert sum(counts.values()) == 12
        assert max(counts.values()) <= 3 * max(1, min(counts.values()))


class TestDuplicateNames:
    """The queue's placements, the pipeline's running set and each
    operator's run state are keyed by workflow name, so a second copy
    arriving while the first is pending or running is rejected."""

    def test_second_copy_on_another_cluster_rejected_without_leaks(self):
        spec = build_fleet(3, seed=1)
        workflow = spec.arrivals[0][1]
        journal = Journal()
        pipeline = AdmissionPipeline(spec.clusters, journal=journal)
        first = pipeline.submit_at(0.0, workflow, user="t0")
        second = pipeline.submit_at(0.0, workflow, user="t1")
        pipeline.run()
        assert first.record.phase == WorkflowPhase.SUCCEEDED
        assert second.admitted is False
        assert "already pending or running" in second.reject_reason
        assert pipeline.metrics.counter("admission_rejected_total").value(
            reason="duplicate-name"
        ) == 1
        rejections = [
            record for record in journal.records()
            if record.kind == "admission-rejected"
        ]
        assert [record.payload["user"] for record in rejections] == ["t1"]
        # Every reservation and quota charge came back.
        for cluster in spec.clusters:
            assert pipeline.queue.headroom(cluster) == cluster.capacity
        assert pipeline.queue.tenant_usage("t0") == (0.0, 0, 0)
        assert pipeline.queue.tenant_usage("t1") == (0.0, 0, 0)

    def test_second_copy_on_the_same_cluster_rejected_not_raised(self):
        spec = build_fleet(3, seed=1)
        workflow = spec.arrivals[0][1]
        pipeline = AdmissionPipeline(spec.clusters[1:2])
        first = pipeline.submit_at(0.0, workflow, user="t0")
        second = pipeline.submit_at(1.0, workflow, user="t1")
        pipeline.run()
        assert first.record.phase == WorkflowPhase.SUCCEEDED
        assert second.admitted is False
        assert second.record is None

    def test_name_reusable_once_the_first_run_finished(self):
        spec = build_fleet(3, seed=1)
        workflow = spec.arrivals[0][1]
        pipeline = AdmissionPipeline(spec.clusters[1:2])
        first = pipeline.submit_at(0.0, workflow, user="t0")
        second = pipeline.submit_at(100.0, workflow, user="t1")
        pipeline.run()
        assert first.finish_time < second.arrival_time
        assert first.record.phase == WorkflowPhase.SUCCEEDED
        assert second.record.phase == WorkflowPhase.SUCCEEDED
        assert pipeline.rejected() == []


#: Fairness configurations of the multi-cluster fast ≡ naive check.
_FAIRNESS_CONFIGS = {
    "weighted-fair": dict(fairness="weighted-fair"),
    "drf+preemption": dict(
        fairness="drf", preemption=True, policy=PolicyConfig(aging_rate=0.01)
    ),
    "strict-priority": dict(
        fairness="strict-priority", policy=PolicyConfig(aging_rate=0.01)
    ),
    "weighted-fair+protect_gpu": dict(fairness="weighted-fair", protect_gpu=True),
    "drf+preemption+protect_gpu": dict(
        fairness="drf",
        preemption=True,
        policy=PolicyConfig(aging_rate=0.01),
        protect_gpu=True,
    ),
}
#: (workflows, seconds between arrivals) per workload.  The steady
#: stream arrives faster than fleetgen's 0.25 s, so that it queues
#: (and, under DRF, preempts) while releases come in.
_WORKLOADS = {"burst": (250, 0.0), "steady": (160, 0.1)}


def _admission_outcome(workload: str, options: dict, seed: int, engine: str):
    """Every compared AdmissionRecord field, and the event counts, of one run.

    The fleet is fleetgen's six clusters with step durations rounded to
    multiples of 4 s, so releases on several clusters land on the same
    instant and a pass sees more than one freed cluster.
    """
    size, spacing = _WORKLOADS[workload]
    spec = build_fleet(size, seed=seed)
    for _, workflow, *_ in spec.arrivals:
        for step in workflow.steps.values():
            step.duration_s = 4.0 * max(1, round(step.duration_s / 4.0))
    spec.arrivals = [
        (index * spacing,) + arrival[1:] for index, arrival in enumerate(spec.arrivals)
    ]
    pipeline = build_pipeline(spec, EngineConfig(engine=engine, **options))
    records = submit_fleet(pipeline, spec)
    pipeline.run()
    compared = [f.name for f in fields(AdmissionRecord) if f.compare]
    return (
        [tuple(getattr(record, name) for name in compared) for record in records],
        pipeline.metrics.counter("admission_events_total").series(),
    )


def _assert_fast_matches_naive(workload: str, config: str, seed: int) -> None:
    options = _FAIRNESS_CONFIGS[config]
    fast_records, fast_events = _admission_outcome(workload, options, seed, "fast")
    naive_records, naive_events = _admission_outcome(workload, options, seed, "naive")
    assert fast_events == naive_events
    for fast, naive in zip(fast_records, naive_records):
        assert fast == naive
    assert len(fast_records) == len(naive_records)


class TestFastMatchesNaiveAcrossClusters:
    """Fast admission (parked candidates, freed-cluster wakes) places,
    defers and preempts exactly as the naive every-candidate-every-pass
    reference on a six-cluster fleet."""

    @pytest.mark.parametrize("config", sorted(_FAIRNESS_CONFIGS))
    @pytest.mark.parametrize("workload", sorted(_WORKLOADS))
    def test_seed_1(self, workload, config):
        _assert_fast_matches_naive(workload, config, seed=1)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [2, 3])
    @pytest.mark.parametrize("config", sorted(_FAIRNESS_CONFIGS))
    @pytest.mark.parametrize("workload", sorted(_WORKLOADS))
    def test_more_seeds(self, workload, config, seed):
        _assert_fast_matches_naive(workload, config, seed)
