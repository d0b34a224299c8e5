"""Unit tests for the multi-cluster workflow queue (Appendix B.A)."""

import random

import pytest

from repro.engine.config import EngineConfig
from repro.engine.queue import (
    CAPACITY_WEIGHT,
    DeferredDequeue,
    MultiClusterQueue,
    QueuedWorkflow,
    QuotaError,
    UserQuota,
)
from repro.engine.spec import ExecutableStep, ExecutableWorkflow
from repro.k8s.cluster import Cluster
from repro.k8s.resources import ResourceQuantity
from repro.workloads.fleetgen import build_fleet, build_pipeline, submit_fleet

GB = 2**30


def _wf(name: str, cpu: float = 4.0, gpu: int = 0) -> ExecutableWorkflow:
    wf = ExecutableWorkflow(name=name)
    wf.add_step(
        ExecutableStep(
            name="s",
            duration_s=10,
            requests=ResourceQuantity(cpu=cpu, memory=GB, gpu=gpu),
        )
    )
    return wf


def _clusters():
    gpu_cluster = Cluster.uniform("gpu", 2, cpu_per_node=16, memory_per_node=64 * GB, gpu_per_node=4)
    cpu_cluster = Cluster.uniform("cpu", 4, cpu_per_node=64, memory_per_node=256 * GB)
    return [gpu_cluster, cpu_cluster]


class TestPlacement:
    def test_gpu_workflow_lands_on_gpu_cluster(self):
        queue = MultiClusterQueue(clusters=_clusters())
        _, cluster = queue.try_place(QueuedWorkflow(_wf("trainer", gpu=2), user="u"))
        assert cluster.name == "gpu"

    def test_cpu_workflow_prefers_freer_cluster(self):
        clusters = _clusters()
        # Pre-load the GPU cluster so its free fraction drops.
        from repro.k8s.cluster import Scheduler
        from repro.k8s.objects import Pod

        Scheduler(clusters[0]).try_schedule(
            Pod("busy", requests=ResourceQuantity(cpu=14, memory=48 * GB))
        )
        queue = MultiClusterQueue(clusters=clusters)
        _, cluster = queue.try_place(QueuedWorkflow(_wf("batch"), user="u"))
        assert cluster.name == "cpu"


class TestQuota:
    def test_quota_charged_and_released(self):
        queue = MultiClusterQueue(clusters=_clusters())
        queue.quotas["alice"] = UserQuota(
            user="alice", cpu_limit=8, memory_limit=4 * GB, gpu_limit=0
        )
        item = QueuedWorkflow(_wf("a", cpu=4.0), user="alice")
        queue.try_place(item)
        assert queue.quotas["alice"].cpu_used == 4.0
        queue.release(item)
        assert queue.quotas["alice"].cpu_used == 0.0

    def test_over_quota_defers_instead_of_dropping(self):
        queue = MultiClusterQueue(clusters=_clusters())
        queue.quotas["bob"] = UserQuota(
            user="bob", cpu_limit=2, memory_limit=GB // 2, gpu_limit=0
        )
        item = QueuedWorkflow(_wf("big", cpu=4.0), user="bob")
        deferred = queue.try_place(item)
        assert isinstance(deferred, DeferredDequeue)
        assert deferred.kind == "quota"
        assert deferred.item is item  # handed back, not lost
        assert queue.quotas["bob"].cpu_used == 0.0  # nothing charged
        # The caller offers it again once quota frees; it then places.
        queue.quotas["bob"].cpu_limit = 8
        queue.quotas["bob"].memory_limit = 2 * GB
        placed, cluster = queue.try_place(deferred.item)
        assert placed is item
        assert cluster is not None

    def test_infeasible_workflow_raises_without_charging(self):
        cpu_only = [Cluster.uniform("cpu", 2, cpu_per_node=8, memory_per_node=8 * GB)]
        queue = MultiClusterQueue(clusters=cpu_only)
        with pytest.raises(QuotaError):
            queue.try_place(QueuedWorkflow(_wf("needs-gpu", gpu=1), user="u"))
        assert queue.tenant_usage("u") == (0.0, 0, 0)
        assert queue._placements == {}

    def test_remaining_fraction(self):
        quota = UserQuota(user="u", cpu_limit=10, memory_limit=100, gpu_limit=4)
        quota.charge(ResourceQuantity(cpu=5, memory=50, gpu=2))
        cpu_mem, gpu = quota.remaining_fraction()
        assert cpu_mem == pytest.approx(0.5)
        assert gpu == pytest.approx(0.5)


class TestScoringIsReadOnly:
    def test_scoring_does_not_install_default_quota(self):
        """Regression: merely scoring a user used to permanently install
        the unbounded default quota in ``self.quotas``, so a later
        explicit ``quotas[user] = ...`` setup replaced an object the
        queue was already accounting against."""
        queue = MultiClusterQueue(clusters=_clusters())
        item = QueuedWorkflow(_wf("probe"), user="newcomer")
        for cluster in queue.clusters:
            queue._score(item, cluster)
        assert "newcomer" not in queue.quotas

    def test_late_quota_setup_is_honoured_after_scoring(self):
        """The race the bug enabled: score first, configure the quota
        second — the explicit grant must be the one that's enforced."""
        queue = MultiClusterQueue(clusters=_clusters())
        item = QueuedWorkflow(_wf("probe", cpu=4.0), user="late")
        for cluster in queue.clusters:
            queue._score(item, cluster)
        queue.quotas["late"] = UserQuota(
            user="late", cpu_limit=1.0, memory_limit=GB, gpu_limit=0
        )
        placed = queue.try_place(item)
        assert isinstance(placed, DeferredDequeue)
        assert placed.kind == "quota"

    def test_release_never_installs_a_quota(self):
        queue = MultiClusterQueue(clusters=_clusters())
        item = QueuedWorkflow(_wf("ghost"), user="phantom")
        queue.release(item)
        assert "phantom" not in queue.quotas

    def test_placement_still_tracks_usage_via_default_quota(self):
        """The charge path (as opposed to scoring) still installs the
        tracking default so tenant usage is accounted."""
        queue = MultiClusterQueue(clusters=_clusters())
        item = QueuedWorkflow(_wf("worker"), user="tracked")
        result = queue.try_place(item)
        assert not isinstance(result, DeferredDequeue)
        assert queue.tenant_usage("tracked")[0] == pytest.approx(4.0)
        queue.release(item)
        assert queue.tenant_usage("tracked") == (0.0, 0, 0)


class TestScoreClamping:
    def test_fraction_clamped_to_unit_interval(self):
        clamp = MultiClusterQueue._clamped_fraction
        assert clamp(-32.0, 16.0) == 0.0
        assert clamp(8.0, 16.0) == pytest.approx(0.5)
        assert clamp(32.0, 16.0) == 1.0
        assert clamp(4.0, 0.0) == 0.0

    def test_overcommitted_cluster_scores_as_full_not_negative(self):
        """Regression: with reservations beyond capacity (scoring
        subtracts live allocations too), the free fraction must clamp
        to 0 rather than skew the score with an unbounded negative
        term."""
        clusters = _clusters()
        queue = MultiClusterQueue(clusters=clusters)
        cpu_cluster = clusters[1]
        # Reserve far past the cpu cluster's total capacity.
        queue._reserved[cpu_cluster.name] = ResourceQuantity(
            cpu=cpu_cluster.capacity.cpu * 3,
            memory=cpu_cluster.capacity.memory * 3,
        )
        item = QueuedWorkflow(_wf("probe"), user="u", priority=0)
        overcommitted = queue._score(item, cpu_cluster)
        # Same tenant/priority on a genuinely *empty* cluster of the
        # same shape: the overcommitted score is exactly the zero-free
        # floor, i.e. strictly less, and by no more than the capacity
        # weight (bounded, not runaway-negative).
        empty_score = queue._score(item, clusters[0])
        assert overcommitted < empty_score
        assert empty_score - overcommitted <= CAPACITY_WEIGHT + 1e-9

class TestProtectGpu:
    def test_off_by_default(self):
        assert MultiClusterQueue(clusters=_clusters()).protect_gpu is False

    def test_cpu_work_excluded_from_gpu_cluster(self):
        queue = MultiClusterQueue(clusters=_clusters(), protect_gpu=True)
        item = QueuedWorkflow(_wf("filler", cpu=4.0), user="u")
        gpu_cluster, cpu_cluster = queue.clusters
        assert not queue.eligible(item, gpu_cluster)
        assert queue.eligible(item, cpu_cluster)
        _, placed_on = queue.try_place(item)
        assert placed_on.name == "cpu"

    def test_gpu_work_still_lands_on_gpu_cluster(self):
        queue = MultiClusterQueue(clusters=_clusters(), protect_gpu=True)
        _, cluster = queue.try_place(QueuedWorkflow(_wf("trainer", gpu=1), user="u"))
        assert cluster.name == "gpu"

    def test_spillover_when_no_cpu_cluster_fits(self):
        """Protection yields when CPU clusters can never hold the demand:
        a huge CPU-only workflow may still take GPU-cluster capacity."""
        clusters = [
            Cluster.uniform("gpu", 2, cpu_per_node=64, memory_per_node=256 * GB, gpu_per_node=4),
            Cluster.uniform("small-cpu", 1, cpu_per_node=8, memory_per_node=16 * GB),
        ]
        queue = MultiClusterQueue(clusters=clusters, protect_gpu=True)
        _, cluster = queue.try_place(QueuedWorkflow(_wf("wide", cpu=32.0), user="u"))
        assert cluster.name == "gpu"


def _record_scores(queue):
    """Wrap ``queue._score`` so each call appends the cluster's name."""
    calls = []
    score = queue._score

    def recording_score(item, cluster, *quota_fractions):
        calls.append(cluster.name)
        return score(item, cluster, *quota_fractions)

    queue._score = recording_score
    return calls


class TestRuleOutBeforeScoring:
    """``try_place`` rules clusters out (quota, eligibility, headroom)
    before it scores any, and still picks what score-first picked."""

    def test_deferral_scores_nothing(self):
        queue = MultiClusterQueue(clusters=_clusters())
        for cluster in queue.clusters:
            queue._reserved[cluster.name] = cluster.capacity
        calls = _record_scores(queue)
        item = QueuedWorkflow(_wf("blocked"), user="u")
        result = queue.try_place(item)
        assert isinstance(result, DeferredDequeue)
        assert result.kind == "headroom"
        assert calls == []

    def test_burst_scores_at_most_once_per_cluster_per_placement(self):
        """A 250-workflow burst defers most of its ``try_place`` calls on
        headroom; those must not score.  Score-first ran ``_score`` 16 008
        times here, the rule-out order 807 times."""
        spec = build_fleet(250, seed=8)
        spec.arrivals = [(0.0,) + arrival[1:] for arrival in spec.arrivals]
        pipeline = build_pipeline(spec, EngineConfig(fairness="weighted-fair"))
        calls = _record_scores(pipeline.queue)
        records = submit_fleet(pipeline, spec)
        pipeline.run()
        assert all(record.place_time is not None for record in records)
        placements = pipeline.metrics.get("admission_events_total").value(
            event="placement"
        )
        assert placements == len(records)
        assert 0 < len(calls) <= len(spec.clusters) * placements


def _steps_fit_nodes(item, cluster):
    return all(
        any(step.requests.fits_within(node.capacity) for node in cluster.nodes)
        for step in item.workflow.steps.values()
    )


def _score_first_eligible(queue, item, cluster):
    """The eligibility rule as the score-first ``_score`` applied it, with
    every step on one node of the cluster."""
    demand = item.peak_demand()
    if not _steps_fit_nodes(item, cluster):
        return False
    if demand.gpu > 0 and cluster.capacity.gpu == 0:
        return False
    if queue.protect_gpu and demand.gpu == 0 and cluster.capacity.gpu > 0:
        return not any(
            other.capacity.gpu == 0
            and demand.fits_within(other.capacity)
            and _steps_fit_nodes(item, other)
            for other in queue.clusters
        )
    return True


def _score_first_place(queue, item):
    """Reference placement: score every eligible cluster, then filter on
    headroom.  Returns the outcome and, on success, applies the same
    charge and reservation as ``try_place``."""
    demand = item.peak_demand()
    quota = queue._quota_for(item.user)
    if not quota.can_charge(demand):
        return ("deferred", "quota")
    scored = [
        (queue._score(item, cluster), cluster)
        for cluster in queue.clusters
        if _score_first_eligible(queue, item, cluster)
    ]
    if not scored:
        return ("error",)
    scored = [
        (score, cluster)
        for score, cluster in scored
        if demand.fits_within(
            cluster.capacity - queue._reserved.get(cluster.name, ResourceQuantity())
        )
    ]
    if not scored:
        return ("deferred", "headroom")
    scored.sort(key=lambda pair: (-pair[0], pair[1].name))
    best = scored[0][1]
    quota.charge(demand)
    queue._reserved[best.name] = (
        queue._reserved.get(best.name, ResourceQuantity()) + demand
    )
    queue._placements[item.workflow.name] = best.name
    return ("placed", best.name)


def _outcome(queue, item):
    try:
        result = queue.try_place(item)
    except QuotaError:
        return ("error",)
    if isinstance(result, DeferredDequeue):
        return ("deferred", result.kind)
    return ("placed", result[1].name)


def _random_state(seed):
    """A seeded queue state plus the placements to attempt on it."""
    rng = random.Random(seed)
    clusters = []
    for index in range(rng.randint(1, 4)):
        gpu = rng.choice([0, 0, 2, 4])
        cluster = Cluster.uniform(
            f"c{index}",
            rng.randint(1, 3),
            cpu_per_node=rng.choice([4.0, 8.0, 16.0]),
            memory_per_node=rng.choice([8, 32]) * GB,
            gpu_per_node=gpu,
        )
        for node in cluster.nodes:
            share = rng.random()
            node.allocated = ResourceQuantity(
                cpu=node.capacity.cpu * share, memory=int(node.capacity.memory * share)
            )
        clusters.append(cluster)
    queue = MultiClusterQueue(clusters=clusters, protect_gpu=rng.random() < 0.5)
    for cluster in clusters:
        if rng.random() < 0.6:
            # Up to 1.5x capacity: over-reserved clusters included.
            fill = rng.uniform(0.0, 1.5)
            capacity = cluster.capacity
            queue._reserved[cluster.name] = ResourceQuantity(
                cpu=capacity.cpu * fill,
                memory=int(capacity.memory * fill),
                gpu=int(capacity.gpu * fill),
            )
    users = ["u0", "u1", "u2"]
    for user in users[:2]:
        if rng.random() < 0.7:
            queue.quotas[user] = UserQuota(
                user=user,
                cpu_limit=rng.choice([4.0, 16.0, 64.0]),
                memory_limit=rng.choice([8, 64]) * GB,
                gpu_limit=rng.choice([0, 2, 8]),
                cpu_used=rng.choice([0.0, 2.0, 8.0]),
            )
    items = [
        QueuedWorkflow(
            _wf(
                f"w{index}",
                cpu=rng.choice([1.0, 2.0, 4.0, 8.0, 24.0]),
                gpu=rng.choice([0, 0, 0, 1, 2]),
            ),
            user=rng.choice(users),
            priority=rng.randint(0, 5),
        )
        for index in range(rng.randint(1, 6))
    ]
    return queue, items


def _accounting(queue):
    return (
        {name: reserved.to_dict() for name, reserved in queue._reserved.items()},
        {
            user: (quota.cpu_used, quota.memory_used, quota.gpu_used)
            for user, quota in queue.quotas.items()
        },
        dict(queue._placements),
    )


def test_rule_out_order_matches_score_first_placement():
    """Property: on seeded random states, ``try_place`` returns the same
    cluster, deferral kind or ``QuotaError`` as scoring every cluster
    first, and leaves the same reservations and quota charges."""
    seen = set()
    for seed in range(400):
        queue, items = _random_state(seed)
        reference, reference_items = _random_state(seed)
        for item, reference_item in zip(items, reference_items):
            got = _outcome(queue, item)
            want = _score_first_place(reference, reference_item)
            assert got == want, f"seed {seed}, {item.workflow.name}"
            assert _accounting(queue) == _accounting(reference), f"seed {seed}"
            seen.add(got[:2])
    # The sweep reaches every outcome, so the equivalence is not vacuous.
    assert {("deferred", "quota"), ("deferred", "headroom"), ("error",)} <= seen
    assert any(outcome[0] == "placed" for outcome in seen)
