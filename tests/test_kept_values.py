"""Values kept until a write equal the values they replace.

A node keeps its free resources until its allocation or capacity
changes; ``Cluster.allocated`` and placement scoring sum and subtract
plain numbers instead of chaining ``ResourceQuantity`` objects; each
metric sorts and stringifies a label set once, and the engine binds its
fixed-label series once.  The ``engine_fast`` oracle cannot guard
these, because its fast and naive legs share the code, so each kept
value is checked here against the object-chain expression it replaced,
with ``==``, and the counts that show nothing is rebuilt per read (or
built for a tracer that records nothing) are bounded on one fleet part.
"""

from __future__ import annotations

import collections
import random

import pytest

import repro.obs.metrics as metrics_module
import repro.obs.trace as trace_module
from repro.engine.config import EngineConfig
from repro.engine.journal import Journal
from repro.engine.queue import (
    CAPACITY_WEIGHT,
    GPU_QUOTA_WEIGHT,
    PRIORITY_WEIGHT,
    USER_QUOTA_WEIGHT,
    MultiClusterQueue,
    QueuedWorkflow,
    QuotaError,
    UserQuota,
)
from repro.engine.spec import ExecutableStep, ExecutableWorkflow
from repro.engine.status import WorkflowPhase
from repro.k8s.cluster import Cluster, Scheduler, SchedulingError
from repro.k8s.objects import Pod
from repro.k8s.resources import ResourceQuantity
from repro.workloads.fleetgen import build_fleet, build_pipeline, submit_fleet

GB = 2**30

#: Fractional CPU so sums and differences pick up float rounding.
_CPUS = (0.1, 0.25, 0.3, 0.7, 1.3, 2.2)
#: Writes to a node; binds twice as likely, so nodes fill up.
_OPS = ("bind", "bind", "release", "evict", "fail", "recover", "assign", "capacity")


def _chained_allocated(cluster: Cluster) -> ResourceQuantity:
    total = ResourceQuantity()
    for node in cluster.nodes:
        total = total + node.allocated
    return total


def _chained_score(
    queue: MultiClusterQueue, item: QueuedWorkflow, cluster: Cluster
) -> float:
    """The placement score with every sum and difference an object."""
    demand = item.peak_demand()
    capacity = cluster.capacity
    reserved = queue._reserved.get(cluster.name, ResourceQuantity())
    free = capacity - _chained_allocated(cluster) - reserved
    cpu_frac = queue._clamped_fraction(free.cpu, capacity.cpu)
    mem_frac = queue._clamped_fraction(free.memory, capacity.memory)
    user_frac, gpu_frac = queue._quota_view(item.user).remaining_fraction()
    return (
        PRIORITY_WEIGHT * item.priority
        + CAPACITY_WEIGHT * (cpu_frac + mem_frac) / 2.0
        + USER_QUOTA_WEIGHT * user_frac
        + GPU_QUOTA_WEIGHT * (gpu_frac if demand.gpu > 0 else 0.0)
    )


def _requests(rng: random.Random) -> ResourceQuantity:
    return ResourceQuantity(
        cpu=rng.choice(_CPUS),
        memory=rng.randint(1, 8) * GB // 4,
        gpu=rng.choice([0, 0, 1]),
    )


def _item(rng: random.Random, index: int) -> QueuedWorkflow:
    workflow = ExecutableWorkflow(name=f"wf-{index}")
    for step in range(rng.randint(1, 3)):
        workflow.add_step(
            ExecutableStep(name=f"s{step}", duration_s=1.0, requests=_requests(rng))
        )
    user = rng.choice(["u0", "u1"])
    return QueuedWorkflow(workflow=workflow, user=user, priority=index % 3)


def _assert_kept_values(queue: MultiClusterQueue, items, cluster: Cluster) -> None:
    for node in cluster.nodes:
        assert node.free == node.capacity - node.allocated
    assert cluster.allocated == _chained_allocated(cluster)
    for item in items:
        assert queue._score(item, cluster) == _chained_score(queue, item, cluster)


@pytest.mark.parametrize("seed", range(40))
def test_kept_values_equal_the_object_chains(seed):
    """Any sequence of bind, release, evict, fail, recover and direct
    assignments leaves every read equal to the expression it replaced."""
    rng = random.Random(seed)
    cluster = Cluster.uniform(
        "c", rng.randint(1, 3), cpu_per_node=rng.choice([3.3, 4.0, 7.7]),
        memory_per_node=8 * GB, gpu_per_node=rng.choice([0, 2]),
    )
    scheduler = Scheduler(cluster)
    queue = MultiClusterQueue(
        clusters=[cluster],
        quotas={
            "u0": UserQuota(user="u0", cpu_limit=9.9, memory_limit=40 * GB, gpu_limit=3)
        },
    )
    items = [_item(rng, index) for index in range(3)]
    for item in items:
        try:
            queue.try_place(item)  # reserves, so scores subtract twice
        except QuotaError:
            pass  # GPU demand and no GPU node: still scored below
    bound = []
    for step in range(60):
        op = rng.choice(_OPS)
        node = rng.choice(cluster.nodes)
        if op == "bind":
            pod = Pod(f"p{step}", requests=_requests(rng))
            try:
                if scheduler.try_schedule(pod) is not None:
                    bound.append(pod)
            except SchedulingError:
                pass
        elif op in ("release", "evict") and bound:
            pod = bound.pop(rng.randrange(len(bound)))
            owner = cluster.node(pod.node_name) if pod.node_name else None
            if owner is None:
                pass  # displaced by a crash, which already freed it
            elif op == "release":
                owner.release(pod)
            else:
                owner.evict(pod)
        elif op == "fail":
            node.fail()
        elif op == "recover":
            node.recover()
        elif op == "assign":
            node.allocated = ResourceQuantity(
                cpu=rng.choice(_CPUS) * rng.randint(0, 4), memory=rng.randint(0, 4) * GB
            )
        elif op == "capacity":
            node.capacity = ResourceQuantity(
                cpu=node.capacity.cpu + rng.choice(_CPUS), memory=node.capacity.memory,
                gpu=node.capacity.gpu,
            )
        _assert_kept_values(queue, items, cluster)


@pytest.fixture(scope="module")
def fleet_part_counts():
    """One ``fleet-steady``-sized part, journaled, counting every
    ``ResourceQuantity`` built, every label set sorted and stringified,
    every label-key lookup and every call on the default ``NullTracer``."""
    workflows = 1000
    spec = build_fleet(workflows, seed=8)
    pipeline = build_pipeline(
        spec, EngineConfig(fairness="weighted-fair"), journal=Journal()
    )
    built = [0]
    rendered: collections.Counter = collections.Counter()
    calls: collections.Counter = collections.Counter()
    check = ResourceQuantity.__post_init__
    render = metrics_module._label_key
    key = metrics_module._Metric._key

    def counting_check(self):
        built[0] += 1
        check(self)

    def counting_render(items):
        label_key = render(items)
        rendered[metrics_module._render_labels(label_key)] += 1
        return label_key

    def counting_key(metric, labels):
        calls["_key"] += 1
        return key(metric, labels)

    def counted(name):
        method = getattr(trace_module.NullTracer, name)

        def counting(*args, **kwargs):
            calls[f"NullTracer.{name}"] += 1
            return method(*args, **kwargs)

        return counting

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ResourceQuantity, "__post_init__", counting_check)
        patch.setattr(metrics_module, "_label_key", counting_render)
        patch.setattr(metrics_module._Metric, "_key", counting_key)
        for name in ("begin", "end", "add_span", "instant"):
            patch.setattr(trace_module.NullTracer, name, counted(name))
        records = submit_fleet(pipeline, spec)
        pipeline.run()
    assert all(
        record.record.phase == WorkflowPhase.SUCCEEDED for record in records
    )
    # How many metrics hold a series under each label set.
    holders = collections.Counter(
        labels
        for metric in pipeline.metrics.collect().values()
        for labels in metric["series"]
    )
    return workflows, built[0], rendered, holders, calls


def test_fleet_part_builds_few_resource_quantities(fleet_part_counts):
    workflows, built, _, _, _ = fleet_part_counts
    assert built <= 20 * workflows


def test_fleet_part_renders_each_label_set_once(fleet_part_counts):
    """Once per metric that records it, however often it is recorded."""
    _, _, rendered, holders, _ = fleet_part_counts
    assert rendered, "the part recorded no labelled metric"
    over = {labels: n for labels, n in rendered.items() if n > holders[labels]}
    assert not over, over


def test_fleet_part_looks_up_few_label_keys(fleet_part_counts):
    """The operator and the admission pipeline write their fixed-label
    series through handles bound once; only the per-tenant share gauge
    still passes keyword labels, twice per workflow (about 39 lookups
    per workflow when every write passed them)."""
    workflows, _, _, _, calls = fleet_part_counts
    assert calls["_key"] <= 3 * workflows


def test_fleet_part_makes_no_null_tracer_call(fleet_part_counts):
    """An untraced run builds no span and no span argument."""
    _, _, _, _, calls = fleet_part_counts
    assert {name: n for name, n in calls.items() if name != "_key"} == {}
