"""The headroom parking index answers exactly the brute-force wake set.

``HeadroomParking.fitting(freed, lane)`` must return each parked
candidate of ``lane`` that ``AdmissionPipeline._fits_freed`` accepts
for ``freed``, once, and no other: the admission pass sorts and tries
what it returns, so a missed candidate changes a placement and an extra
or repeated one changes the order.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.admission import AdmissionPipeline, AdmissionRecord, _Pending
from repro.engine.parking import HeadroomParking
from repro.engine.queue import QueuedWorkflow
from repro.engine.spec import ExecutableStep, ExecutableWorkflow
from repro.k8s.cluster import Cluster, Node
from repro.k8s.resources import ResourceQuantity

GB = 2**30
LANES = ("serving", "batch")
#: Candidate CPU demands: whole cores, and values at and just past the
#: ``fits_within`` bound of a 4- or 6-core room (8-core clusters with
#: 4 or 2 cores reserved).
CPUS = (1.0, 2.0, 4.0, 4.0 + 1e-9, 4.0 + 3e-9, 6.0, 6.0 + 1e-9, 8.0)
MEMORIES = (GB, 8 * GB, 16 * GB)


def _clusters():
    """Two CPU clusters, one of them with nodes too small for a 6-core
    step, and a GPU cluster: each candidate is eligible on 1 to 3."""
    return [
        Cluster.uniform("cpu-a", 1, cpu_per_node=8, memory_per_node=32 * GB),
        Cluster(
            name="cpu-small",
            nodes=[
                Node(f"cpu-small-node-{i}", ResourceQuantity(cpu=4, memory=16 * GB))
                for i in range(2)
            ],
        ),
        Cluster.uniform(
            "gpu", 1, cpu_per_node=8, memory_per_node=32 * GB, gpu_per_node=2
        ),
    ]


def _candidate(seq: int, cpu: float, memory: int, gpu: int, lane: str) -> _Pending:
    workflow = ExecutableWorkflow(name=f"wf-{seq}")
    workflow.add_step(
        ExecutableStep(
            name="work",
            duration_s=1.0,
            requests=ResourceQuantity(cpu=cpu, memory=memory, gpu=gpu),
        )
    )
    admission = AdmissionRecord(
        workflow_name=workflow.name,
        user="u",
        priority=0,
        arrival_time=0.0,
        slo_class=lane,
    )
    return _Pending(
        seq=seq,
        queued=QueuedWorkflow(workflow=workflow, user="u"),
        admission=admission,
        since=0,
    )


def _reserve(pipeline: AdmissionPipeline, cluster: Cluster, cpu: float, memory: int):
    """Set ``cluster``'s admission headroom to its capacity minus this."""
    queue = pipeline.queue
    queue._reserved[cluster.name] = ResourceQuantity(cpu=cpu, memory=memory)
    queue._headroom_cache.pop(cluster.name, None)


def _brute_force(pipeline, parked, freed, lane):
    return sorted(
        p.seq
        for p in parked.values()
        if p.admission.slo_class == lane and pipeline._fits_freed(p, freed)
    )


_park = st.tuples(
    st.just("park"),
    st.sampled_from(CPUS),
    st.sampled_from(MEMORIES),
    st.sampled_from((0, 0, 1)),
    st.sampled_from(LANES),
)
_unpark = st.tuples(st.just("unpark"), st.integers(0, 63))
_headroom = st.tuples(
    st.just("reserve"),
    st.integers(0, 2),
    st.sampled_from((0.0, 2.0, 4.0, 4.0 - 1e-9, 7.0)),
    st.sampled_from((0, 8 * GB, 24 * GB)),
)
_check = st.tuples(
    st.just("check"),
    st.lists(st.booleans(), min_size=3, max_size=3),
    st.sampled_from(LANES),
)


@settings(max_examples=150, deadline=None)
@given(
    protect_gpu=st.booleans(),
    ops=st.lists(st.one_of(_park, _park, _unpark, _headroom, _check), max_size=60),
)
def test_fitting_equals_the_brute_force_wake_set(protect_gpu, ops):
    clusters = _clusters()
    pipeline = AdmissionPipeline(clusters, protect_gpu=protect_gpu)
    index = HeadroomParking(pipeline.queue)
    parked = {}
    seqs = itertools.count()
    # Every op sequence ends by asking with every cluster freed.
    for op in ops + [("check", [True] * 3, lane) for lane in LANES]:
        if op[0] == "park":
            _, cpu, memory, gpu, lane = op
            pending = _candidate(next(seqs), cpu, memory, gpu, lane)
            if not any(pipeline.queue.eligible(pending.queued, c) for c in clusters):
                continue  # rejected at arrival, never parked
            index.park(pending)
            parked[pending.seq] = pending
        elif op[0] == "unpark":
            if parked:
                pending = list(parked.values())[op[1] % len(parked)]
                index.unpark(pending)
                del parked[pending.seq]
        elif op[0] == "reserve":
            _, which, cpu, memory = op
            _reserve(pipeline, clusters[which], cpu, memory)
        else:
            _, mask, lane = op
            freed = [c for c, on in zip(clusters, mask) if on]
            woken = [p.seq for p in index.fitting(freed, lane)]
            assert sorted(woken) == _brute_force(pipeline, parked, freed, lane)
        assert len(index) == len(parked)
        assert sorted(p.seq for p in index.values()) == sorted(parked)
        assert all(seq in index for seq in parked)


def test_a_demand_at_the_epsilon_bound_wakes():
    clusters = _clusters()
    pipeline = AdmissionPipeline(clusters)
    index = HeadroomParking(pipeline.queue)
    _reserve(pipeline, clusters[0], 4.0, 0)
    at_bound = _candidate(0, 4.0 + 1e-9, GB, 0, "batch")
    past_bound = _candidate(1, 4.0 + 3e-9, GB, 0, "batch")
    index.park(at_bound)
    index.park(past_bound)
    assert pipeline._fits_freed(at_bound, clusters[:1])
    assert not pipeline._fits_freed(past_bound, clusters[:1])
    assert [p.seq for p in index.fitting(clusters[:1], "batch")] == [0]


def test_a_candidate_wakes_only_on_clusters_it_may_use():
    clusters = _clusters()
    pipeline = AdmissionPipeline(clusters, protect_gpu=True)
    index = HeadroomParking(pipeline.queue)
    index.park(_candidate(0, 6.0, GB, 0, "batch"))  # no cpu-small node fits
    index.park(_candidate(1, 2.0, GB, 1, "batch"))  # needs the GPU cluster
    index.park(_candidate(2, 2.0, GB, 0, "batch"))  # kept off the GPU cluster
    fitting = {
        cluster.name: [p.seq for p in index.fitting([cluster], "batch")]
        for cluster in clusters
    }
    assert fitting == {"cpu-a": [2, 0], "cpu-small": [2], "gpu": [1]}


def test_a_candidate_fitting_two_freed_clusters_wakes_once():
    clusters = _clusters()
    pipeline = AdmissionPipeline(clusters)
    index = HeadroomParking(pipeline.queue)
    index.park(_candidate(0, 1.0, GB, 0, "batch"))
    assert [p.seq for p in index.fitting(clusters, "batch")] == [0]
    assert index.fitting(clusters, "serving") == []


def test_fitting_skips_candidates_too_large_for_the_room():
    clusters = _clusters()
    pipeline = AdmissionPipeline(clusters)
    index = HeadroomParking(pipeline.queue)
    for seq, cpu in enumerate((1.0, 2.0, 6.0, 8.0)):
        index.park(_candidate(seq, cpu, GB, 0, "batch"))
    _reserve(pipeline, clusters[0], 6.0, 0)
    assert [p.seq for p in index.fitting(clusters[:1], "batch")] == [0, 1]
    # The two entries with at most 2 cores are all that was visited.
    assert index.visits == 2
