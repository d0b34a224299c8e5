"""Unit tests for nodes, clusters and the best-fit scheduler."""

import pytest

from repro.k8s.cluster import Cluster, Node, Scheduler, SchedulingError
from repro.k8s.objects import Pod
from repro.k8s.resources import ResourceQuantity

GB = 2**30


def _pod(name: str, cpu: float = 1.0, memory: int = GB, gpu: int = 0) -> Pod:
    return Pod(name, requests=ResourceQuantity(cpu=cpu, memory=memory, gpu=gpu))


class TestNode:
    def test_bind_and_release(self):
        node = Node("n1", capacity=ResourceQuantity(cpu=4, memory=8 * GB))
        pod = _pod("p1", cpu=2)
        node.bind(pod)
        assert node.free.cpu == 2
        assert pod.node_name == "n1"
        node.release(pod)
        assert node.free.cpu == 4

    def test_bind_overflow_raises(self):
        node = Node("n1", capacity=ResourceQuantity(cpu=1, memory=GB))
        node.bind(_pod("p1", cpu=1))
        with pytest.raises(SchedulingError):
            node.bind(_pod("p2", cpu=1))

    def test_release_unknown_pod_is_noop(self):
        node = Node("n1", capacity=ResourceQuantity(cpu=1, memory=GB))
        node.release(_pod("ghost"))

    def test_release_clears_stale_binding(self):
        # A pod the node no longer tracks but that still points at the
        # node must have its binding cleared, or it can be "released"
        # against the wrong node later.
        node = Node("n1", capacity=ResourceQuantity(cpu=4, memory=8 * GB))
        pod = _pod("p1", cpu=2)
        node.bind(pod)
        del node.pods[pod.metadata.name]  # simulate drifted bookkeeping
        node.release(pod)
        assert pod.node_name is None

    def test_fail_displaces_all_pods(self):
        node = Node("n1", capacity=ResourceQuantity(cpu=4, memory=8 * GB))
        first, second = _pod("p1", cpu=2), _pod("p2", cpu=1)
        node.bind(first)
        node.bind(second)
        displaced = node.fail()
        assert {pod.metadata.name for pod in displaced} == {"p1", "p2"}
        assert not node.ready
        assert node.pods == {}
        assert node.allocated.is_zero()
        for pod in displaced:
            assert pod.node_name is None
            assert pod.reason == "NodeLost"

    def test_failed_node_rejects_binds_until_recovery(self):
        node = Node("n1", capacity=ResourceQuantity(cpu=4, memory=8 * GB))
        node.fail()
        assert not node.can_fit(ResourceQuantity(cpu=1))
        with pytest.raises(SchedulingError):
            node.bind(_pod("p"))
        node.recover()
        node.bind(_pod("p", cpu=1))
        assert node.allocated.cpu == 1

    def test_evict_clears_binding_and_marks_pod(self):
        from repro.k8s.objects import PodPhase

        node = Node("n1", capacity=ResourceQuantity(cpu=4, memory=8 * GB))
        pod = _pod("p1", cpu=2)
        node.bind(pod)
        node.evict(pod)
        assert node.allocated.is_zero()
        assert pod.node_name is None
        assert pod.phase == PodPhase.FAILED
        assert pod.reason == "Evicted"


class TestCluster:
    def test_uniform_capacity(self):
        cluster = Cluster.uniform("c", 3, cpu_per_node=8, memory_per_node=GB, gpu_per_node=2)
        assert cluster.capacity.cpu == 24
        assert cluster.capacity.gpu == 6

    def test_utilization(self):
        cluster = Cluster.uniform("c", 2, cpu_per_node=4, memory_per_node=4 * GB)
        Scheduler(cluster).try_schedule(_pod("p", cpu=2, memory=2 * GB))
        util = cluster.utilization()
        assert util["cpu"] == pytest.approx(0.25)
        assert util["memory"] == pytest.approx(0.25)
        assert util["gpu"] == 0.0

    def test_node_lookup_tracks_membership(self):
        cluster = Cluster.uniform("c", 2, cpu_per_node=4, memory_per_node=4 * GB)
        assert cluster.node("c-node-1").name == "c-node-1"
        assert cluster.node("nope") is None
        # The lazy index rebuilds when the node list changes.
        cluster.nodes.append(
            Node("late", capacity=ResourceQuantity(cpu=1, memory=GB))
        )
        assert cluster.node("late") is cluster.nodes[-1]

    def test_capacity_memos_follow_a_node_capacity_change(self):
        cluster = Cluster.uniform("c", 2, cpu_per_node=4, memory_per_node=4 * GB)
        six_cpus = ResourceQuantity(cpu=6, memory=GB)
        assert cluster.capacity.cpu == 8.0
        assert not cluster.fits_a_node(six_cpus)
        cluster.nodes[0].capacity = ResourceQuantity(cpu=8, memory=4 * GB)
        assert cluster.capacity.cpu == 12.0
        assert cluster.fits_a_node(six_cpus)

    def test_fits_a_node_equals_a_scan_over_nodes(self):
        shapes = [(4, 16, 0), (8, 8, 0), (4, 16, 0), (2, 64, 1)]
        cluster = Cluster(
            name="c",
            nodes=[
                Node(f"n{i}", ResourceQuantity(cpu=cpu, memory=mem * GB, gpu=gpu))
                for i, (cpu, mem, gpu) in enumerate(shapes)
            ],
        )
        cluster.node("n3").fail()  # a crashed node's hardware still counts
        requests = [
            ResourceQuantity(cpu=cpu, memory=mem * GB, gpu=gpu)
            for cpu in (1, 2 + 1e-10, 3.5, 4, 4 + 1e-8, 8, 9)
            for mem in (1, 8, 16, 17, 64)
            for gpu in (0, 1)
        ]

        def scan(request):
            return any(request.fits_within(node.capacity) for node in cluster.nodes)

        assert [cluster.fits_a_node(r) for r in requests] == [
            scan(r) for r in requests
        ]
        cluster.nodes[1].capacity = ResourceQuantity(cpu=16, memory=32 * GB)
        assert [cluster.fits_a_node(r) for r in requests] == [
            scan(r) for r in requests
        ]
        assert cluster.fits_a_node(ResourceQuantity(cpu=9, memory=17 * GB))

    def test_fits_a_node_keeps_nothing_per_request(self):
        cluster = Cluster.uniform("c", 3, cpu_per_node=8, memory_per_node=4 * GB)

        def sizes():
            return {
                name: len(value)
                for name, value in vars(cluster).items()
                if isinstance(value, (dict, list, set))
            }

        cluster.fits_a_node(ResourceQuantity(cpu=1))
        before = sizes()
        for i in range(500):
            cluster.fits_a_node(ResourceQuantity(cpu=0.017 * i, memory=i))
        assert sizes() == before

    def test_ready_nodes_excludes_failed(self):
        cluster = Cluster.uniform("c", 3, cpu_per_node=4, memory_per_node=4 * GB)
        cluster.node("c-node-1").fail()
        assert [n.name for n in cluster.ready_nodes()] == ["c-node-0", "c-node-2"]


class TestScheduler:
    def test_best_fit_prefers_tightest_node(self):
        tight = Node("tight", capacity=ResourceQuantity(cpu=2, memory=4 * GB))
        roomy = Node("roomy", capacity=ResourceQuantity(cpu=16, memory=4 * GB))
        cluster = Cluster(name="c", nodes=[roomy, tight])
        node = Scheduler(cluster).try_schedule(_pod("p", cpu=2))
        assert node is tight

    def test_returns_none_when_full(self):
        cluster = Cluster.uniform("c", 1, cpu_per_node=2, memory_per_node=4 * GB)
        scheduler = Scheduler(cluster)
        assert scheduler.try_schedule(_pod("p1", cpu=2)) is not None
        assert scheduler.try_schedule(_pod("p2", cpu=1)) is None

    def test_infeasible_request_raises(self):
        cluster = Cluster.uniform("c", 2, cpu_per_node=4, memory_per_node=4 * GB)
        with pytest.raises(SchedulingError):
            Scheduler(cluster).try_schedule(_pod("huge", cpu=100))

    def test_release_by_node_name(self):
        cluster = Cluster.uniform("c", 1, cpu_per_node=4, memory_per_node=4 * GB)
        scheduler = Scheduler(cluster)
        pod = _pod("p", cpu=3)
        scheduler.try_schedule(pod)
        scheduler.release(pod)
        assert cluster.allocated.is_zero()

    def test_double_release_does_not_underflow(self):
        cluster = Cluster.uniform("c", 2, cpu_per_node=4, memory_per_node=4 * GB)
        scheduler = Scheduler(cluster)
        pod = _pod("p", cpu=3)
        scheduler.try_schedule(pod)
        scheduler.release(pod)
        assert pod.node_name is None
        scheduler.release(pod)  # second release: binding gone, no-op
        assert cluster.allocated.is_zero()
        # Another pod's allocation must survive the double release.
        other = _pod("q", cpu=2)
        scheduler.try_schedule(other)
        scheduler.release(pod)
        assert cluster.allocated.cpu == 2

    def test_not_ready_nodes_pend_instead_of_error(self):
        cluster = Cluster.uniform("c", 1, cpu_per_node=4, memory_per_node=4 * GB)
        scheduler = Scheduler(cluster)
        cluster.node("c-node-0").fail()
        # Capacity-feasible but currently down: the pod waits.
        assert scheduler.try_schedule(_pod("p", cpu=2)) is None
        cluster.node("c-node-0").recover()
        assert scheduler.try_schedule(_pod("p", cpu=2)) is not None
