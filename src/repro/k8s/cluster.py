"""Simulated cluster: nodes with capacity and a pod bin-packing scheduler.

The paper's production environment is a shared Ant Group cluster
(~1.6M CPU cores, 4.5k GPUs).  The simulator scales this down to a
configurable set of :class:`Node` objects; the :class:`Scheduler` places
pending pods on nodes best-fit by remaining CPU, which is sufficient to
reproduce utilization-over-time curves (Figs. 7, 11–16) since those
depend on aggregate capacity pressure, not on a specific packing
heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .objects import Pod, PodPhase
from .resources import ResourceQuantity


class SchedulingError(RuntimeError):
    """Raised when a pod can never fit on any node (infeasible request)."""


@dataclass
class Node:
    """A schedulable machine with fixed capacity and a lifecycle.

    ``ready`` is the node's health: the chaos layer flips it on injected
    crashes and the scheduler never binds onto a not-ready node.
    """

    name: str
    capacity: ResourceQuantity
    allocated: ResourceQuantity = field(default_factory=ResourceQuantity)
    pods: Dict[str, Pod] = field(default_factory=dict)
    ready: bool = True
    #: ``(allocated, capacity, free)`` as of the last :attr:`free` read.
    _free: Optional[Tuple[ResourceQuantity, ResourceQuantity, ResourceQuantity]] = (
        field(default=None, repr=False, compare=False)
    )

    @property
    def free(self) -> ResourceQuantity:
        # Kept until ``allocated`` or ``capacity`` is replaced: both are
        # frozen, so the same two objects always give the same
        # difference, and any write (bind, release, fail, or a direct
        # assignment) swaps in a new object.  The scheduler reads this
        # several times per bind.
        allocated, capacity = self.allocated, self.capacity
        kept = self._free
        if kept is not None and kept[0] is allocated and kept[1] is capacity:
            return kept[2]
        free = capacity - allocated
        self._free = (allocated, capacity, free)
        return free

    def can_fit(self, requests: ResourceQuantity) -> bool:
        return self.ready and requests.fits_within(self.free)

    def bind(self, pod: Pod) -> None:
        if not self.ready:
            raise SchedulingError(f"node {self.name} is not ready")
        if not self.can_fit(pod.requests):
            raise SchedulingError(f"pod {pod.metadata.name} does not fit on {self.name}")
        self.allocated = self.allocated + pod.requests
        self.pods[pod.metadata.name] = pod
        pod.node_name = self.name

    def release(self, pod: Pod) -> None:
        if pod.metadata.name in self.pods:
            del self.pods[pod.metadata.name]
            self.allocated = self.allocated - pod.requests
        # Always clear the pod-side pointer: a binding that survives
        # release is how stale-node reads (and double releases against
        # the wrong node) start.
        if pod.node_name == self.name:
            pod.node_name = None

    def evict(self, pod: Pod) -> None:
        """Remove a pod (preemption / node-pressure eviction)."""
        self.release(pod)
        pod.phase = PodPhase.FAILED
        pod.reason = "Evicted"

    def fail(self) -> List[Pod]:
        """Crash the node: mark not-ready and displace every pod.

        Returns the displaced pods (bindings cleared, phase Failed) so
        the operator can requeue the work they carried.
        """
        self.ready = False
        displaced = list(self.pods.values())
        self.pods.clear()
        self.allocated = ResourceQuantity()
        for pod in displaced:
            pod.node_name = None
            pod.phase = PodPhase.FAILED
            pod.reason = "NodeLost"
        return displaced

    def recover(self) -> None:
        """Bring a crashed node back, empty and schedulable."""
        self.ready = True


@dataclass
class Cluster:
    """A named collection of nodes plus utilization accounting.

    The multi-cluster workflow queue (Appendix B.A) schedules across
    several :class:`Cluster` instances with different shapes (GPU-heavy,
    CPU-heavy, storage-distant).
    """

    name: str = "cluster-a"
    nodes: List[Node] = field(default_factory=list)
    #: Relative network distance to the storage cluster; scales remote
    #: read latency in the data-caching experiments (Appendix D.C).
    storage_distance: float = 1.0
    #: Lazily built name -> Node index (release/lookup used to scan the
    #: node list linearly, which is O(n) per released pod).
    _by_name: Optional[Dict[str, Node]] = field(
        default=None, repr=False, compare=False
    )
    #: The nodes' capacities, in node order, that the two values below
    #: were computed from (see ``_check_capacities``).
    _capacities: List[ResourceQuantity] = field(
        default_factory=list, repr=False, compare=False
    )
    #: Memoized total capacity (see ``capacity``).
    _capacity_total: Optional[ResourceQuantity] = field(
        default=None, repr=False, compare=False
    )
    #: The distinct node capacities, first seen first (see
    #: :meth:`fits_a_node`).
    _shapes: List[ResourceQuantity] = field(
        default_factory=list, repr=False, compare=False
    )

    def node(self, name: str) -> Optional[Node]:
        """O(1) node lookup by name."""
        if self._by_name is None or len(self._by_name) != len(self.nodes):
            self._by_name = {node.name: node for node in self.nodes}
        return self._by_name.get(name)

    def ready_nodes(self) -> List[Node]:
        return [node for node in self.nodes if node.ready]

    @classmethod
    def uniform(
        cls,
        name: str,
        num_nodes: int,
        cpu_per_node: float,
        memory_per_node: int,
        gpu_per_node: int = 0,
        storage_distance: float = 1.0,
    ) -> "Cluster":
        """Build a homogeneous cluster."""
        nodes = [
            Node(
                name=f"{name}-node-{i}",
                capacity=ResourceQuantity(
                    cpu=cpu_per_node, memory=memory_per_node, gpu=gpu_per_node
                ),
            )
            for i in range(num_nodes)
        ]
        return cls(name=name, nodes=nodes, storage_distance=storage_distance)

    def _check_capacities(self) -> None:
        """Recompute the total capacity and the node shapes unless the
        nodes' capacities, in node order, equal the ones they came from.

        A crash keeps a node's capacity (``ready`` flips, the hardware
        remains).  Capacities are frozen, and list equality tries
        identity first, so an unchanged node costs one identity check.
        Admission reads :attr:`capacity` about 6 times per workflow on a
        burst of 4-node clusters and 9 times on a steady stream, and
        asks :meth:`fits_a_node` about 6 times, each a different request.
        """
        capacities = [node.capacity for node in self.nodes]
        if capacities != self._capacities:
            self._capacities = capacities
            self._capacity_total = None
            self._shapes = list(dict.fromkeys(capacities))

    @property
    def capacity(self) -> ResourceQuantity:
        self._check_capacities()
        total = self._capacity_total
        if total is None:
            total = ResourceQuantity()
            for capacity in self._capacities:
                total = total + capacity
            self._capacity_total = total
        return total

    def fits_a_node(self, requests: ResourceQuantity) -> bool:
        """Whether some node could host ``requests`` when empty.

        A crashed node still counts (its hardware remains).  The
        scheduler asks this for every pod that waits, and admission for
        every workflow it places.  Requests rarely repeat (fleets draw
        CPU as random floats), but nodes come in a few shapes, so this
        checks each distinct node capacity once and keeps nothing per
        request.
        """
        self._check_capacities()
        for shape in self._shapes:
            if requests.fits_within(shape):
                return True
        return False

    @property
    def allocated(self) -> ResourceQuantity:
        return ResourceQuantity(*self.allocated_totals())

    def allocated_totals(self) -> Tuple[float, int, int]:
        """:attr:`allocated` as plain ``(cpu, memory, gpu)`` numbers.

        Summed in node order from zero, which gives the same bits as
        chaining ``ResourceQuantity`` additions without building one
        object per node.  Not kept between reads: nodes change (bind,
        release) about as often as placement scoring reads this.
        """
        cpu, memory, gpu = 0.0, 0, 0
        for node in self.nodes:
            allocated = node.allocated
            cpu += allocated.cpu
            memory += allocated.memory
            gpu += allocated.gpu
        return cpu, memory, gpu

    def utilization(self) -> dict:
        """Fractional CPU / memory / GPU utilization right now."""
        cap, alloc = self.capacity, self.allocated
        return {
            "cpu": alloc.cpu / cap.cpu if cap.cpu else 0.0,
            "memory": alloc.memory / cap.memory if cap.memory else 0.0,
            "gpu": alloc.gpu / cap.gpu if cap.gpu else 0.0,
        }

    def running_pods(self) -> List[Pod]:
        return [
            pod
            for node in self.nodes
            for pod in node.pods.values()
            if pod.phase == PodPhase.RUNNING
        ]


class Scheduler:
    """Best-fit decreasing pod scheduler over one cluster."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster

    def feasible(self, requests: ResourceQuantity) -> bool:
        """True if some node could ever host this request when empty."""
        return self.cluster.fits_a_node(requests)

    def try_schedule(self, pod: Pod) -> Optional[Node]:
        """Bind ``pod`` to the node with the least leftover CPU that fits.

        Returns the chosen node, or ``None`` if no node currently has
        room (the pod stays Pending).  Not-ready (crashed) nodes are
        never candidates, but still count toward :meth:`feasible` — a
        pod that only pends because of an outage must wait, not error.
        Raises :class:`SchedulingError` when the request exceeds every
        node's total capacity, since such a pod would pend forever.
        """
        requests = pod.requests
        best: Optional[Node] = None
        best_leftover = float("inf")
        for node in self.cluster.nodes:
            if not node.ready:
                continue
            free = node.free  # read once: ``can_fit`` and the leftover
            if requests.fits_within(free):
                leftover = free.cpu - requests.cpu
                if leftover < best_leftover:
                    best, best_leftover = node, leftover
        if best is None:
            # A node that fits now fits when empty, so only a pod that
            # waits needs the feasibility check.
            if not self.feasible(requests):
                raise SchedulingError(
                    f"pod {pod.metadata.name} requests {requests} "
                    f"exceed every node's capacity"
                )
            return None
        best.bind(pod)
        return best

    def release(self, pod: Pod) -> None:
        node_name = pod.node_name
        if node_name is None:
            return
        node = self.cluster.node(node_name)
        if node is not None:
            node.release(pod)
        # A binding onto a node the cluster no longer knows is stale by
        # definition; clear it so the pod cannot be "released" twice.
        pod.node_name = None
