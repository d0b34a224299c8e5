"""Multi-cluster workflow queue (paper Appendix B.A).

Ant Group schedules workflows across several clusters with different
shapes (GPU-heavy, storage-distant, CPU-rich).  A workflow carries a
business priority and a user quota, and is placed on the cluster
chosen by a weighted combination of:

(a) workflow priority, (b) cluster free CPU/memory capacity, (c) the
user's remaining CPU/memory quota, and (d) the user's remaining GPU
quota — the four properties the paper lists.

:class:`MultiClusterQueue` owns the quota accounting, reservations and
scoring; the order in which workflows are offered to it is the
admission pipeline's (:mod:`repro.engine.admission`), which calls
:meth:`MultiClusterQueue.try_place` per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from ..k8s.cluster import Cluster
from ..k8s.resources import ZERO, ResourceQuantity
from .spec import ExecutableWorkflow


class QuotaError(RuntimeError):
    """Raised when a submission exceeds the user's configured quota."""


@dataclass
class UserQuota:
    """Per-user resource quota tracked by the queue."""

    user: str
    cpu_limit: float
    memory_limit: int
    gpu_limit: int = 0
    cpu_used: float = 0.0
    memory_used: int = 0
    gpu_used: int = 0

    @staticmethod
    def _fraction(used: float, limit: float) -> float:
        # A zero limit means the user has no grant at all: 0 remaining.
        # (It used to read as 100% remaining — `1.0 - 0.0` — which made
        # placement scoring favour exactly the users who are exhausted.)
        if limit <= 0:
            return 0.0
        return max(0.0, 1.0 - used / limit)

    def remaining_fraction(self) -> Tuple[float, float]:
        """(cpu+mem fraction remaining, gpu fraction remaining)."""
        cpu_frac = self._fraction(self.cpu_used, self.cpu_limit)
        mem_frac = self._fraction(self.memory_used, self.memory_limit)
        gpu_frac = self._fraction(self.gpu_used, self.gpu_limit)
        return (cpu_frac + mem_frac) / 2.0, gpu_frac

    def can_charge(self, demand: ResourceQuantity) -> bool:
        return not (
            self.cpu_used + demand.cpu > self.cpu_limit
            or self.memory_used + demand.memory > self.memory_limit
            or self.gpu_used + demand.gpu > self.gpu_limit
        )

    def charge(self, demand: ResourceQuantity) -> None:
        if not self.can_charge(demand):
            raise QuotaError(f"user {self.user} quota exceeded by {demand}")
        self.cpu_used += demand.cpu
        self.memory_used += demand.memory
        self.gpu_used += demand.gpu

    def release(self, demand: ResourceQuantity) -> None:
        self.cpu_used = max(0.0, self.cpu_used - demand.cpu)
        self.memory_used = max(0, self.memory_used - demand.memory)
        self.gpu_used = max(0, self.gpu_used - demand.gpu)


@dataclass
class DeferredDequeue:
    """Signal that a workflow cannot be placed *right now*.

    Returned by :meth:`MultiClusterQueue.try_place` instead of dropping
    the workflow: the item is handed back to the caller, who offers it
    again once quota or headroom frees up.
    """

    item: "QueuedWorkflow"
    #: What blocked the placement: ``"quota"`` (the user's grant cannot
    #: absorb the demand right now) or ``"headroom"`` (no feasible
    #: cluster has admission capacity).  Preemption keys off this — only
    #: headroom blocks can be relieved by evicting running work.
    kind: str = "quota"


@dataclass
class QueuedWorkflow:
    workflow: ExecutableWorkflow
    user: str
    priority: int = 0
    #: Memoized :meth:`peak_demand` — placement passes call it once per
    #: candidate per pass, and steps are immutable after submission.
    _peak: Optional[ResourceQuantity] = field(
        default=None, repr=False, compare=False
    )
    #: Names of the clusters :meth:`MultiClusterQueue.eligible` admits,
    #: kept by the queue on first ask.
    _eligible: Optional[FrozenSet[str]] = field(
        default=None, repr=False, compare=False
    )

    def peak_demand(self) -> ResourceQuantity:
        """Upper bound of simultaneous demand: the sum of all steps."""
        if self._peak is None:
            total = ResourceQuantity()
            for step in self.workflow.steps.values():
                total = total + step.requests
            self._peak = total
        return self._peak


@dataclass
class MultiClusterQueue:
    """Places workflows on the best-scoring cluster with room for them.

    The placement score for (workflow, cluster) combines the paper's
    four factors with configurable weights; higher is better.  Only
    clusters that pass :meth:`eligible` and have admission headroom for
    the workflow are considered: GPU workflows go to clusters with GPU
    capacity.
    """

    clusters: List[Cluster]
    quotas: Dict[str, UserQuota] = field(default_factory=dict)
    priority_weight: float = 1.0
    capacity_weight: float = 2.0
    user_quota_weight: float = 1.0
    gpu_quota_weight: float = 1.0
    #: Keep CPU-only work off accelerator clusters whenever some
    #: CPU-only cluster could host it.  GPU nodes are the scarce,
    #: expensive resource (the paper's Ant clusters hold them apart);
    #: without this, placement scoring happily fills GPU clusters with
    #: CPU filler and the next GPU workflow queues behind it.  Off by
    #: default: the legacy score considered every cluster.
    protect_gpu: bool = False
    #: Demand already placed on each cluster but possibly not yet
    #: running (queued pods).  Scoring counts it against free capacity,
    #: so a burst of placements spreads instead of piling onto whichever
    #: cluster looked freest at the first placement.
    _reserved: Dict[str, ResourceQuantity] = field(default_factory=dict)
    #: Memoized admission headroom per cluster, invalidated whenever
    #: that cluster's reservation changes.  Entries carry the node
    #: count they were computed at so a grown cluster recomputes.
    _headroom_cache: Dict[str, Tuple[int, ResourceQuantity]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Which cluster each placed workflow reserved (for release()).
    _placements: Dict[str, str] = field(default_factory=dict)
    #: Times a release would have driven a reservation negative (a
    #: double-release or lost-placement symptom; clamped, but flagged).
    reservation_underflows: int = 0

    def _quota_for(self, user: str) -> UserQuota:
        """Mutating accessor for the *charge* paths: installs the
        effectively-unbounded default quota so usage is tracked."""
        if user not in self.quotas:
            self.quotas[user] = UserQuota(
                user=user, cpu_limit=1e9, memory_limit=10**18, gpu_limit=10**6
            )
        return self.quotas[user]

    def _quota_view(self, user: str) -> UserQuota:
        """Read-only quota lookup for scoring.

        Scoring must not mutate quota state: installing the unbounded
        default as a side effect of merely *scoring* a user meant a
        later explicit ``quotas[user] = ...`` setup silently replaced an
        object the queue was already accounting against.
        """
        quota = self.quotas.get(user)
        if quota is not None:
            return quota
        return UserQuota(
            user=user, cpu_limit=1e9, memory_limit=10**18, gpu_limit=10**6
        )

    @staticmethod
    def _clamped_fraction(free: float, capacity: float) -> float:
        """Free-capacity fraction, clamped to [0, 1].

        Scoring subtracts both live step allocations and reservations,
        which count a running workflow twice, so free capacity can go
        negative; un-clamped it produced *negative* fractions whose
        magnitude grew with how overcommitted the cluster was, skewing
        the weighted score instead of simply reading "full".
        """
        if not capacity:
            return 0.0
        return min(1.0, max(0.0, free / capacity))

    def _hosts(self, item: QueuedWorkflow) -> FrozenSet[str]:
        """The names of the clusters :meth:`eligible` admits ``item`` to."""
        demand = item.peak_demand()
        clusters = self.clusters
        if demand.gpu > 0:
            clusters = [cluster for cluster in clusters if cluster.capacity.gpu > 0]
        largest = item.workflow.largest_request()
        steps = item.workflow.steps.values()
        # Usually one node fits the largest request of each resource,
        # and so every step; otherwise each step must fit some node.
        fit = [
            cluster
            for cluster in clusters
            if cluster.fits_a_node(largest)
            or all(cluster.fits_a_node(step.requests) for step in steps)
        ]
        if demand.gpu == 0 and self.protect_gpu and any(
            cluster.capacity.gpu == 0 and demand.fits_within(cluster.capacity)
            for cluster in fit
        ):
            fit = [cluster for cluster in fit if cluster.capacity.gpu == 0]
        return frozenset([cluster.name for cluster in fit])

    def eligible(self, item: QueuedWorkflow, cluster: Cluster) -> bool:
        """Whether ``cluster`` may ever host ``item``, whatever its load.

        Every step must fit some node of the cluster: the operator binds
        a step's pod to one node, and a step larger than every node
        would pend forever.  GPU demand needs a cluster with GPUs.  With
        :attr:`protect_gpu`, CPU-only demand is kept off GPU clusters
        whenever some CPU-only cluster could hold it.  Placement and the
        admission pipeline's arrival gate, parked-candidate fit check
        and preemption victim search all ask this one question, so they
        agree on which clusters a workflow could use.

        None of it depends on load, so the answer for every cluster is
        kept on the item on first ask: an item is offered to one queue,
        whose clusters keep their nodes and its :attr:`protect_gpu`.
        """
        names = item._eligible
        if names is None:
            names = item._eligible = self._hosts(item)
        return cluster.name in names

    def _score(
        self,
        item: QueuedWorkflow,
        cluster: Cluster,
        quota_fractions: Optional[Tuple[float, float]] = None,
    ) -> float:
        """The paper's weighted placement score; higher is better.

        Scores any cluster it is given: :meth:`try_place` calls it only
        on clusters that passed :meth:`eligible` and the headroom fit,
        with the user's :meth:`UserQuota.remaining_fraction`, which is
        the same for every cluster it scores.
        """
        demand = item.peak_demand()
        needs_gpu = demand.gpu > 0
        capacity = cluster.capacity
        allocated_cpu, allocated_memory, _ = cluster.allocated_totals()
        reserved = self._reserved.get(cluster.name, ZERO)
        # ``capacity - allocated - reserved`` on plain numbers, clamped
        # at zero after each subtraction as ``ResourceQuantity.__sub__``
        # clamps, so the fractions keep their bits.
        free_cpu = max(0.0, capacity.cpu - allocated_cpu)
        free_cpu = max(0.0, free_cpu - reserved.cpu)
        free_memory = max(0, capacity.memory - allocated_memory)
        free_memory = max(0, free_memory - reserved.memory)
        cpu_frac = self._clamped_fraction(free_cpu, capacity.cpu)
        mem_frac = self._clamped_fraction(free_memory, capacity.memory)
        if quota_fractions is None:
            quota_fractions = self._quota_view(item.user).remaining_fraction()
        user_frac, gpu_frac = quota_fractions
        return (
            self.priority_weight * item.priority
            + self.capacity_weight * (cpu_frac + mem_frac) / 2.0
            + self.user_quota_weight * user_frac
            + self.gpu_quota_weight * (gpu_frac if needs_gpu else 0.0)
        )

    def _admission_headroom(self, cluster: Cluster) -> ResourceQuantity:
        """Capacity left for new placements at the admission level.

        Deliberately measured against the cluster's *total* capacity
        minus this queue's own reservations — not the operator's live
        step allocations, which rise and fall with every step.  Node
        lists are fixed for a run (a crash flips ``ready``, the capacity
        stays), so only :meth:`release` grows it, and only on the
        released workflow's cluster; :meth:`try_place` only shrinks it.
        The admission pipeline's wake rule depends on this "only
        releases grow headroom" invariant: a headroom-parked workflow
        is tried again only when a cluster it may fit was released.

        Memoized per cluster between reservation changes: placement
        passes and parked-candidate fit checks read it once per
        candidate, and the reservation only moves on place/release.
        """
        cached = self._headroom_cache.get(cluster.name)
        if cached is not None and cached[0] == len(cluster.nodes):
            return cached[1]
        reserved = self._reserved.get(cluster.name, ZERO)
        headroom = cluster.capacity - reserved
        self._headroom_cache[cluster.name] = (len(cluster.nodes), headroom)
        return headroom

    def try_place(
        self, item: QueuedWorkflow
    ) -> Union[DeferredDequeue, Tuple[QueuedWorkflow, Cluster]]:
        """Quota-charge ``item`` and pick its cluster.

        The caller orders candidates (the admission pipeline does, with
        priority aging and fairness) and offers them one at a time.
        Checks run cheapest and most decisive first, and each can end
        the call:

        1. the user's quota must absorb the item's peak demand right
           now, else a ``"quota"`` :class:`DeferredDequeue`;
        2. some cluster must pass :meth:`eligible`, else
           :class:`QuotaError` (permanent infeasibility, e.g. a GPU
           workflow with no GPU cluster attached);
        3. some eligible cluster must have admission headroom for the
           demand, else a ``"headroom"`` :class:`DeferredDequeue`;
        4. only the clusters left — those that can take the workflow
           now — are scored, and the best ``(-score, name)`` wins.

        A deferral therefore costs no scoring at all.  On success the
        quota is charged and the chosen cluster's reservation recorded;
        call :meth:`release` when the workflow finishes.
        """
        demand = item.peak_demand()
        quota = self._quota_for(item.user)
        if not quota.can_charge(demand):
            return DeferredDequeue(item=item, kind="quota")
        candidates = [
            cluster for cluster in self.clusters if self.eligible(item, cluster)
        ]
        if not candidates:
            raise QuotaError(
                f"workflow {item.workflow.name}: no cluster can host its demand"
            )
        candidates = [
            cluster
            for cluster in candidates
            if demand.fits_within(self._admission_headroom(cluster))
        ]
        if not candidates:
            return DeferredDequeue(item=item, kind="headroom")
        fractions = quota.remaining_fraction()
        _, best_cluster = min(
            ((self._score(item, cluster, fractions), cluster) for cluster in candidates),
            key=lambda pair: (-pair[0], pair[1].name),
        )
        quota.charge(demand)
        current = self._reserved.get(best_cluster.name, ZERO)
        self._reserved[best_cluster.name] = current + demand
        self._headroom_cache.pop(best_cluster.name, None)
        self._placements[item.workflow.name] = best_cluster.name
        return item, best_cluster

    def release(self, item: QueuedWorkflow) -> None:
        """Return the quota charge and reservation when it completes.

        Idempotent: releasing a workflow that holds no placement (double
        release, or one that was deferred and never charged) is a no-op
        — blindly refunding quota here would erase *other* workflows'
        legitimate charges.  A reservation that would go negative is
        clamped and counted in :attr:`reservation_underflows`.
        """
        cluster_name = self._placements.pop(item.workflow.name, None)
        if cluster_name is None:
            return
        demand = item.peak_demand()
        quota = self.quotas.get(item.user)
        if quota is not None:
            # A placement always charged via _quota_for, so the quota
            # exists; guarded anyway so release never installs one.
            quota.release(demand)
        current = self._reserved.get(cluster_name, ZERO)
        if (
            demand.cpu > current.cpu + 1e-9
            or demand.memory > current.memory
            or demand.gpu > current.gpu
        ):
            # Accounting drift: more released than was ever reserved.
            self.reservation_underflows += 1
        self._reserved[cluster_name] = current - demand  # subtraction clamps at 0
        self._headroom_cache.pop(cluster_name, None)

    def tenant_usage(self, user: str) -> Tuple[float, int, int]:
        """Currently charged ``(cpu, memory, gpu)`` for one tenant.

        The live usage feed for fairness shares: exactly what this
        queue's quota accounting has charged and not yet released.
        """
        quota = self.quotas.get(user)
        if quota is None:
            return (0.0, 0, 0)
        return (quota.cpu_used, quota.memory_used, quota.gpu_used)

    def fleet_capacity(self) -> ResourceQuantity:
        """Total capacity across all attached clusters."""
        total = ResourceQuantity()
        for cluster in self.clusters:
            total = total + cluster.capacity
        return total

    def headroom(self, cluster: Cluster) -> ResourceQuantity:
        """Public admission-headroom view (capacity minus reservations)."""
        return self._admission_headroom(cluster)
