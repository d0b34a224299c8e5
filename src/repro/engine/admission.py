"""Continuous, arrival-driven admission & scheduling.

The one placement path of the engine: workflows *arrive over time*, and
every placement decision is triggered by an arrival or a completion
event.  A batch is just a set of simultaneous arrivals.

* Workflows arrive as clock events (open-loop arrival traces from
  :mod:`repro.workloads.arrivals`, or ad-hoc ``submit()`` calls).
* **Admission control** applies bounded-queue backpressure: when the
  pending queue is full, the arrival is rejected (shed) instead of
  growing the backlog without bound; permanently infeasible work
  (demand no cluster or quota grant can ever hold) is rejected at the
  door instead of waiting forever.
* **Placement is incremental**: each workflow completion releases its
  quota charge and admission reservation and immediately triggers a
  re-placement pass, so deferred work starts the moment capacity
  frees — there are no global retry rounds.
* **Priority aging** raises a waiting workflow's effective priority by
  ``aging_rate`` points per queued second, so a low-priority tenant
  cannot be starved indefinitely by a stream of high-priority arrivals.
* **Fairness & SLO lanes** (:mod:`repro.engine.fairness`): each pass
  places SLO lanes in order (``serving`` before ``batch``) and sorts
  within a lane by a pluggable :class:`FairnessPolicy` — the default
  ``strict-priority`` reproduces the aged-priority sort bit-for-bit,
  while ``weighted-fair`` / ``drf`` order tenants by live weighted
  share so no priority stream can starve an idle tenant.  With
  ``preemption=True``, serving-lane work blocked on headroom may
  checkpoint-evict over-share batch-lane workflows, which resume from
  their surviving record (possibly on another cluster).

Every admission decision (admit / reject / place / defer / complete)
is counted in the shared metrics registry and visible to the tracer,
and the pipeline reuses :class:`~repro.engine.queue.MultiClusterQueue`
for quota accounting, reservations and placement scoring — so the
chaos invariant checker's conservation sweep applies unchanged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..k8s.cluster import Cluster
from ..obs.metrics import SHARE_BUCKETS, MetricsRegistry
from ..obs.trace import NullTracer
from .fairness import (
    DEFAULT_SLO_CLASS,
    LANES,
    SLO_BATCH,
    SLO_SERVING,
    FairnessPolicy,
    TenantShares,
    make_fairness_policy,
)
from .journal import Journal
from .operator import WorkflowOperator
from .parking import HeadroomParking
from .queue import DeferredDequeue, MultiClusterQueue, QueuedWorkflow, QuotaError, UserQuota
from .simclock import SimClock
from .spec import ExecutableWorkflow
from .status import WorkflowRecord


class AdmissionError(RuntimeError):
    """Raised on admission misuse: an arrival in the past or an unknown
    SLO class.  An arrival whose workflow name is already pending or
    running is not raised but rejected (``reason="duplicate-name"``)."""


@dataclass
class AdmissionRecord:
    """The full lifecycle of one submission through the pipeline.

    Live-updated: callers keep the object returned by ``submit*()`` and
    watch it progress.  ``queue_latency`` — the service-level metric the
    benchmark tracks — is the arrival→placement wait.
    """

    workflow_name: str
    user: str
    priority: int
    arrival_time: float
    admitted: Optional[bool] = None
    reject_reason: Optional[str] = None
    admit_time: Optional[float] = None
    place_time: Optional[float] = None
    finish_time: Optional[float] = None
    cluster_name: Optional[str] = None
    record: Optional[WorkflowRecord] = None
    #: Placement passes this workflow sat through pending.  Settled when
    #: it places or is rejected; while it waits, it counts only the
    #: passes before its last placement, if any.
    deferrals: int = 0
    #: SLO lane the submission rides in (``serving`` / ``batch``).
    slo_class: str = DEFAULT_SLO_CLASS
    #: Times this workflow was checkpoint-evicted for an over-share tenant.
    preemptions: int = 0
    #: When a previously-preempted workflow was last restored (placed
    #: again).  The preemption victim search skips workflows inside
    #: their post-restore cooldown window, so a victim that just paid
    #: the checkpoint/migration cost cannot be evicted again before it
    #: makes any progress (eviction thrash).
    restored_at: Optional[float] = None
    #: Caller hook fired when the workflow completes (after the
    #: pipeline's own release/wake bookkeeping).  Submitting from the
    #: hook is legal — this is how multi-statement scripts chain
    #: statement N+1 onto statement N's completion.
    on_complete: Optional[Callable[[WorkflowRecord], None]] = field(
        default=None, repr=False, compare=False
    )
    #: Results of earlier split parts, for the operator at placement; a
    #: class attribute, so the submissions that forward none pay nothing.
    initial_results = None

    @property
    def queue_latency(self) -> Optional[float]:
        if self.place_time is None:
            return None
        return self.place_time - self.arrival_time

    def effective_priority(self, now: float, aging_rate: float) -> float:
        """Base priority plus the age bonus earned while waiting."""
        return self.priority + aging_rate * max(0.0, now - self.arrival_time)


@dataclass
class _Pending:
    """One admitted-but-unplaced workflow in the admission queue."""

    seq: int
    queued: QueuedWorkflow
    admission: AdmissionRecord
    #: The placement-pass epoch at which it joined the pending set (at
    #: admission, or when preemption re-queued it).
    since: int


class AdmissionPipeline:
    """Arrival-driven admission control + incremental placement."""

    def __init__(
        self,
        clusters: List[Cluster],
        quotas: Optional[Dict[str, UserQuota]] = None,
        seed: int = 0,
        clock: Optional[SimClock] = None,
        max_pending: Optional[int] = None,
        aging_rate: float = 0.0,
        tracer: Optional[object] = None,
        metrics: Optional[MetricsRegistry] = None,
        fairness: Union[str, FairnessPolicy, None] = "strict-priority",
        tenant_weights: Optional[Dict[str, float]] = None,
        preemption: bool = False,
        max_preemptions: int = 2,
        preempt_cooldown: float = 60.0,
        protect_gpu: bool = False,
        fast: bool = True,
        journal: Optional[Journal] = None,
        cache_manager: Optional[object] = None,
        skip_cached_steps: bool = False,
        retry_policy: Optional[object] = None,
    ) -> None:
        if not clusters:
            raise ValueError("admission pipeline needs at least one cluster")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1 or None: {max_pending}")
        if aging_rate < 0:
            raise ValueError(f"aging_rate must be >= 0: {aging_rate}")
        if max_preemptions < 0:
            raise ValueError(f"max_preemptions must be >= 0: {max_preemptions}")
        if preempt_cooldown < 0:
            raise ValueError(f"preempt_cooldown must be >= 0: {preempt_cooldown}")
        self.clock = clock or SimClock()
        #: Shared journal: admission decisions land in each workflow's
        #: stream as ``admission-*`` marker records (pure decision log —
        #: the materializer ignores them), and every per-cluster
        #: operator journals its step events into the same log.
        self.journal = journal
        self.queue = MultiClusterQueue(
            clusters=clusters, quotas=dict(quotas or {}), protect_gpu=protect_gpu
        )
        self.tracer = tracer if tracer is not None else NullTracer()
        self._traced = not isinstance(self.tracer, NullTracer)
        self.metrics = metrics or MetricsRegistry()
        #: Fast mode parks placement-blocked candidates on wait lists
        #: keyed by what could unblock them instead of re-trying every
        #: pending workflow on every pass; ``fast=False`` is the naive
        #: reference path the ``engine_fast`` verify oracle diffs
        #: against.  The flag threads through to each cluster operator.
        self.fast = fast
        #: Optional artifact cache shared by every cluster operator —
        #: cross-workflow reuse (paper Sec. V.B) then applies to
        #: admission-placed work, not just direct operator submissions.
        self.cache_manager = cache_manager
        self.operators: Dict[str, WorkflowOperator] = {
            cluster.name: WorkflowOperator(
                self.clock,
                cluster,
                cache_manager=cache_manager,
                retry_policy=retry_policy,
                seed=seed,
                skip_cached_steps=skip_cached_steps,
                tracer=self.tracer,
                metrics=self.metrics,
                journal=self.journal,
                fast=fast,
            )
            for cluster in clusters
        }
        #: Bounded admission queue depth (None = unbounded).
        self.max_pending = max_pending
        #: Effective-priority points gained per second of queue wait.
        self.aging_rate = aging_rate
        #: Cross-tenant ordering policy within each lane.
        self.fairness = make_fairness_policy(fairness)
        #: Checkpoint-evict over-share batch work for blocked serving
        #: arrivals (off by default: back-compat).
        self.preemption = preemption
        self.max_preemptions = max_preemptions
        #: Virtual seconds a restored preemption victim is ineligible
        #: for re-eviction, so migration cost is amortised by progress.
        self.preempt_cooldown = preempt_cooldown
        #: Live weighted tenant shares over fleet capacity, read by the
        #: fairness policies and the preemption victim search.
        self.shares = TenantShares(
            self.queue.fleet_capacity(), self.queue.tenant_usage, tenant_weights
        )

        #: Admitted, not yet placed — ordered at each pass by the
        #: fairness policy (strict-priority = aged priority, the seed sort).
        #: In fast mode this holds only the *active* candidates; blocked
        #: ones park on the wait lists below until a release could
        #: plausibly unblock them.
        self._pending: List[_Pending] = []
        #: Candidates blocked on their own tenant's quota, woken when a
        #: workflow of that tenant releases its charge.
        self._parked_user: Dict[str, List[_Pending]] = {}
        #: Candidates blocked on cluster headroom, shelved by the room
        #: they need on each cluster they may use.  A pass tries one only
        #: if it fits a cluster freed since the previous pass, at its
        #: turn (see :meth:`_placement_pass`).
        self._parked_headroom = HeadroomParking(self.queue)
        #: What releases returned since the previous pass started, drained
        #: at the next pass (so a burst of same-instant releases costs one
        #: merge): the tenants whose quota-parked candidates wake, and the
        #: names of the clusters whose reservations came back.
        self._wake_users: set = set()
        self._freed: set = set()
        #: Placement passes run so far, the epoch deferrals are counted by.
        self._epoch = 0
        #: Incremental depth bookkeeping (active + parked), replacing
        #: O(pending) scans in arrival checks and gauge updates.
        self._pending_total = 0
        self._lane_counts: Dict[str, int] = {name: 0 for name in LANES}
        self._seq = itertools.count()
        self._pass_scheduled = False
        #: Placed-and-running submissions by workflow name (preemption pool).
        self._running: Dict[str, _Pending] = {}
        #: Names of admitted workflows not yet finished (pending, parked
        #: or running).  The queue's placements, ``_running`` and each
        #: operator's run state are keyed by name, so a second arrival
        #: under one of these names is rejected.
        self._in_flight: set = set()
        #: Every submission's admission record, in arrival-schedule order.
        self.records: List[AdmissionRecord] = []
        #: Placed workflows in placement order (the dispatch history).
        self.placed: List[AdmissionRecord] = []

        m_events = self.metrics.counter(
            "admission_events_total", "Scheduler pipeline events by kind"
        )
        #: One bound series per event kind.
        self._m_event = {
            event: m_events.labels(event=event)
            for event in (
                "arrival",
                "rejection",
                "admit",
                "pass",
                "deferral",
                "placement",
                "preemption",
                "completion",
            )
        }
        self._m_rejected = self.metrics.counter(
            "admission_rejected_total", "Arrivals shed at admission, by reason"
        )
        self._m_depth = self.metrics.gauge(
            "admission_pending_depth", "Admitted workflows awaiting placement"
        ).labels()
        m_lane_depth = self.metrics.gauge(
            "admission_lane_depth", "Pending depth per SLO lane"
        )
        #: ``(lane name, its depth series)`` in placement order.
        self._m_lane_depths = [(lane, m_lane_depth.labels(lane=lane)) for lane in LANES]
        self._m_latency = self.metrics.histogram(
            "admission_queue_latency_seconds", "Arrival-to-placement wait"
        ).labels()
        self._m_preempted = self.metrics.counter(
            "admission_preemptions_total", "Checkpoint evictions by victim tenant"
        )
        self._m_share = self.metrics.gauge(
            "admission_tenant_dominant_share", "Weighted dominant share per tenant"
        )
        m_share_hist = self.metrics.histogram(
            "admission_tenant_share_at_placement",
            "Tenant dominant share observed at each placement",
            buckets=SHARE_BUCKETS,
        )
        self._m_share_at_placement = {
            lane: m_share_hist.labels(lane=lane) for lane in LANES
        }

    # ------------------------------------------------------------- journaling

    def _journal_event(
        self, admission: AdmissionRecord, kind: str, **payload: object
    ) -> None:
        """Append an ``admission-*`` decision record to the workflow's stream."""
        if self.journal is None:
            return
        self.journal.append(
            admission.workflow_name,
            kind,
            self.clock.now,
            payload={"user": admission.user, "lane": admission.slo_class, **payload},
        )

    # ------------------------------------------------------------- submission

    def _resolve_lane(self, slo_class: Optional[str], workflow_name: str) -> str:
        resolved = slo_class if slo_class is not None else DEFAULT_SLO_CLASS
        if resolved not in LANES:
            raise AdmissionError(
                f"workflow {workflow_name}: unknown slo_class {resolved!r}; "
                f"lanes: {list(LANES)}"
            )
        return resolved

    def submit_at(
        self,
        at: float,
        workflow: ExecutableWorkflow,
        user: str = "default",
        priority: int = 0,
        slo_class: Optional[str] = None,
        on_complete: Optional[Callable[[WorkflowRecord], None]] = None,
        initial_results: Optional[Dict[str, Optional[str]]] = None,
    ) -> AdmissionRecord:
        """Schedule ``workflow`` to arrive at virtual time ``at``.

        Returns the live :class:`AdmissionRecord`; arrival, admission
        and placement happen as clock events when the simulation runs.
        ``on_complete`` fires when the workflow finishes (never for
        rejected submissions) — submitting follow-up work from it is
        supported, and ``initial_results`` reaches the operator.
        """
        if at < self.clock.now:
            raise AdmissionError(
                f"workflow {workflow.name}: arrival at {at} is in the past "
                f"(now={self.clock.now})"
            )
        admission = AdmissionRecord(
            workflow_name=workflow.name,
            user=user,
            priority=priority,
            arrival_time=at,
            slo_class=self._resolve_lane(slo_class, workflow.name),
            on_complete=on_complete,
        )
        if initial_results:
            admission.initial_results = initial_results
        queued = QueuedWorkflow(workflow=workflow, user=user, priority=priority)
        self.records.append(admission)
        self.clock.schedule_at(at, lambda: self._on_arrival(queued, admission))
        return admission

    def submit(
        self,
        workflow: ExecutableWorkflow,
        user: str = "default",
        priority: int = 0,
        slo_class: Optional[str] = None,
    ) -> AdmissionRecord:
        """Arrival right now (service-style ``submit`` call)."""
        return self.submit_at(
            self.clock.now, workflow, user=user, priority=priority, slo_class=slo_class
        )

    # -------------------------------------------------------------- admission

    def _reject(self, admission: AdmissionRecord, reason: str, label: str) -> None:
        admission.admitted = False
        admission.reject_reason = reason
        self._m_event["rejection"].inc()
        self._m_rejected.inc(reason=label)
        self._journal_event(admission, "admission-rejected", reason=reason)
        if self._traced:
            self.tracer.instant(
                "admission-reject",
                "admission",
                self.clock.now,
                workflow=admission.workflow_name,
                user=admission.user,
                reason=reason,
            )

    def _never_placeable(self, queued: QueuedWorkflow) -> Optional[str]:
        """A reason this workflow can never place, or None if it can.

        Checked once at arrival so the pending queue only ever holds
        work that *will* eventually run — which is what makes the
        completion-triggered re-placement wakeup sufficient (no
        deadlocked waiters, no polling).  A workflow with a step larger
        than every node of every cluster that could otherwise host it
        is one: placed anyway, its pod could never bind.
        """
        demand = queued.peak_demand()
        feasible = [
            cluster
            for cluster in self.queue.clusters
            if self.queue.eligible(queued, cluster)
        ]
        if not feasible:
            return (
                f"no cluster can host its demand {demand} with each step on one node"
            )
        if not any(demand.fits_within(cluster.capacity) for cluster in feasible):
            return f"demand {demand} exceeds every cluster's total capacity"
        quota = self.queue.quotas.get(queued.user)
        if quota is not None and (
            demand.cpu > quota.cpu_limit
            or demand.memory > quota.memory_limit
            or demand.gpu > quota.gpu_limit
        ):
            return f"demand {demand} exceeds user {queued.user}'s quota grant"
        return None

    def _on_arrival(self, queued: QueuedWorkflow, admission: AdmissionRecord) -> None:
        self._m_event["arrival"].inc()
        if admission.workflow_name in self._in_flight:
            self._reject(
                admission,
                f"workflow {admission.workflow_name} is already pending or running",
                label="duplicate-name",
            )
            return
        reason = self._never_placeable(queued)
        if reason is not None:
            self._reject(admission, reason, label="infeasible")
            return
        if self.max_pending is not None and self._pending_total >= self.max_pending:
            self._reject(
                admission,
                f"admission queue full ({self.max_pending} pending)",
                label="queue-full",
            )
            return
        admission.admitted = True
        admission.admit_time = self.clock.now
        self._m_event["admit"].inc()
        self._in_flight.add(admission.workflow_name)
        self._journal_event(admission, "admission-admitted", priority=admission.priority)
        self._pending.append(
            _Pending(
                seq=next(self._seq), queued=queued, admission=admission, since=self._epoch
            )
        )
        self._track_pending(admission, 1)
        self._set_depth_gauges()
        self._schedule_pass()

    # -------------------------------------------------------------- placement

    def _schedule_pass(self) -> None:
        """Coalesce placement work into one pass per virtual instant.

        Simultaneous arrivals (a batch submitted at the same timestamp)
        are all admitted before the pass fires, so placement order is
        decided by aged priority across the whole batch — not by
        arrival sequence within it.
        """
        if self._pass_scheduled:
            return
        self._pass_scheduled = True
        self.clock.schedule(0.0, self._placement_pass)

    def _track_pending(self, admission: AdmissionRecord, delta: int) -> None:
        self._pending_total += delta
        self._lane_counts[admission.slo_class] += delta

    def _set_depth_gauges(self) -> None:
        self._m_depth.set(self._pending_total)
        for name, depth in self._m_lane_depths:
            depth.set(self._lane_counts[name])

    def _all_pending(self) -> List[_Pending]:
        """Active + parked candidates merged back into seq order."""
        if not self._parked_headroom and not self._parked_user:
            return self._pending
        merged = list(self._pending)
        merged.extend(self._parked_headroom.values())
        for parked in self._parked_user.values():
            merged.extend(parked)
        merged.sort(key=lambda p: p.seq)
        return merged

    def _wake_parked(self, user: str, cluster_name: str) -> None:
        """Note what a release returned, for the next placement pass.

        Quota-parked candidates wake only when *their* tenant released.
        Headroom-parked ones are due only on ``cluster_name``: admission
        headroom grows only when a release returns a reservation
        (:meth:`MultiClusterQueue._admission_headroom`), so a candidate
        that fitted no cluster when last checked can fit only a cluster
        released since.  Both are drained at the start of the next pass
        — passes are coalesced per virtual instant, so a burst of
        same-instant completions costs one merge, not one per release.
        """
        self._wake_users.add(user)
        self._freed.add(cluster_name)

    def _fits_freed(self, pending: _Pending, freed: List[Cluster]) -> bool:
        """Whether a headroom-parked candidate fits a freed cluster now.

        :meth:`MultiClusterQueue.try_place`'s headroom gate over the
        ``freed`` clusters only: some cluster the queue deems
        :meth:`~MultiClusterQueue.eligible` must fit the peak demand.
        Every other cluster did not fit the candidate when it was last
        checked, and has not grown since.
        """
        queued = pending.queued
        demand = queued.peak_demand()
        queue = self.queue
        for cluster in freed:
            if queue.eligible(queued, cluster) and demand.fits_within(
                queue.headroom(cluster)
            ):
                return True
        return False

    def _placement_pass(self) -> None:
        """Offer every active candidate to the queue, lane by lane.

        Fast mode tries a headroom-parked candidate only where the naive
        path could place it, which rests on two invariants:

        * admission headroom grows only when a release returns a
          reservation, and within a pass it only shrinks (placements
          consume it; releases are separate clock events, or come after
          the lane loop for preemption).  So a parked candidate fits no
          cluster but those freed since it was last checked, and one
          that fits none of them when its lane starts cannot place in
          this pass — it is not even sorted.  The parking index
          (:class:`~repro.engine.parking.HeadroomParking`) answers which
          fit without visiting the ones too large for a freed cluster.
        * fitting a freed cluster at its turn is exactly ``try_place``'s
          headroom gate, so a candidate that fails it would have
          deferred in the naive pass too.  It stays parked untouched.

        Deferrals are counted by pass epochs: every candidate still
        pending after the lane loop deferred in this pass.  A pass bumps
        the epoch whenever anything is pending, and the naive path tries
        every pending candidate, so this is its per-try count.
        """
        self._pass_scheduled = False
        freed = [c for c in self.queue.clusters if c.name in self._freed]
        self._freed.clear()
        wake_users, self._wake_users = self._wake_users, set()
        if self._pending_total == 0:
            return
        self._m_event["pass"].inc()
        self._epoch += 1
        for user in wake_users:
            self._pending.extend(self._parked_user.pop(user, ()))
        parked_headroom = self._parked_headroom
        now = self.clock.now
        aging_rate = self.aging_rate
        still_pending: List[_Pending] = []
        #: Serving work blocked on headroom (not quota) this pass.
        preempt_candidates: List[_Pending] = []
        for lane in LANES:
            # sorted() evaluates every key before the lane places
            # anything, so the fast path reads each tenant's share once
            # per lane; the next lane sorts by the shares this one moved.
            shares = self.shares.snapshot() if self.fast else self.shares
            # Asked at the lane's start, when headroom is what earlier
            # lanes left: a candidate that fits no freed cluster now
            # cannot fit one at its turn.
            woken = parked_headroom.fitting(freed, lane)
            candidates = sorted(
                itertools.chain(
                    (p for p in self._pending if p.admission.slo_class == lane),
                    woken,
                ),
                key=lambda p: self.fairness.key(
                    p.admission,
                    p.seq,
                    now=now,
                    aging_rate=aging_rate,
                    shares=shares,
                ),
            )
            # Preemption needs the highest-ranked blocked serving
            # candidate *every* pass, so that lane never parks then.
            may_preempt = lane == SLO_SERVING and self.preemption
            may_park = self.fast and not may_preempt
            for pending in candidates:
                if pending.seq in parked_headroom:
                    if not self._fits_freed(pending, freed):
                        continue
                    parked_headroom.unpark(pending)
                try:
                    placed = self.queue.try_place(pending.queued)
                except QuotaError as exc:
                    # Feasibility was vetted at arrival, so this is a quota
                    # grant shrinking mid-flight or direct queue misuse —
                    # shed the workflow rather than wait on a wakeup that
                    # cannot come.
                    pending.admission.deferrals += self._epoch - 1 - pending.since
                    self._reject(pending.admission, str(exc), label="infeasible")
                    self._track_pending(pending.admission, -1)
                    self._in_flight.discard(pending.admission.workflow_name)
                    continue
                if isinstance(placed, DeferredDequeue):
                    if may_park:
                        # Placeability is monotone until a release: more
                        # placements only consume capacity.  Park until
                        # the release that could unblock this candidate.
                        if placed.kind == "quota":
                            self._parked_user.setdefault(
                                pending.queued.user, []
                            ).append(pending)
                        else:
                            parked_headroom.park(pending)
                    else:
                        still_pending.append(pending)
                    if may_preempt and placed.kind == "headroom":
                        preempt_candidates.append(pending)
                    continue
                _, cluster = placed
                self._track_pending(pending.admission, -1)
                self._start(pending, cluster)
        # Read before preemption re-queues its victims, which did not
        # wait in this pass.
        if self._pending_total:
            self._m_event["deferral"].inc(self._pending_total)
        still_pending.sort(key=lambda p: p.seq)
        self._pending = still_pending
        self._set_depth_gauges()
        if preempt_candidates:
            # Evict for the highest-ranked blocked serving workflow only;
            # the wakeup pass re-sorts and may place the rest.
            if self._preempt_for(preempt_candidates[0]):
                self._schedule_pass()

    # ------------------------------------------------------------- preemption

    def _preempt_for(self, blocked: _Pending) -> int:
        """Checkpoint-evict over-share batch work to fit ``blocked``.

        Victims are running workflows in the batch lane owned by
        a *different* tenant whose weighted dominant share exceeds the
        blocked tenant's — i.e. preemption only ever transfers capacity
        down the share order, so it converges instead of thrashing.
        Restored victims are additionally protected by a re-preemption
        cooldown (``preempt_cooldown`` virtual seconds after being
        placed again): without it, the same over-share workflow is
        evicted the moment it resumes, repaying its checkpoint and
        migration cost with zero forward progress, over and over, until
        ``max_preemptions`` finally fails it out of the victim pool.
        Returns the number of victims evicted.
        """
        now = self.clock.now
        demand = blocked.queued.peak_demand()
        # The clusters try_place could give this demand: eligible (steps
        # fit its nodes, GPU rule, protect_gpu) and big enough once emptied.
        feasible = [
            cluster
            for cluster in self.queue.clusters
            if self.queue.eligible(blocked.queued, cluster)
            and demand.fits_within(cluster.capacity)
        ]
        if not feasible:
            return 0

        def fits_somewhere() -> bool:
            return any(
                demand.fits_within(self.queue.headroom(cluster))
                for cluster in feasible
            )

        feasible_names = {cluster.name for cluster in feasible}
        blocked_share = self.shares.dominant_share(blocked.admission.user)
        victims = [
            running
            for running in self._running.values()
            if running.admission.slo_class == SLO_BATCH
            and running.admission.user != blocked.admission.user
            and running.admission.preemptions < self.max_preemptions
            # Evicting work on a cluster the blocked demand can never
            # use frees nothing for it — only victims on feasible
            # clusters count.
            and running.admission.cluster_name in feasible_names
            and running.admission.record is not None
            and not running.admission.record.phase.is_terminal()
            # Re-preemption cooldown: a just-restored victim gets
            # ``preempt_cooldown`` virtual seconds to make progress
            # before it is eligible again.
            and (
                running.admission.restored_at is None
                or now - running.admission.restored_at >= self.preempt_cooldown
            )
            and self.shares.dominant_share(running.admission.user) > blocked_share
        ]
        victims.sort(
            key=lambda p: (
                -self.shares.dominant_share(p.admission.user),
                -(p.admission.place_time or 0.0),
                p.admission.workflow_name,
            )
        )
        evicted = 0
        for victim in victims:
            if fits_somewhere() or evicted >= 4:
                break
            if self._preempt(victim):
                evicted += 1
        return evicted

    def _preempt(self, victim: _Pending) -> bool:
        """Checkpoint one running workflow back into the pending queue.

        The operator interrupts in-flight attempts (charging only the
        work done, billing infra — never app — failure budget), the queue
        refunds the quota charge and reservation, and the admission
        record re-enters ``_pending`` with a fresh sequence number so it
        resumes — possibly on a *different* cluster (checkpoint
        migration) — from its surviving :class:`WorkflowRecord`.
        """
        admission = victim.admission
        cluster_name = admission.cluster_name
        if cluster_name is None:
            return False
        record = self.operators[cluster_name].checkpoint_workflow(
            admission.workflow_name
        )
        if record is None:
            return False
        self.queue.release(victim.queued)
        self._wake_parked(victim.queued.user, cluster_name)
        self._running.pop(admission.workflow_name, None)
        if admission in self.placed:
            self.placed.remove(admission)
        admission.record = record
        admission.preemptions += 1
        admission.place_time = None
        admission.cluster_name = None
        self._m_event["preemption"].inc()
        self._m_preempted.inc(tenant=admission.user)
        self._journal_event(
            admission,
            "admission-preempted",
            cluster=cluster_name,
            preemptions=admission.preemptions,
        )
        if self._traced:
            self.tracer.instant(
                "admission-preempt",
                "admission",
                self.clock.now,
                workflow=admission.workflow_name,
                user=admission.user,
                cluster=cluster_name,
                preemptions=admission.preemptions,
            )
        self._pending.append(
            _Pending(
                seq=next(self._seq),
                queued=victim.queued,
                admission=admission,
                since=self._epoch,
            )
        )
        self._track_pending(admission, 1)
        self._set_depth_gauges()
        return True

    def _start(self, pending: _Pending, cluster: Cluster) -> None:
        admission = pending.admission
        admission.deferrals += self._epoch - 1 - pending.since
        admission.place_time = self.clock.now
        admission.cluster_name = cluster.name
        if admission.preemptions > 0:
            admission.restored_at = self.clock.now
        self._m_event["placement"].inc()
        self._journal_event(
            admission,
            "admission-placed",
            cluster=cluster.name,
            deferrals=admission.deferrals,
        )
        self._m_latency.observe(admission.queue_latency)
        if self._traced and admission.queue_latency > 0:
            self.tracer.add_span(
                "admission-queue",
                "admission",
                admission.arrival_time,
                self.clock.now,
                workflow=admission.workflow_name,
                user=admission.user,
                cluster=cluster.name,
                deferrals=admission.deferrals,
            )
        operator = self.operators[cluster.name]
        admission.record = operator.submit(
            pending.queued.workflow,
            record=admission.record,
            on_complete=lambda record: self._on_completion(pending, record),
            initial_results=admission.initial_results,
        )
        self._running[admission.workflow_name] = pending
        self.placed.append(admission)
        self._m_share.set(
            self.shares.dominant_share(admission.user), tenant=admission.user
        )
        self._m_share_at_placement[admission.slo_class].observe(
            self.shares.dominant_share(admission.user)
        )

    def _on_completion(self, pending: _Pending, record: WorkflowRecord) -> None:
        """A workflow finished: free its charges and re-attempt placement.

        Every completion releases quota and admission headroom and
        immediately wakes the placement pass, so deferred work needs no
        retry rounds.
        """
        self.queue.release(pending.queued)
        self._wake_parked(pending.queued.user, pending.admission.cluster_name)
        self._running.pop(pending.admission.workflow_name, None)
        self._in_flight.discard(pending.admission.workflow_name)
        pending.admission.finish_time = self.clock.now
        self._m_event["completion"].inc()
        self._journal_event(
            pending.admission, "admission-finished", phase=record.phase.value
        )
        self._m_share.set(
            self.shares.dominant_share(pending.admission.user),
            tenant=pending.admission.user,
        )
        if pending.admission.on_complete is not None:
            # After release/wake bookkeeping, so follow-up submissions
            # made from the hook see the freed quota and headroom.
            pending.admission.on_complete(record)
        self._schedule_pass()

    # ------------------------------------------------------------------ drive

    def run(self, until: Optional[float] = None) -> float:
        """Advance the shared clock until arrivals and work drain."""
        return self.clock.run(until=until)

    # ------------------------------------------------------------- inspection

    def pending_workflows(self) -> List[str]:
        """Names of admitted workflows still awaiting placement."""
        return [pending.queued.workflow.name for pending in self._all_pending()]

    def rejected(self) -> List[AdmissionRecord]:
        return [record for record in self.records if record.admitted is False]

    def completed_records(self) -> List[WorkflowRecord]:
        """Workflow records of every placed submission, placement order."""
        return [
            admission.record
            for admission in self.placed
            if admission.record is not None
        ]

    def queue_latencies(self) -> List[float]:
        """Arrival-to-placement waits of all placed workflows."""
        return [
            admission.queue_latency
            for admission in self.placed
            if admission.queue_latency is not None
        ]

    def _waits(self) -> List[Tuple[str, float]]:
        """(user, wait) pairs: placed latencies plus live pending waits.

        Pending waits use ``now - arrival_time`` — the workflow still
        sitting in the queue is the one actually starving, and leaving
        it out until it lands (the pre-fix behaviour) made the gap
        metric blind to exactly the victims it exists to expose.
        """
        now = self.clock.now
        waits = [
            (admission.user, admission.queue_latency)
            for admission in self.placed
            if admission.queue_latency is not None
        ]
        waits.extend(
            (p.admission.user, max(0.0, now - p.admission.arrival_time))
            for p in self._all_pending()
        )
        return waits

    def starvation_gap(self) -> float:
        """The worst arrival-to-placement wait seen so far (seconds).

        Includes workflows still pending (wait measured to ``now``), so
        a starving queue shows a growing gap *before* anything lands.
        """
        return max((wait for _, wait in self._waits()), default=0.0)

    def tenant_starvation_gaps(self) -> Dict[str, float]:
        """Per-tenant worst wait (placed or still pending), by user."""
        gaps: Dict[str, float] = {}
        for user, wait in self._waits():
            if wait > gaps.get(user, -1.0):
                gaps[user] = wait
        return gaps

    def tenant_queue_latencies(self) -> Dict[str, List[float]]:
        """Placed arrival-to-placement waits grouped by tenant."""
        latencies: Dict[str, List[float]] = {}
        for admission in self.placed:
            if admission.queue_latency is not None:
                latencies.setdefault(admission.user, []).append(
                    admission.queue_latency
                )
        return latencies
