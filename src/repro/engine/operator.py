"""The simulated workflow operator (Argo-style controller).

Reconciles submitted workflows into pod executions on the simulated
cluster, honouring the DAG: a step starts only after every dependency
reached a done status.  The operator consults the caching layer for
input-fetch times, samples failures per attempt, applies the retry
policy with exponential backoff, and supports the paper's
restart-from-failure path (skipping Succeeded / Skipped / Cached steps).

Multiple workflows may run concurrently; they compete for the same
cluster resources, which is how the utilization figures are produced.

Observability: the operator emits nested spans (workflow -> step ->
{queue-wait, attempt -> {cache-fetch, compute}, retry-backoff}) through
a :class:`repro.obs.trace.Tracer` and counts attempts / retries /
terminal statuses in a :class:`repro.obs.metrics.MetricsRegistry`.
Both default to no-op/private instances.  With the default
:class:`~repro.obs.trace.NullTracer` the operator makes no tracer call
and builds no span argument; what an untraced run still pays is one
flag test per span site and its metrics, whose fixed-label series are
bound once, so each write is a dict update on a known key.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..k8s.apiserver import APIServer
from ..k8s.cluster import Cluster, Scheduler
from ..k8s.objects import Pod, PodPhase
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NullTracer
from .cachehooks import CacheManagerProtocol, NullCacheManager
from .journal import Journal, apply_event, begin_run
from .retry import UNSCHEDULABLE_ERR, FailureInjector, RetryPolicy
from .simclock import EventHandle, SimClock
from .spec import (
    ExecutableStep,
    ExecutableWorkflow,
    SpecError,
    executable_to_dict,
    parse_argo_manifest,
)
from .status import StepStatus, WorkflowPhase, WorkflowRecord

CompletionCallback = Callable[[WorkflowRecord], None]

#: ``{{step.output}} OP value`` — the condition grammar backends emit.
_CONDITION_RE = re.compile(
    r"\{\{([^.}]+)\.([^}]+)\}\}\s*(==|!=|>=|<=|>|<)\s*(.+?)\s*$"
)


def validate_when_expr(expr: str, step_name: str = "?") -> None:
    """Reject a ``when`` expression whose clauses don't parse.

    Historically an unparseable clause was silently skipped, which made
    the guard evaluate true and ran steps whose condition never held.
    Validation happens at submit time so the author gets a clear error
    instead of a silently mis-branched workflow.
    """
    for clause in expr.split("&&"):
        if _CONDITION_RE.match(clause.strip()) is None:
            raise SpecError(
                f"step {step_name!r}: unparseable `when` clause "
                f"{clause.strip()!r} in expression {expr!r}; expected "
                "'{{step.output}} OP value' with OP one of "
                "== != >= <= > <"
            )


def _compare(left: str, operator: str, right: str) -> bool:
    """Compare result strings; numeric when both sides parse as numbers."""
    try:
        left_value: object = float(left)
        right_value: object = float(right)
    except ValueError:
        left_value, right_value = left, right
    if operator == "==":
        return left_value == right_value
    if operator == "!=":
        return left_value != right_value
    if not isinstance(left_value, float) or not isinstance(right_value, float):
        return False
    return {
        ">": left_value > right_value,
        "<": left_value < right_value,
        ">=": left_value >= right_value,
        "<=": left_value <= right_value,
    }[operator]


@dataclass
class _Attempt:
    """One in-flight step attempt, charged to its record when it settles.

    The attempt's fetch-then-compute timeline is decided the moment it
    is scheduled (natural in a discrete-event world), but the step
    record is charged only when the attempt succeeds, fails or is
    interrupted, and only with what it did by then: the settling event
    carries the charges, and applying that event
    (:func:`~repro.engine.journal.apply_event`) is what charges the
    record, live and in the journal's fold alike.
    """

    pod: Pod
    handle: EventHandle
    start: float
    elapsed: float
    #: Fetch then compute seconds of the whole timeline.
    fetch: float
    compute: float
    #: Input reads this attempt counts in the record's cache stats if it
    #: gets that far: uid -> (hit, fetch_end_offset), once per input the
    #: record has not counted yet.
    reads: Dict[str, Tuple[bool, float]]


@dataclass
class _RunState:
    """Mutable per-workflow bookkeeping inside the operator."""

    workflow: ExecutableWorkflow
    record: WorkflowRecord
    remaining_deps: Dict[str, int] = field(default_factory=dict)
    children: Dict[str, List[str]] = field(default_factory=dict)
    on_complete: List[CompletionCallback] = field(default_factory=list)
    failed: bool = False
    #: Step name -> its currently running attempt (chaos interrupts these).
    active_attempts: Dict[str, "_Attempt"] = field(default_factory=dict)
    #: Deferred work scheduled on this workflow's behalf (retry backoffs,
    #: finish checks); cancelled wholesale on an operator restart.
    pending_handles: List[EventHandle] = field(default_factory=list)
    #: Tracing state: the workflow's root span and one span per step.
    wf_span: Optional[object] = None
    step_spans: Dict[str, object] = field(default_factory=dict)
    #: Virtual time each step entered the resource wait queue (traced).
    queue_since: Dict[str, float] = field(default_factory=dict)
    #: The workflow's step names, and how many of them, from the first,
    #: are known terminal.  A terminal status never reverts within a run
    #: state, so :meth:`all_terminal` resumes past them: a run's
    #: completion checks cost O(steps) in all, not O(steps) each.
    step_names: List[str] = field(init=False)
    known_terminal: int = 0

    def __post_init__(self) -> None:
        self.step_names = list(self.workflow.steps)

    def all_terminal(self) -> bool:
        steps, names = self.record.steps, self.step_names
        index = self.known_terminal
        while index < len(names) and steps[names[index]].status.is_terminal():
            index += 1
        self.known_terminal = index
        return index == len(names)


class _OperatorMetrics:
    """The operator's metrics, with the fixed-label series its hot paths
    write bound once.  Built once per registry
    (:meth:`MetricsRegistry.shared`): the operators of a multi-cluster
    pipeline share one registry, and so share these."""

    def __init__(self, metrics: MetricsRegistry) -> None:
        attempts = metrics.counter("engine_attempts_total", "Step attempts by outcome")
        self.retries = metrics.counter(
            "engine_retries_total", "Step retries by failure pattern"
        )
        self.step_statuses = metrics.counter(
            "engine_steps_total", "Terminal step statuses"
        )
        workflows = metrics.counter(
            "engine_workflows_total", "Terminal workflow phases"
        )
        self.backoff = metrics.counter(
            "engine_backoff_seconds_total", "Total retry backoff delay"
        ).labels()
        self.waitq = metrics.gauge(
            "scheduler_waitq_depth", "Steps waiting for cluster resources"
        ).labels()
        self.infra = metrics.counter(
            "engine_infra_retries_total",
            "Attempts requeued after infrastructure faults (budget-free)",
        )
        scans = metrics.counter(
            "engine_waitq_scans_total", "Wait-queue drain scans by kind"
        )
        self.scan_steps = metrics.counter(
            "engine_waitq_scan_steps_total", "Wait-queue entries examined"
        ).labels()
        self.attempt = {
            outcome: attempts.labels(outcome=outcome)
            for outcome in ("success", "failure")
        }
        self.step_ok = self.step_statuses.labels(status=StepStatus.SUCCEEDED.value)
        self.step_failed = self.step_statuses.labels(status=StepStatus.FAILED.value)
        self.workflow = {
            phase.value: workflows.labels(phase=phase.value)
            for phase in (WorkflowPhase.SUCCEEDED, WorkflowPhase.FAILED)
        }
        self.scan = {
            kind: scans.labels(kind=kind) for kind in ("skipped", "tail", "full")
        }


def _counted_inputs(step: ExecutableStep, count: int) -> Set[str]:
    """The inputs a step record counts in its ``count`` hits + misses.

    Reads finish in input order and count once per uid, so a record has
    always counted a prefix of the step's distinct inputs; and a record
    outlives every run state, so a resumed step still knows that prefix.
    """
    uids: Set[str] = set()
    for artifact in step.inputs:
        if len(uids) == count:
            break
        uids.add(artifact.uid)
    return uids


class WorkflowOperator:
    """Drives workflows to completion on a simulated cluster."""

    def __init__(
        self,
        clock: SimClock,
        cluster: Cluster,
        cache_manager: Optional[CacheManagerProtocol] = None,
        retry_policy: Optional[RetryPolicy] = None,
        failure_injector: Optional[FailureInjector] = None,
        api_server: Optional[APIServer] = None,
        seed: int = 0,
        skip_cached_steps: bool = False,
        track_pods: bool = False,
        tracer: Optional[object] = None,
        metrics: Optional[MetricsRegistry] = None,
        journal: Optional[Journal] = None,
        fast: bool = True,
    ) -> None:
        self.clock = clock
        self.cluster = cluster
        self.scheduler = Scheduler(cluster)
        self.cache_manager = cache_manager or NullCacheManager()
        self.retry_policy = retry_policy or RetryPolicy()
        self.failure_injector = failure_injector or FailureInjector(seed=seed)
        self.api_server = api_server
        #: The paper's "reuse of intermediate results" optimization: a
        #: step whose outputs are all already cached is marked Cached
        #: and never scheduled (the engine "skip[s] steps to read cached
        #: data", Appendix B.C).
        self.skip_cached_steps = skip_cached_steps
        #: Mirror pod objects into the API server (observability: a real
        #: operator's pods are watchable cluster objects).  Off by
        #: default — large simulations don't need the write volume.
        self.track_pods = track_pods and api_server is not None
        #: Span recorder; :class:`NullTracer` when tracing is off, in
        #: which case no span site calls it or builds its arguments.
        self.tracer = tracer if tracer is not None else NullTracer()
        self._traced = not isinstance(self.tracer, NullTracer)
        #: Metrics registry — the single source for retry/attempt/waitq
        #: accounting.  A private registry is created when none is
        #: shared, so counters are always recorded.
        self.metrics = metrics or MetricsRegistry()
        self._m = self.metrics.shared(_OperatorMetrics)
        #: Fast hot paths: coalesce same-instant drain events and skip
        #: rescanning wait-queue entries that nothing could have
        #: unblocked.  Placement decisions are proven identical to the
        #: naive full-rescan path by the ``engine_fast`` verify oracle.
        self.fast = fast
        #: One pending scheduled drain at a time (fast mode): every
        #: same-instant request after the first is covered by the drain
        #: already in the heap, which fires after its requester.
        self._drain_scheduled = False
        #: Dirty counter, bumped whenever capacity frees or a waiting
        #: workflow's state changes (failure, finish, checkpoint,
        #: restart).  While it is unchanged, already-vetted wait-queue
        #: entries cannot have become placeable — placeability is
        #: monotone in free capacity — so a drain only scans the tail.
        self._waitq_version = 0
        self._scanned_version = -1
        self._scanned_len = 0
        self._states: Dict[str, _RunState] = {}
        self._resource_waitq: List[Tuple[str, str]] = []
        self._rng = random.Random(seed ^ 0x5EED)
        self.completed: List[WorkflowRecord] = []
        #: Virtual time until which cache fetches fail (chaos outage).
        self._cache_outage_until = float("-inf")
        #: How long an attempt waits on a dead cache before giving up.
        self.cache_timeout_s = 30.0
        #: Append-only event journal (opt-in).  When set, every state
        #: transition is journaled, so a fresh replica can rebuild each
        #: record by replay (:meth:`resume_from_journal`).  Journaling
        #: never perturbs execution: with ``journal=None`` behaviour is
        #: bit-identical.
        self.journal = journal
        #: Hook a sharded fleet installs so resources this replica frees
        #: can wake sibling replicas' wait queues (each operator only
        #: drains its own).
        self.peer_wakeup: Optional[Callable[[], None]] = None
        #: Run states awaiting a scheduled restart-resume, with the
        #: resume event handle — a second restart during the first's
        #: downtime must fold these in rather than double-resume them.
        self._pending_resume: List[_RunState] = []
        self._resume_handle: Optional[EventHandle] = None

    # ------------------------------------------------------------- journaling

    def _apply(
        self, state: _RunState, kind: str, payload: dict, tag: Optional[str] = None
    ) -> None:
        """Apply one event to the live record, and journal that same event
        when a journal is attached: the only way the operator changes a
        record.  An attempt event's ``tag`` makes its ``event_id``,
        ``{workflow}:{tag}:{step}:{attempt}``, numbered after the event
        is applied.
        """
        now = self.clock.now
        step = apply_event(state.record, kind, now, payload)
        if self.journal is not None:
            name = state.workflow.name
            self.journal.append(
                name,
                kind,
                now,
                payload,
                event_id=(
                    None if tag is None else f"{name}:{tag}:{step.name}:{step.attempts}"
                ),
            )

    def _notify_peers(self) -> None:
        if self.peer_wakeup is not None:
            self.peer_wakeup()

    # ------------------------------------------------------------- submission

    def submit_manifest(
        self,
        manifest: dict,
        on_complete: Optional[CompletionCallback] = None,
        initial_results: Optional[Dict[str, Optional[str]]] = None,
    ) -> WorkflowRecord:
        """Submit an Argo-style Workflow manifest.

        When an API server is attached, the CRD is created first so the
        2 MB size limit is enforced exactly where production hits it.
        """
        if self.api_server is not None:
            from ..k8s.objects import APIObject

            self.api_server.create(APIObject.from_dict(manifest))
        workflow = parse_argo_manifest(manifest)
        return self.submit(
            workflow, on_complete=on_complete, initial_results=initial_results
        )

    def submit(
        self,
        workflow: ExecutableWorkflow,
        record: Optional[WorkflowRecord] = None,
        on_complete: Optional[CompletionCallback] = None,
        initial_results: Optional[Dict[str, Optional[str]]] = None,
    ) -> WorkflowRecord:
        """Submit an executable workflow; returns its (live) record.

        Passing an existing ``record`` resubmits after failure: steps
        whose status counts as done (Succeeded / Skipped / Cached) are
        not re-executed, matching the paper's manual-retry flow.

        ``initial_results`` pre-seeds recorded step results from outside
        this workflow (the split-part executor passes the results of
        already-completed parts so ``when`` guards that reference steps
        in other parts keep their monolithic semantics), except under
        this workflow's own step names: those read this run's steps.

        A workflow with a step that no node of the cluster could host
        fails here, having run nothing (:meth:`_fail_unschedulable`).
        """
        workflow.validate()
        for step in workflow.steps.values():
            if step.when_expr:
                validate_when_expr(step.when_expr, step.name)
        if workflow.name in self._states:
            raise ValueError(f"workflow {workflow.name} is already running")
        record = record or WorkflowRecord(name=workflow.name)
        state = _RunState(workflow=workflow, record=record)
        if self._traced:
            state.wf_span = self.tracer.begin(
                workflow.name, "workflow", self.clock.now, workflow=workflow.name
            )
        if on_complete is not None:
            state.on_complete.append(on_complete)

        state.children = {name: [] for name in workflow.steps}
        for step in workflow.steps.values():
            state.remaining_deps[step.name] = 0
        for step in workflow.steps.values():
            for dep in step.dependencies:
                if not record.step(dep).status.counts_as_done():
                    state.remaining_deps[step.name] += 1
                    state.children[dep].append(step.name)

        self._states[workflow.name] = state
        # Forwarded results join the record, under *foreign* step names
        # only, and so survive a restart: `when` guards that reference
        # other split parts must not read "never ran" after a resume.
        if initial_results:
            initial_results = {
                k: v for k, v in initial_results.items() if k not in workflow.steps
            }
        begin_run(record, self.clock.now, workflow.steps, initial_results)
        if self.journal is not None:
            payload: dict = {}
            if self.journal.workflow_spec_dict(workflow.name) is None:
                payload["spec"] = executable_to_dict(workflow)
            else:
                payload["resubmit"] = True
            if initial_results:
                payload["initial_results"] = dict(initial_results)
            self.journal.append(workflow.name, "submitted", self.clock.now, payload)

        # A step no node can host, even empty, would make the scheduler
        # raise inside a drain and abort every workflow's run.  A node
        # that fits each resource's largest request fits every step, and
        # admission has usually asked the memo that already.
        if not self.cluster.fits_a_node(workflow.largest_request()):
            unschedulable = [
                step
                for step in workflow.steps.values()
                if not self.cluster.fits_a_node(step.requests)
                and not record.steps[step.name].status.counts_as_done()
            ]
            if unschedulable:
                self._fail_unschedulable(state, unschedulable)
                return record
        self.cache_manager.register_workflow(workflow)
        launched_any = False
        for step in workflow.steps.values():
            if record.steps[step.name].status.counts_as_done():
                continue
            if state.remaining_deps[step.name] == 0:
                self._enqueue_step(state, step)
                launched_any = True
        if not launched_any and state.all_terminal():
            # Nothing to do (empty workflow or everything already done).
            self._schedule_state(state, 0.0, lambda: self._maybe_finish(state))
        return record

    def _fail_unschedulable(
        self, state: _RunState, steps: List[ExecutableStep]
    ) -> None:
        """Fail a workflow at submit, before any of it runs, because no
        node of the cluster could host ``steps`` even empty.

        Each such step settles as a failure does, by a terminal
        ``attempt-failed`` event, with :data:`UNSCHEDULABLE_ERR`, which
        no retry can help; it takes no resources and starts no attempt.
        The workflow finishes Failed on the next event, as an empty one
        finishes, so no completion callback runs inside :meth:`submit`.
        """
        for step in steps:
            self._apply(
                state,
                "attempt-failed",
                {
                    "step": step.name,
                    "pattern": UNSCHEDULABLE_ERR,
                    "infra": False,
                    "fetch": 0.0,
                    "compute": 0.0,
                    "hits": 0,
                    "misses": 0,
                    "terminal": True,
                },
                tag="fail",
            )
            if self._traced:
                self._step_span(state, step)
                self._end_step_span(state, step.name, StepStatus.FAILED.value)
            self._m.step_failed.inc()
        state.failed = True
        self._schedule_state(state, 0.0, lambda: self._maybe_finish(state))

    # ------------------------------------------------------------- execution

    def _outputs_all_cached(self, step: ExecutableStep) -> bool:
        if not self.skip_cached_steps or not step.outputs:
            return False
        contains = getattr(self.cache_manager, "contains", None)
        if contains is None:
            return False
        return all(contains(artifact.uid) for artifact in step.outputs)

    def _condition_met(self, state: _RunState, expr: str) -> bool:
        """Evaluate a ``when`` expression against the record's results.

        A reference to a Skipped step (or one that never ran) is false —
        which makes skip cascade through unrolled exec_while chains.  A
        reference to a completed step with no declared result evaluates
        true (the all-branches upper bound for unsimulated results).  A
        step of this workflow counts only once it counts as done; a
        foreign name (forwarded from another split part) has no step
        record here and counts as it is.
        """
        record = state.record
        for clause in expr.split("&&"):
            match = _CONDITION_RE.match(clause.strip())
            if match is None:
                # submit() validates every expression, so this is only
                # reachable through direct misuse — fail loudly rather
                # than silently treating the guard as satisfied.
                raise SpecError(f"unparseable `when` clause: {clause.strip()!r}")
            step_name, _output, operator, value = match.groups()
            if step_name not in record.results or (
                step_name in state.workflow.steps
                and not record.steps[step_name].status.counts_as_done()
            ):
                return False
            result = record.results[step_name]
            if result is None:
                continue
            if not _compare(result, operator, value):
                return False
        return True

    def _step_span(self, state: _RunState, step: ExecutableStep) -> object:
        """Get-or-open the step's span (opened on first enqueue)."""
        if step.name not in state.step_spans:
            state.step_spans[step.name] = self.tracer.begin(
                step.name,
                "step",
                self.clock.now,
                parent=state.wf_span,
                step=step.name,
                deps=list(step.dependencies),
            )
        return state.step_spans[step.name]

    def _end_step_span(self, state: _RunState, step_name: str, status: str) -> None:
        self.tracer.end(
            state.step_spans.get(step_name), self.clock.now, status=status
        )

    def _is_live(self, state: _RunState) -> bool:
        """False when ``state`` was superseded (operator restart): events
        scheduled against a dead incarnation must become no-ops, or a
        stale callback would double-drive the resumed workflow."""
        return self._states.get(state.workflow.name) is state

    def _schedule_state(
        self, state: _RunState, delay: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Schedule work on a workflow's behalf, tracked for cancellation."""
        handle = self.clock.schedule(delay, callback)
        state.pending_handles.append(handle)
        if len(state.pending_handles) > 32:
            state.pending_handles = [
                h for h in state.pending_handles if not (h.cancelled or h.fired)
            ]
        return handle

    def _enqueue_step(self, state: _RunState, step: ExecutableStep) -> None:
        if not self._is_live(state):
            return
        if state.failed:
            # The workflow already failed (a sibling step hit a fatal
            # error): a pending retry is aborted, not dropped, so the
            # step reaches a terminal status and the workflow settles.
            self._abort_step(state, step.name)
            self._schedule_state(state, 0.0, lambda: self._maybe_finish(state))
            return
        if step.when_expr and not self._condition_met(state, step.when_expr):
            self._skip_step(state, step, StepStatus.SKIPPED)
            return
        if self._outputs_all_cached(step):
            self._skip_step(state, step, StepStatus.CACHED)
            return
        if self._traced:
            self._step_span(state, step)
            state.queue_since[step.name] = self.clock.now
        self._resource_waitq.append((state.workflow.name, step.name))
        self._m.waitq.set(len(self._resource_waitq))
        self._schedule_drain()

    def _abort_step(self, state: _RunState, step_name: str) -> None:
        """Fail a step that its failed workflow will never run (again)."""
        if not state.record.steps[step_name].status.is_terminal():
            self._apply(state, "step-aborted", {"step": step_name})
            self._m.step_failed.inc()
        if self._traced:
            self._end_step_span(state, step_name, StepStatus.FAILED.value)

    def _skip_step(
        self, state: _RunState, step: ExecutableStep, status: StepStatus
    ) -> None:
        """Settle a step that never runs: Skipped (its ``when`` guard is
        false) or Cached (its outputs are all cached already), by a
        ``step-skipped`` or ``step-cached`` event."""
        self._apply(state, f"step-{status.value.lower()}", {"step": step.name})
        if self._traced:
            self._step_span(state, step)
            self._end_step_span(state, step.name, status.value)
        self._m.step_statuses.inc(status=status.value)
        self._schedule_state(state, 0.0, lambda: self._after_skip(state, step))

    def _after_skip(self, state: _RunState, step: ExecutableStep) -> None:
        if not self._is_live(state):
            return
        self._advance_children(state, step)
        self._maybe_finish(state)

    def _schedule_drain(self) -> None:
        """Request a wait-queue drain at the current virtual instant.

        Fast mode coalesces: a drain already scheduled (and not yet
        fired) covers every later same-instant request, because it sits
        behind the requester in the event order and scans are
        idempotent under unchanged capacity.
        """
        if self.fast and self._drain_scheduled:
            return
        self._drain_scheduled = True
        self.clock.schedule(0.0, self._drain_waitq)

    def _waitq_dirty(self) -> None:
        """Capacity freed or a waiting workflow's state changed: the next
        drain must rescan from the head."""
        self._waitq_version += 1

    def _drain_waitq(self) -> None:
        """Try to start every waiting step that now fits on the cluster."""
        self._drain_scheduled = False
        version = self._waitq_version
        start = 0
        if self.fast and self._scanned_version == version:
            # Nothing dirtied the queue since the last scan: the head
            # entries are still blocked, only unvetted tail entries
            # (enqueued since) can possibly place.
            start = self._scanned_len
            if start >= len(self._resource_waitq):
                self._m.scan["skipped"].inc()
                return
            self._m.scan["tail"].inc()
        else:
            self._m.scan["full"].inc()
        still_waiting: List[Tuple[str, str]] = self._resource_waitq[:start]
        self._m.scan_steps.inc(len(self._resource_waitq) - start)
        for wf_name, step_name in self._resource_waitq[start:]:
            state = self._states.get(wf_name)
            if state is None:
                continue
            if state.failed:
                # Abort queued work of a failed workflow explicitly.
                self._abort_step(state, step_name)
                self._maybe_finish(state)
                continue
            step = state.workflow.steps[step_name]
            # Attempt numbers are 1-based and incremented by the
            # attempt-started event _run_attempt applies; the pod for
            # attempt N must carry N, not the pre-increment count, or
            # pod<->attempt correlation breaks.
            attempt_number = state.record.steps[step_name].attempts + 1
            pod = Pod(
                name=f"{wf_name}--{step_name}--{attempt_number}",
                requests=step.requests,
                labels={"workflow": wf_name, "step": step_name},
            )
            node = self.scheduler.try_schedule(pod)
            if node is None:
                still_waiting.append((wf_name, step_name))
            else:
                if self._traced:
                    self._trace_queue_wait(state, step_name, pod)
                self._run_attempt(state, step, pod, attempt_number)
        self._resource_waitq = still_waiting
        self._scanned_version = version
        self._scanned_len = len(still_waiting)
        self._m.waitq.set(len(self._resource_waitq))

    def _trace_queue_wait(self, state: _RunState, step_name: str, pod: Pod) -> None:
        """Record the resource wait of a step whose pod just bound."""
        queued_at = state.queue_since.pop(step_name, None)
        if queued_at is not None and self.clock.now > queued_at:
            # Zero-length waits (resources were free) add noise, not
            # information — only real queueing is recorded.
            self.tracer.add_span(
                "queue-wait",
                "queue",
                queued_at,
                self.clock.now,
                parent=state.step_spans.get(step_name),
                pod=pod.metadata.name,
            )

    def _run_attempt(
        self, state: _RunState, step: ExecutableStep, pod: Pod, attempt: int
    ) -> None:
        self._apply(
            state,
            "attempt-started",
            {"step": step.name, "attempt": attempt, "pod": pod.metadata.name},
            tag="start",
        )
        pod.phase = PodPhase.RUNNING
        if self.track_pods:
            self.api_server.create(pod)

        now = self.clock.now
        outage = bool(step.inputs) and now < self._cache_outage_until
        fetch_seconds = 0.0
        fetches: List[Tuple[str, bool, float]] = []
        if not outage:
            for artifact in step.inputs:
                seconds, hit = self.cache_manager.fetch(artifact, now=now)
                fetch_seconds += seconds
                fetches.append((artifact.uid, hit, fetch_seconds))

        if outage:
            # The cache tier is dark (injected transient outage): the
            # attempt blocks on its first read and times out.  This is an
            # infrastructure fault — it must not consume the step's
            # application retry budget.
            pattern: Optional[str] = "CacheFetchTimeoutErr"
            elapsed = self.cache_timeout_s
            charged_fetch, charged_compute = elapsed, 0.0
        else:
            pattern = self.failure_injector.sample(
                step.name, step.failure.rate, step.failure.pattern
            )
            if pattern is None:
                elapsed = fetch_seconds + step.duration_s
            else:
                # The attempt dies partway through; charge a random fraction
                # of the sequential fetch-then-compute timeline.
                fraction = 0.25 + 0.5 * self._rng.random()
                elapsed = (fetch_seconds + step.duration_s) * fraction
            charged_fetch = min(fetch_seconds, elapsed)
            charged_compute = elapsed - charged_fetch

        # Cache stats count per *completed* fetch, once per input: an
        # attempt that dies mid-fetch must not count the aborted reads,
        # and a retry or a resumed run must not re-count inputs the
        # record already accounts for — both inflated hit ratios under
        # failure injection.
        reads: Dict[str, Tuple[bool, float]] = {}
        hits = 0
        if fetches:
            record = state.record.steps[step.name]
            done = record.cache_hits + record.cache_misses
            counted = _counted_inputs(step, done) if done else ()
            for uid, hit, fetch_end in fetches:
                if fetch_end > elapsed + 1e-9 or uid in counted or uid in reads:
                    continue
                reads[uid] = (hit, fetch_end)
                hits += hit

        outcome = "success" if pattern is None else "failure"
        self._m.attempt[outcome].inc()
        if self._traced:
            attempt_args = {"pod": pod.metadata.name, "outcome": outcome}
            if pattern is not None:
                attempt_args["pattern"] = pattern
            attempt_span = self.tracer.add_span(
                f"attempt-{attempt}",
                "attempt",
                now,
                now + elapsed,
                parent=state.step_spans.get(step.name),
                **attempt_args,
            )
            if charged_fetch > 0.0:
                self.tracer.add_span(
                    "cache-fetch",
                    "fetch",
                    now,
                    now + charged_fetch,
                    parent=attempt_span,
                    hits=hits,
                    misses=len(reads) - hits,
                )
            if charged_compute > 0.0:
                self.tracer.add_span(
                    "compute",
                    "compute",
                    now + charged_fetch,
                    now + elapsed,
                    parent=attempt_span,
                )

        if pattern is None:
            handle = self.clock.schedule(
                elapsed, lambda: self._on_attempt_success(state, step)
            )
        else:
            # Only the outage path is an infrastructure fault here; a
            # sampled pattern is the step's own failure profile even when
            # it resembles one (e.g. sampled PodEvictedErr), so legacy
            # no-retry baselines keep their semantics.
            handle = self.clock.schedule(
                elapsed,
                lambda: self._on_attempt_failure(state, step, pattern, outage),
            )
        state.active_attempts[step.name] = _Attempt(
            pod=pod,
            handle=handle,
            start=now,
            elapsed=elapsed,
            fetch=charged_fetch,
            compute=charged_compute,
            reads=reads,
        )

    def _release(
        self,
        state: _RunState,
        step_name: str,
        phase: PodPhase,
        pod_reason: Optional[str] = None,
    ) -> _Attempt:
        """End a step's running attempt: set its pod's final phase (and
        reason) and release the pod.

        Releasing is a no-op for a pod whose binding a node crash or an
        eviction already dropped.
        """
        attempt = state.active_attempts.pop(step_name)
        pod = attempt.pod
        pod.phase = phase
        if pod_reason is not None:
            pod.reason = pod_reason
        if self.track_pods:
            self.api_server.update_status(pod)
        self.scheduler.release(pod)
        self._waitq_dirty()
        return attempt

    @staticmethod
    def _settle(attempt: _Attempt, upto: float) -> Tuple[float, float, int, int]:
        """What ``attempt`` did in its first ``upto`` seconds: its whole
        ``elapsed`` when it succeeds or fails, ``now - start`` when it is
        interrupted.  Inputs it finished reading by then become counted.

        Returns the charges its settling event carries, ``(fetch,
        compute, hits, misses)``.
        """
        read = [hit for hit, end in attempt.reads.values() if end <= upto + 1e-9]
        hits = sum(read)
        fetch = min(attempt.fetch, upto)
        compute = min(attempt.compute, max(0.0, upto - attempt.fetch))
        return fetch, compute, hits, len(read) - hits

    def _on_attempt_success(self, state: _RunState, step: ExecutableStep) -> None:
        if not self._is_live(state):
            # Scheduled against a dead incarnation (the operator was
            # hard-killed or restarted): the attempt's outcome is lost.
            return
        attempt = self._release(state, step.name, PodPhase.SUCCEEDED)
        fetch, compute, hits, misses = self._settle(attempt, attempt.elapsed)
        value = (
            self._rng.choice(list(step.result_options))
            if step.result_options
            else None
        )
        self._apply(
            state,
            "attempt-succeeded",
            {
                "step": step.name,
                "result": value,
                "fetch": fetch,
                "compute": compute,
                "hits": hits,
                "misses": misses,
            },
            tag="ok",
        )
        if self._traced:
            self._end_step_span(state, step.name, StepStatus.SUCCEEDED.value)
        self._m.step_ok.inc()
        for artifact in step.outputs:
            self.cache_manager.on_artifact_produced(artifact, self.clock.now)
        on_step_finished = getattr(self.cache_manager, "on_step_finished", None)
        if on_step_finished is not None:
            on_step_finished(f"{state.workflow.name}/{step.name}")
        self._advance_children(state, step)
        self._maybe_finish(state)
        self._drain_waitq()
        self._notify_peers()

    def _on_attempt_failure(
        self,
        state: _RunState,
        step: ExecutableStep,
        pattern: str,
        infra: bool,
    ) -> None:
        if not self._is_live(state):
            return
        attempt = self._release(state, step.name, PodPhase.FAILED)
        charges = self._settle(attempt, attempt.elapsed)
        self._route_failure(state, step, pattern, infra, charges)
        self._drain_waitq()
        self._notify_peers()

    def _route_failure(
        self,
        state: _RunState,
        step: ExecutableStep,
        pattern: str,
        infra: bool,
        charges: Tuple[float, float, int, int],
    ) -> None:
        """Decide what a failed/interrupted attempt becomes, then settle
        it, with the ``charges`` it did, by one ``attempt-failed`` event.

        ``infra=True`` marks a fault that originated in the
        infrastructure layer (chaos-injected node loss, eviction, cache
        outage, operator restart) rather than in the step itself: it is
        requeued on the policy's separate infra budget with a flat short
        delay and never charges the step's application retry budget.
        Sampled per-attempt failures keep the usual backoff-limited
        path, with infra interruptions refunded from the attempt count.
        """
        record = state.record.steps[step.name]
        # The budgets as they stand once this failure is applied.
        infra_failures = record.infra_failures + int(infra)
        app_attempts = record.attempts - infra_failures
        if infra and self.retry_policy.infra_retry(pattern, infra_failures):
            retry = "infra"
        elif self.retry_policy.should_retry(
            pattern, app_attempts, limit_override=step.retry_limit
        ):
            retry = "app"
        else:
            retry = None
        fetch, compute, hits, misses = charges
        self._apply(
            state,
            "attempt-failed",
            {
                "step": step.name,
                "pattern": pattern,
                "infra": infra,
                "fetch": fetch,
                "compute": compute,
                "hits": hits,
                "misses": misses,
                "terminal": retry is None,
            },
            tag="fail",
        )
        step_span = state.step_spans.get(step.name)
        if retry == "infra":
            delay = self.retry_policy.infra_backoff
            if self._traced:
                self.tracer.instant(
                    "infra-retry",
                    "retry",
                    self.clock.now,
                    parent=step_span,
                    pattern=pattern,
                    attempt=record.attempts,
                    delay_s=delay,
                )
            self._m.infra.inc(pattern=pattern)
            self._schedule_state(
                state, delay, lambda: self._enqueue_step(state, step)
            )
        elif retry == "app":
            delay = self.retry_policy.backoff(app_attempts, rng=self._rng)
            if self._traced:
                self.tracer.instant(
                    "retry",
                    "retry",
                    self.clock.now,
                    parent=step_span,
                    pattern=pattern,
                    attempt=record.attempts,
                    delay_s=delay,
                )
                if delay > 0.0:
                    self.tracer.add_span(
                        "retry-backoff",
                        "backoff",
                        self.clock.now,
                        self.clock.now + delay,
                        parent=step_span,
                        attempt=record.attempts,
                    )
            self._m.retries.inc(pattern=pattern)
            self._m.backoff.inc(delay)
            self._schedule_state(
                state, delay, lambda: self._enqueue_step(state, step)
            )
        else:
            if self._traced:
                self._end_step_span(state, step.name, StepStatus.FAILED.value)
            self._m.step_failed.inc()
            state.failed = True
            # Queued siblings must be aborted on the next scan even if
            # they sit in the already-vetted head of the wait queue.
            self._waitq_dirty()
            self._maybe_finish(state)

    def _advance_children(self, state: _RunState, step: ExecutableStep) -> None:
        for child_name in state.children.get(step.name, []):
            state.remaining_deps[child_name] -= 1
            if state.remaining_deps[child_name] == 0 and not state.failed:
                self._enqueue_step(state, state.workflow.steps[child_name])

    def _maybe_finish(self, state: _RunState) -> None:
        if not self._is_live(state):
            return
        if state.active_attempts:
            return
        if state.failed:
            # Mark never-started steps as terminal-pending (they stay
            # Pending in the record but the workflow is over).
            self._finish_workflow(state)
            return
        if state.all_terminal():
            self._finish_workflow(state)

    def _finish_workflow(self, state: _RunState) -> None:
        record = state.record
        if record.phase.is_terminal():
            return
        if state.failed:
            # Terminate any step left mid-retry: the controller tears the
            # workflow down, so nothing stays "Running" in the record.
            for step_record in record.steps.values():
                if step_record.status == StepStatus.RUNNING:
                    self._abort_step(state, step_record.name)
        # Close any span left open (steps aborted mid-retry, etc).
        for step_name in state.step_spans:
            self._end_step_span(
                state, step_name, record.steps[step_name].status.value
            )
        phase = (
            WorkflowPhase.FAILED if state.failed else WorkflowPhase.SUCCEEDED
        ).value
        self._apply(state, "workflow-finished", {"phase": phase})
        if self._traced:
            self.tracer.end(state.wf_span, self.clock.now, phase=phase)
        self._m.workflow[phase].inc()
        self._states.pop(state.workflow.name, None)
        # Any wait-queue entries this workflow left behind (failed path)
        # must be dropped by the next scan, vetted head included.
        self._waitq_dirty()
        self.completed.append(record)
        for callback in state.on_complete:
            callback(record)

    # ----------------------------------------------------------- chaos hooks
    #
    # Entry points for the fault-injection layer (repro.chaos).  Every
    # hook routes the interruption through the *infra* retry path, so a
    # step killed by the environment is requeued without consuming its
    # application retry budget.

    def _interrupt(
        self, state: _RunState, step_name: str, pod_reason: Optional[str] = None
    ) -> Tuple[float, float, int, int]:
        """Kill a step's running attempt now and settle what it did so far.

        Returns the settled ``(fetch, compute, hits, misses)``; the
        caller records why the attempt died.
        """
        attempt = self._release(state, step_name, PodPhase.FAILED, pod_reason)
        attempt.handle.cancel()
        return self._settle(attempt, self.clock.now - attempt.start)

    def _attempt_of(self, pod: Pod) -> Optional[Tuple[_RunState, ExecutableStep]]:
        """The live workflow and step whose running attempt ``pod`` is."""
        wf_name = pod.metadata.labels.get("workflow")
        step_name = pod.metadata.labels.get("step")
        state = self._states.get(wf_name) if wf_name else None
        if state is None or step_name is None:
            return None
        attempt = state.active_attempts.get(step_name)
        if attempt is None or attempt.pod is not pod:
            return None
        return state, state.workflow.steps[step_name]

    def fail_node(self, node_name: str) -> List[Pod]:
        """Crash a node; its running attempts requeue on the infra budget."""
        node = self.cluster.node(node_name)
        if node is None or not node.ready:
            return []
        displaced = node.fail()
        for pod in displaced:
            owner = self._attempt_of(pod)
            if owner is not None:
                state, step = owner
                charges = self._interrupt(state, step.name)
                self._route_failure(state, step, "NodeLostErr", True, charges)
        self._waitq_dirty()
        self._schedule_drain()
        self._notify_peers()
        return displaced

    def recover_node(self, node_name: str) -> None:
        """Bring a crashed node back and let waiting steps bind onto it."""
        node = self.cluster.node(node_name)
        if node is None or node.ready:
            return
        node.recover()
        self._waitq_dirty()
        self._schedule_drain()
        self._notify_peers()

    def evict_pod(self, pod: Pod) -> bool:
        """Evict one running pod (preemption / node-pressure eviction).

        The carried attempt requeues on the infra budget; usually it
        lands on a different node.  Returns False when the pod is not a
        currently running attempt of this operator.
        """
        owner = self._attempt_of(pod)
        if owner is None:
            return False
        node = self.cluster.node(pod.node_name) if pod.node_name else None
        if node is not None:
            node.evict(pod)
        state, step = owner
        charges = self._interrupt(state, step.name)
        self._route_failure(state, step, "PodEvictedErr", True, charges)
        self._schedule_drain()
        self._notify_peers()
        return True

    def _detach(
        self,
        state: _RunState,
        pattern: str,
        pod_reason: str,
        checkpoint_reason: str,
        span_status: str,
    ) -> None:
        """Tear a workflow's run state down, leaving its record resumable.

        Deferred callbacks are cancelled, and every in-flight attempt is
        interrupted and settled, with one *infra* failure (``pattern``)
        per step, so the lost attempt never bills the application retry
        budget.  The ``checkpointed`` event then resets Running steps to
        Pending, so resubmitting the record skips already-done steps.
        The caller then drops the run state (:meth:`_drop`).
        """
        for handle in state.pending_handles:
            handle.cancel()
        state.pending_handles.clear()
        for step_name in sorted(state.active_attempts):
            fetch, compute, hits, misses = self._interrupt(
                state, step_name, pod_reason
            )
            self._apply(
                state,
                "attempt-interrupted",
                {
                    "step": step_name,
                    "pattern": pattern,
                    "fetch": fetch,
                    "compute": compute,
                    "hits": hits,
                    "misses": misses,
                },
                tag="interrupt",
            )
            self._m.infra.inc(pattern=pattern)
        self._apply(state, "checkpointed", {"reason": checkpoint_reason})
        if self._traced:
            for step_name in state.step_spans:
                self._end_step_span(state, step_name, span_status)
            self.tracer.end(state.wf_span, self.clock.now, phase=span_status)

    def _drop(self, states: List[_RunState], controller: bool = False) -> None:
        """Drop ``states`` and their wait-queue entries: a checkpoint, a
        restart or a kill.  The queue was rebuilt and capacity freed, so
        the fast drain path rescans from the head.  ``controller=True``
        means the whole controller dies, which also cancels a
        restart-resume still pending; its caller decides what becomes of
        the workflows that resume was for.
        """
        names = {state.workflow.name for state in states}
        for name in names:
            del self._states[name]
        self._resource_waitq = [
            entry for entry in self._resource_waitq if entry[0] not in names
        ]
        self._waitq_dirty()
        self._m.waitq.set(len(self._resource_waitq))
        if controller and self._resume_handle is not None:
            self._resume_handle.cancel()
            self._resume_handle = None

    def checkpoint_workflow(
        self, name: str, reason: str = "PreemptedErr"
    ) -> Optional[WorkflowRecord]:
        """Checkpoint one running workflow and detach it from this operator.

        The per-workflow form of :meth:`simulate_restart`, promoted to a
        first-class API so an admission-level preemptor can evict a
        single over-share workflow instead of bouncing the whole
        controller: in-flight attempts are interrupted (each charged
        with the work it did until now, its pod released, one *infra*
        failure recorded per step — preemption never bills the
        application retry budget), deferred callbacks are cancelled,
        queued steps leave the resource wait queue, and Running steps
        reset to Pending in the record.

        Returns the surviving :class:`WorkflowRecord` snapshot, which
        equals the journal's fold when a journal is attached; passing
        it back to :meth:`submit` — on this or *any other* operator —
        resumes from the checkpoint, skipping already-done steps (the
        fig6 checkpoint-migration path).  ``on_complete`` callbacks die
        with the run state; the resubmitter re-registers its own.
        Returns ``None`` when the workflow is not active here.
        """
        state = self._states.get(name)
        if state is None:
            return None
        self._detach(
            state,
            pattern=reason,
            pod_reason="Preempted",
            checkpoint_reason=reason,
            span_status="preempted",
        )
        self._drop([state])
        # Freed resources can unblock other workflows' queued steps.
        self._schedule_drain()
        self._notify_peers()
        return state.record

    def set_cache_outage(self, until: float) -> None:
        """Make cache fetches time out until virtual time ``until``."""
        self._cache_outage_until = max(self._cache_outage_until, until)

    def running_attempt_pods(self) -> List[Pod]:
        """Pods of in-flight attempts, sorted by name (deterministic)."""
        pods = [
            attempt.pod
            for state in self._states.values()
            for attempt in state.active_attempts.values()
        ]
        return sorted(pods, key=lambda pod: pod.metadata.name)

    def simulate_restart(self, downtime: float = 0.0) -> List[str]:
        """Kill the controller and resume from records ``downtime`` later.

        Everything in flight dies with the controller: attempts are
        interrupted (each charged with the work it did until now, its
        pod released, one infra failure recorded per step so the lost
        attempt is not billed to the app budget), scheduled callbacks
        are cancelled, and the in-memory run states are dropped.  After
        ``downtime`` seconds, each workflow is resubmitted from its
        surviving :class:`~repro.engine.status.WorkflowRecord` snapshot
        (equal to the journal's fold when a journal is attached), which
        skips already-done steps — the paper's restart-from-failure
        path, exercised by the controller itself.  Returns the names of
        the workflows that will resume.
        """
        states = list(self._states.values())
        for state in states:
            self._detach(
                state,
                pattern="OperatorRestartErr",
                pod_reason="OperatorRestart",
                checkpoint_reason="operator-restart",
                span_status="operator-restart",
            )
        # A restart during a previous restart's downtime supersedes it:
        # those still-unresumed workflows fold into this restart's resume
        # set (the old resume event is cancelled), instead of the two
        # resumes racing and double-submitting the same workflows.
        self._drop(states, controller=True)
        carried = [
            state
            for state in self._pending_resume
            if not state.record.phase.is_terminal()
        ]
        states = carried + states
        self._pending_resume = states
        resumed = [state.workflow.name for state in states]

        def _resume() -> None:
            self._pending_resume = []
            self._resume_handle = None
            for state in states:
                # Resumes in place: callers keep holding the same record.
                self.submit(state.workflow, record=state.record)
                self._states[state.workflow.name].on_complete.extend(
                    state.on_complete
                )

        self._resume_handle = self.clock.schedule(downtime, _resume)
        self._notify_peers()
        return resumed

    def hard_kill(self) -> List[str]:
        """Kill the controller with no graceful teardown (chaos path).

        Unlike :meth:`simulate_restart`, *nothing* is journaled — this
        models a replica vanishing mid-run.  Scheduled callbacks and
        attempt completions are cancelled, the cluster garbage-collects
        the orphaned pods (allocations are released), and every run
        state is dropped.  Only a journal-backed deployment can recover:
        :meth:`resume_from_journal` on a fresh replica replays the
        stream, and the materializer folds each started-but-unsettled
        attempt as lost (``ReplicaLostErr``, one budget-free infra
        failure, zero charges).  Returns the names of the workflows that
        died with the replica.
        """
        states = list(self._states.values())
        for state in states:
            for handle in state.pending_handles:
                handle.cancel()
            state.pending_handles.clear()
            for attempt in state.active_attempts.values():
                attempt.handle.cancel()
                attempt.pod.phase = PodPhase.FAILED
                attempt.pod.reason = "ReplicaLost"
                self.scheduler.release(attempt.pod)
            state.active_attempts.clear()
        self._drop(states, controller=True)
        self._pending_resume = []
        self._notify_peers()
        return sorted(state.workflow.name for state in states)

    def resume_from_journal(self, names: Optional[List[str]] = None) -> List[str]:
        """Resume workflows by replaying the journal (fresh-replica path).

        For each stream (all of them, or just ``names``): rebuild the
        executable workflow from the spec embedded in its first
        ``submitted`` record, materialize its :class:`WorkflowRecord`
        from the event fold, and resubmit unless the workflow is already
        active here or the journal proves it finished.  This is what a
        replacement replica does after a shard reassignment — it needs
        nothing but the journal.  Returns the resumed names.
        """
        if self.journal is None:
            raise ValueError("resume_from_journal requires a journal-backed operator")
        resumed: List[str] = []
        for stream in self.journal.streams() if names is None else names:
            if stream in self._states:
                continue
            workflow = self.journal.workflow_spec(stream)
            if workflow is None:
                continue  # decision-log-only stream: nothing submitted yet
            record = self.journal.materialize(stream)
            if record is None or record.phase.is_terminal():
                continue
            self.submit(workflow, record=record)
            resumed.append(stream)
        return resumed

    # ------------------------------------------------------------ inspection

    def active_workflows(self) -> List[str]:
        return sorted(self._states)

    def waiting_steps(self) -> List[Tuple[str, str]]:
        """(workflow, step) pairs currently queued for cluster resources."""
        return list(self._resource_waitq)

    def run_to_completion(self, until: Optional[float] = None) -> None:
        """Advance the clock until all submitted workflows settle."""
        self.clock.run(until=until)
