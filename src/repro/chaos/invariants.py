"""Conservation invariants for fault-injected simulations.

A fault storm is only a meaningful test if the engine's books still
balance afterwards.  Two families of checks:

* :func:`check_cluster` holds at *any* instant — node allocations must
  equal the sum of bound pod requests, bindings must be consistent, and
  crashed nodes must be empty.
* The quiescent checks (:func:`check_operator_idle`,
  :func:`check_queue_drained`) hold once the workload has fully
  settled — nothing may remain pending, allocated, reserved, or
  charged.  A non-empty result here means a fault leaked resources or
  stranded admitted work.

:func:`check_read_accounting` checks the records themselves: however
often a fault interrupted and resumed a step, each of its input reads
counts once per record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..engine.admission import AdmissionPipeline
from ..engine.operator import WorkflowOperator
from ..engine.spec import ExecutableWorkflow
from ..engine.status import StepStatus, WorkflowRecord
from ..k8s.cluster import Cluster
from ..k8s.resources import ResourceQuantity

_CPU_EPS = 1e-9


class InvariantError(AssertionError):
    """Raised when a conservation invariant is violated."""


@dataclass
class InvariantReport:
    """Outcome of an invariant sweep."""

    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_failed(self) -> None:
        if self.violations:
            raise InvariantError(
                "invariant violations:\n  " + "\n  ".join(self.violations)
            )


def _quantities_differ(left: ResourceQuantity, right: ResourceQuantity) -> bool:
    return (
        abs(left.cpu - right.cpu) > _CPU_EPS
        or left.memory != right.memory
        or left.gpu != right.gpu
    )


def check_cluster(cluster: Cluster) -> List[str]:
    """Always-valid invariants: allocation accounting and bindings."""
    violations: List[str] = []
    for node in cluster.nodes:
        bound = ResourceQuantity()
        for pod in node.pods.values():
            bound = bound + pod.requests
            if pod.node_name != node.name:
                violations.append(
                    f"pod {pod.metadata.name} hosted by {node.name} but its "
                    f"binding says {pod.node_name!r}"
                )
        if _quantities_differ(node.allocated, bound):
            violations.append(
                f"node {node.name}: allocated {node.allocated} != sum of "
                f"bound pod requests {bound}"
            )
        if not node.ready and node.pods:
            violations.append(
                f"node {node.name} is down but still hosts "
                f"{sorted(node.pods)}"
            )
    return violations


def check_operator_idle(operator: WorkflowOperator) -> List[str]:
    """Quiescent invariants: a settled operator holds nothing."""
    violations: List[str] = []
    active = operator.active_workflows()
    if active:
        violations.append(f"operator still tracks live workflows: {active}")
    waiting = operator.waiting_steps()
    if waiting:
        violations.append(f"steps still waiting for resources: {waiting}")
    allocated = operator.cluster.allocated
    if _quantities_differ(allocated, ResourceQuantity()):
        violations.append(
            f"cluster {operator.cluster.name}: {allocated} still allocated "
            "after the workload settled (leaked node allocation)"
        )
    return violations


def check_queue_drained(pipeline: AdmissionPipeline) -> List[str]:
    """Quiescent invariants: nothing admitted is left unplaced, and the
    pipeline's queue holds no residual charges or reservations."""
    violations: List[str] = []
    pending = pipeline.pending_workflows()
    if pending:
        violations.append(
            f"admitted workflows still awaiting placement: {pending}"
        )
    queue = pipeline.queue
    if queue.reservation_underflows:
        violations.append(
            f"{queue.reservation_underflows} reservation underflow(s) "
            "(double release or lost placement)"
        )
    for cluster_name, reserved in sorted(queue._reserved.items()):
        if _quantities_differ(reserved, ResourceQuantity()):
            violations.append(
                f"cluster {cluster_name}: {reserved} still reserved "
                "(leaked placement reservation)"
            )
    for user, quota in sorted(queue.quotas.items()):
        if quota.cpu_used or quota.memory_used or quota.gpu_used:
            violations.append(
                f"user {user}: quota still charged "
                f"(cpu={quota.cpu_used}, mem={quota.memory_used}, "
                f"gpu={quota.gpu_used})"
            )
    return violations


def check_read_accounting(
    records: Sequence[WorkflowRecord], workflows: Sequence[ExecutableWorkflow]
) -> List[str]:
    """Cache reads count once per input per record.

    A Succeeded step has read every input, so its ``cache_hits +
    cache_misses`` equals its number of distinct input uids; no step
    counts more than that, whatever retries, restarts, checkpoints or
    journal resumes it went through.  ``workflows`` are the specs that
    produced ``records``, matched by name.
    """
    specs = {workflow.name: workflow for workflow in workflows}
    violations: List[str] = []
    for record in records:
        workflow = specs.get(record.name)
        if workflow is None:
            continue
        for name, step in sorted(record.steps.items()):
            inputs = len({artifact.uid for artifact in workflow.steps[name].inputs})
            counted = step.cache_hits + step.cache_misses
            if counted > inputs or (
                step.status == StepStatus.SUCCEEDED and counted != inputs
            ):
                violations.append(
                    f"{record.name}/{name} ({step.status.value}) counted "
                    f"{counted} reads for {inputs} distinct inputs"
                )
    return violations


def full_check(
    operators: Sequence[WorkflowOperator] = (),
    pipeline: Optional[AdmissionPipeline] = None,
    quiescent: bool = True,
) -> InvariantReport:
    """Sweep every invariant over the given components."""
    violations: List[str] = []
    for operator in operators:
        violations.extend(check_cluster(operator.cluster))
        if quiescent:
            violations.extend(check_operator_idle(operator))
    if pipeline is not None and quiescent:
        violations.extend(check_queue_drained(pipeline))
    return InvariantReport(violations=violations)
