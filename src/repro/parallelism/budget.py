"""Workflow budget model (paper Sec. IV.B).

A workflow's *budget* decides whether it must be split:
``C = alpha + beta + gamma`` where alpha is the serialized CRD (YAML)
size, beta the number of steps, and gamma the number of pods.  The
production default — and this module's — is the YAML size with the
2 MB Kubernetes practical limit, plus a 200-step guard.

Exact YAML sizing compiles the IR through the Argo backend and renders
it with :func:`~repro.k8s.objects.dump_yaml`, the same function the
backends' ``compile_to_text`` uses, so alpha is always the size of the
text a backend emits.  That function uses libyaml's C emitter when
PyYAML was built with it and the pure-Python emitter otherwise.  The two
differ only in how they fold a double-quoted string longer than a line
(one holding a tab, a non-ASCII or control character, or a line break
next to a space, as an indented script source does), so such a string
sizes a few bytes apart between the two installs.

An exact size is O(n) per query, so the splitter asks for few of them.
Steps and pods are counted without compiling, and a workflow over
either limit is never compiled whole.  Splitting an n-node workflow
into k parts then compiles each node alone (the per-node estimate,
n compiles), one calibration sample, and each part once under its final
name: n + 1 + k compiles, plus one per halving of a chunk whose exact
size overshot the estimate, one per node the estimate flags as too big
to fit alone, and one whole compile when steps and pods fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..backends.argo import ArgoBackend
from ..ir.graph import WorkflowIR
from ..ir.nodes import IRNode
from ..k8s.objects import crd_yaml_size

#: The paper's practical CRD limit.
DEFAULT_MAX_YAML_BYTES = 2 * 1024 * 1024
#: The paper's step-count guard ("beta exceeds 200").
DEFAULT_MAX_STEPS = 200


def _pods(nodes: Iterable[IRNode]) -> int:
    """Pods the nodes launch: a job's parameter servers plus workers
    (at least one), one for every other node."""
    return sum(
        max(1, int(n.job_params.get("num_ps", 0)) + int(n.job_params.get("num_workers", 0)))
        if n.job_params
        else 1
        for n in nodes
    )


@dataclass(frozen=True)
class BudgetCost:
    """Measured or estimated cost of a workflow (or node subset)."""

    yaml_bytes: int
    steps: int
    pods: int


@dataclass
class BudgetModel:
    """Budget thresholds plus cost estimation for the splitter."""

    max_yaml_bytes: int = DEFAULT_MAX_YAML_BYTES
    max_steps: int = DEFAULT_MAX_STEPS
    max_pods: Optional[int] = None
    #: Fixed manifest overhead (metadata, entrypoint template).
    base_bytes: int = 512
    _backend: ArgoBackend = field(default_factory=ArgoBackend, repr=False)

    # ------------------------------------------------------------- measuring

    def exact_cost(self, ir: WorkflowIR) -> BudgetCost:
        """Compile through the Argo backend and measure the real YAML."""
        return BudgetCost(
            yaml_bytes=crd_yaml_size(self._backend.compile(ir)),
            steps=len(ir.nodes),
            pods=_pods(ir.nodes.values()),
        )

    def estimate_node_bytes(self, ir: WorkflowIR, name: str) -> int:
        """Estimated YAML contribution of one node (template + task)."""
        single = ir.subgraph([name], name="probe")
        cost = self.exact_cost(single)
        return max(64, cost.yaml_bytes - self.base_bytes)

    #: YAML bytes one DAG-task dependency entry adds (``- parent-name``).
    edge_bytes: int = 48
    #: Safety factor on estimates so a part never lands over the limit.
    estimate_margin: float = 1.05

    def estimate_cost(self, ir: WorkflowIR, names: Iterable[str], node_bytes: dict) -> BudgetCost:
        """Cheap cost estimate for a node subset using cached sizes.

        Per-node sizes come from single-node compilations, which miss
        the ``dependencies`` entries of the DAG template — those are
        added per internal edge, with a safety margin on top.
        """
        names = list(names)
        name_set = set(names)
        internal_edges = sum(
            1 for parent, child in ir.edges if parent in name_set and child in name_set
        )
        size = int(
            (
                self.base_bytes
                + sum(node_bytes[n] for n in names)
                + self.edge_bytes * internal_edges
            )
            * self.estimate_margin
        )
        pods = _pods(ir.nodes[n] for n in names)
        return BudgetCost(yaml_bytes=size, steps=len(names), pods=pods)

    # -------------------------------------------------------------- deciding

    def within(self, cost: BudgetCost) -> bool:
        if cost.yaml_bytes > self.max_yaml_bytes:
            return False
        if cost.steps > self.max_steps:
            return False
        if self.max_pods is not None and cost.pods > self.max_pods:
            return False
        return True

    def counts_within(self, ir: WorkflowIR) -> bool:
        """Are the workflow's steps and pods within budget?  No compile."""
        if len(ir.nodes) > self.max_steps:
            return False
        return self.max_pods is None or _pods(ir.nodes.values()) <= self.max_pods

    def needs_split(self, ir: WorkflowIR) -> bool:
        """Does this workflow exceed the budget as a single CRD?

        Steps and pods are counted first; the YAML is rendered only
        when both fit.
        """
        return not (self.counts_within(ir) and self.within(self.exact_cost(ir)))
