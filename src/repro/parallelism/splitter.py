"""Big-workflow auto-parallelism: Algorithm 3.

Workflows with hundreds of nodes overflow the Kubernetes CRD size limit
(the API server rejects YAML past ~2 MB), so the optimizer splits the
DAG into multiple sub-workflows, each within budget, scheduled so that
cross-sub-workflow dependencies are honoured.

The algorithm walks the DAG depth-first and greedily packs vertices
into the current candidate sub-workflow until adding one more would
exceed the budget, then flushes the candidate and starts a new one —
exactly the paper's SplitWorkflow.  Packing happens along a *DFS-derived
topological order* (reverse postorder): any edge u -> v places u at or
before v's chunk, so the resulting sub-workflow dependency graph is
always acyclic and the runtime stays O(|V| + |E|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..ir.graph import WorkflowIR
from .budget import (
    BudgetCost,
    BudgetModel,
    count_pods,
    frame_bounds,
    task_bounds,
    template_bounds,
)


class SplitError(RuntimeError):
    """Raised when a workflow cannot be split within the budget."""


@dataclass
class SplitPlan:
    """The output of the splitter: sub-workflows plus their wiring."""

    original_name: str
    parts: List[WorkflowIR] = field(default_factory=list)
    #: Which part each original node landed in.
    assignment: Dict[str, int] = field(default_factory=dict)
    #: Cross-part dependency edges as (from_part, to_part) indices.
    cross_edges: Set[Tuple[int, int]] = field(default_factory=set)
    #: Original edges that now cross parts, as (parent, child) names.
    cut_edges: Set[Tuple[str, str]] = field(default_factory=set)
    _costs: Optional[List[BudgetCost]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Sizes a part exactly, for a plan made without sizing its parts.
    _sizer: Optional[Callable[[WorkflowIR], BudgetCost]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def costs(self) -> List[BudgetCost]:
        """Each part's exact cost.  A plan the byte bounds decided sizes
        its parts on the first read."""
        if self._costs is None:
            sizer = self._sizer
            self._costs = [sizer(part) for part in self.parts] if sizer else []
        return self._costs

    @costs.setter
    def costs(self, costs: List[BudgetCost]) -> None:
        self._costs = costs

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    def topological_part_order(self) -> List[int]:
        indegree = {i: 0 for i in range(self.num_parts)}
        for _, dst in self.cross_edges:
            indegree[dst] += 1
        ready = sorted(i for i, d in indegree.items() if d == 0)
        order: List[int] = []
        while ready:
            part = ready.pop(0)
            order.append(part)
            for src, dst in sorted(self.cross_edges):
                if src == part:
                    indegree[dst] -= 1
                    if indegree[dst] == 0 and dst not in order and dst not in ready:
                        ready.append(dst)
            ready.sort()
        if len(order) != self.num_parts:
            raise SplitError("cyclic dependencies between split parts")
        return order


def _part_name(ir: WorkflowIR, index: int) -> str:
    return f"{ir.name}-part-{index}"


def _calibration_sample(order: List[str]) -> List[str]:
    """The first nodes along ``order`` whose exact size calibrates the
    per-node estimates."""
    return order[: min(50, len(order))]


def _dfs_topological_order(ir: WorkflowIR, children: Dict[str, List[str]]) -> List[str]:
    """Reverse DFS postorder = a topological order, visiting roots in
    name order for determinism (iterative to handle deep graphs).
    ``children`` is :meth:`WorkflowIR.adjacency`'s."""
    visited: Set[str] = set()
    postorder: List[str] = []
    for root in ir.roots() or sorted(ir.nodes):
        if root in visited:
            continue
        stack: List[Tuple[str, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                postorder.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for child in reversed(children[node]):
                if child not in visited:
                    stack.append((child, False))
    # Isolated nodes unreachable from roots (cannot happen in a DAG with
    # roots() = indegree-0 set, but keep the invariant explicit).
    for node in sorted(ir.nodes):
        if node not in visited:
            postorder.append(node)
    return list(reversed(postorder))


class WorkflowSplitter:
    """Algorithm 3 driver."""

    def __init__(self, budget: BudgetModel | None = None) -> None:
        self.budget = budget or BudgetModel()

    def split(self, ir: WorkflowIR) -> SplitPlan:
        """Split ``ir`` into budget-compliant sub-workflows.

        The plan is always :meth:`split_rendering`'s.  When the byte
        bounds decide it (:meth:`split_by_bounds`), no YAML is rendered
        and the parts are sized on the first read of their costs;
        otherwise :meth:`split_rendering` runs.
        """
        plan = self.split_by_bounds(ir)
        return plan if plan is not None else self.split_rendering(ir)

    def split_rendering(self, ir: WorkflowIR) -> SplitPlan:
        """Split ``ir``, sizing by rendering what the budget compares.

        A workflow already within budget returns a single-part plan
        (the algorithm's early return at line 10–12).  Steps and pods
        are counted first, so a workflow over either limit is never
        rendered whole.
        """
        ir.finalize_artifacts()
        ir.validate()
        plan = SplitPlan(original_name=ir.name)
        if self.budget.counts_within(ir):
            whole_cost = self.budget.exact_cost(ir)
            if self.budget.within(whole_cost):
                plan.parts = [ir]
                plan.assignment = {name: 0 for name in ir.nodes}
                plan.costs = [whole_cost]
                return plan

        node_bytes = self.budget.estimate_node_bytes(ir)
        node_pods = {name: count_pods([node]) for name, node in ir.nodes.items()}
        parents, children = ir.adjacency()
        order = _dfs_topological_order(ir, children)

        # Self-calibration: per-node estimates from one-node workflows
        # miss structure shared across templates; scale them against an
        # exact size of one sample chunk so estimates track reality.
        sample = _calibration_sample(order)
        estimated = self._estimate(sample, node_bytes, node_pods, parents)
        actual = self.budget.exact_cost(ir.subgraph(sample, name="calibration"))
        if estimated > 0 and actual.yaml_bytes > estimated:
            scale = actual.yaml_bytes / estimated
            node_bytes = {name: int(size * scale) + 1 for name, size in node_bytes.items()}

        # The calibrated estimate can overshoot a lone node; refuse only
        # nodes whose exact size as a part of their own is too big.
        oversized = [
            name
            for name, size in node_bytes.items()
            if size + self.budget.base_bytes > self.budget.max_yaml_bytes
            and not self.fits_alone(ir, name)
        ]
        if oversized:
            raise SplitError(
                f"nodes exceed the budget even alone: {sorted(oversized)}"
            )
        chunks, _ = self._pack(order, node_bytes, node_pods, parents, children)

        # Exact verification with halving fallback: any chunk whose real
        # size still exceeds the budget is split in two along the same
        # order (the estimate is conservative, so this is rare and
        # terminates at single nodes).  Each chunk is sized once, under
        # the name it keeps as a part, so the cost that accepts it is
        # the plan's.
        pending = list(chunks)
        while pending:
            chunk = pending.pop(0)
            index = plan.num_parts
            part = ir.subgraph(chunk, name=_part_name(ir, index))
            cost = self.budget.exact_cost(part)
            if self.budget.within(cost) or len(chunk) == 1:
                plan.parts.append(part)
                plan.costs.append(cost)
                for name in chunk:
                    plan.assignment[name] = index
            else:
                middle = len(chunk) // 2
                pending.insert(0, chunk[middle:])
                pending.insert(0, chunk[:middle])

        for index, cost in enumerate(plan.costs):
            if not self.budget.within(cost):
                raise SplitError(
                    f"part {index} still exceeds the budget after split: {cost}"
                )
        self._wire(ir, plan)
        return plan

    def split_by_bounds(self, ir: WorkflowIR) -> Optional[SplitPlan]:
        """:meth:`split_rendering`'s plan, made without rendering, or
        ``None`` when one of its byte comparisons might fail.

        An upper bound stands in for every size that method holds
        against the byte limit: the whole workflow, each calibrated
        node estimate (its calibration scale at most the sample's upper
        bound over its estimate's lower bound), the largest greedy
        estimate and each part under its final name.  When every upper
        bound fits, no comparison of bytes decides anything, so steps
        and pods alone pack the parts, and no chunk is halved.
        """
        ir.finalize_artifacts()
        ir.validate()
        budget = self.budget
        limit = budget.max_yaml_bytes
        plan = SplitPlan(original_name=ir.name)
        plan._sizer = budget.exact_cost
        if budget.counts_within(ir):
            if budget.byte_bounds(ir)[1] > limit:
                return None
            plan.parts = [ir]
            plan.assignment = {name: 0 for name in ir.nodes}
            return plan

        node_pods = {name: count_pods([node]) for name, node in ir.nodes.items()}
        parents, children = ir.adjacency()
        order = _dfs_topological_order(ir, children)
        templates = {name: template_bounds(node) for name, node in ir.nodes.items()}

        def upper(names: List[str], name: str) -> float:
            """Upper bound on the bytes of ``ir.subgraph(names, name)``."""
            members = set(names)
            size = frame_bounds(name)[1]
            for node in names:
                inside = [parent for parent in parents[node] if parent in members]
                size += templates[node][1] + task_bounds(ir.nodes[node], inside)[1]
            return size

        probe_lo, probe_hi = frame_bounds("probe")
        lows: Dict[str, float] = {}
        highs: Dict[str, float] = {}
        for name, node in ir.nodes.items():
            task_lo, task_hi = task_bounds(node, [])
            lows[name] = budget.node_estimate(probe_lo, templates[name][0] + task_lo)
            highs[name] = budget.node_estimate(probe_hi, templates[name][1] + task_hi)
        sample = _calibration_sample(order)
        estimated = self._estimate(sample, lows, node_pods, parents)
        actual = upper(sample, "calibration")
        largest = max(highs.values(), default=0)
        if estimated <= 0 or math.isinf(actual) or math.isinf(largest):
            return None
        if actual > estimated:
            scale = actual / estimated
            highs = {name: int(size * scale) + 1 for name, size in highs.items()}
        if max(highs.values(), default=0) + budget.base_bytes > limit:
            return None
        chunks, largest = self._pack(order, highs, node_pods, parents, children)
        if largest > limit:
            return None
        for index, chunk in enumerate(chunks):
            part = ir.subgraph(chunk, name=_part_name(ir, index))
            # A lone node over the steps or pods limit fails the plan.
            if upper(chunk, part.name) > limit or not budget.counts_within(part):
                return None
            plan.parts.append(part)
            for name in chunk:
                plan.assignment[name] = index
        self._wire(ir, plan)
        return plan

    def _estimate(
        self,
        names: List[str],
        node_bytes: Dict[str, float],
        node_pods: Dict[str, int],
        parents: Dict[str, List[str]],
    ) -> int:
        """The byte estimate of the nodes ``names`` as one part."""
        members = set(names)
        return self.budget.estimate_cost(
            sum(node_bytes[n] for n in names),
            sum(1 for n in names for p in parents[n] if p in members),
            len(names),
            sum(node_pods[n] for n in names),
        ).yaml_bytes

    def _pack(
        self,
        order: List[str],
        node_bytes: Dict[str, float],
        node_pods: Dict[str, int],
        parents: Dict[str, List[str]],
        children: Dict[str, List[str]],
    ) -> Tuple[List[List[str]], int]:
        """Greedy packing along ``order``, and the largest byte estimate
        held against the budget.

        The candidate's sizes, pods and internal edges are running
        sums, so each trial costs O(degree).
        """
        chunks: List[List[str]] = []
        candidate: List[str] = []
        members: Set[str] = set()
        size = pods = edges = largest = 0
        for vertex in order:
            new_edges = sum(1 for n in parents[vertex] + children[vertex] if n in members)
            if candidate:
                cost = self.budget.estimate_cost(
                    size + node_bytes[vertex],
                    edges + new_edges,
                    len(candidate) + 1,
                    pods + node_pods[vertex],
                )
                largest = max(largest, cost.yaml_bytes)
                if not self.budget.within(cost):
                    chunks.append(candidate)
                    candidate, members = [], set()
                    size = pods = edges = new_edges = 0
            candidate.append(vertex)
            members.add(vertex)
            size += node_bytes[vertex]
            pods += node_pods[vertex]
            edges += new_edges
        if candidate:
            chunks.append(candidate)
        return chunks, largest

    def _wire(self, ir: WorkflowIR, plan: SplitPlan) -> None:
        """Record the edges the parts cut, then check the plan: an
        acyclic part graph (raises) and an exact partition of ``ir``."""
        for parent, child in ir.edges:
            src, dst = plan.assignment[parent], plan.assignment[child]
            if src != dst:
                plan.cross_edges.add((src, dst))
                plan.cut_edges.add((parent, child))
        plan.topological_part_order()  # raises on cyclic part graph
        self._check_partition(ir, plan)

    def fits_alone(self, ir: WorkflowIR, name: str) -> bool:
        """Does node ``name`` fit the budget as the only node of a part?

        Exact: sizes the node alone under the first part's name, the
        shortest name a part of ``ir`` gets.  A node that fails this
        cannot be placed by any split.
        """
        alone = ir.subgraph([name], name=_part_name(ir, 0))
        return self.budget.within(self.budget.exact_cost(alone))

    @staticmethod
    def _check_partition(ir: WorkflowIR, plan: SplitPlan) -> None:
        part_nodes = [set(p.nodes) for p in plan.parts]
        union: Set[str] = set()
        for nodes in part_nodes:
            overlap = union & nodes
            if overlap:
                raise SplitError(f"nodes assigned to multiple parts: {sorted(overlap)}")
            union |= nodes
        if union != set(ir.nodes):
            missing = set(ir.nodes) - union
            raise SplitError(f"nodes missing from the split: {sorted(missing)}")
        kept = set()
        for part in plan.parts:
            kept |= part.edges
        if kept | plan.cut_edges != ir.edges:
            raise SplitError("split dropped dependency edges")
