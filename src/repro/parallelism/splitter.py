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

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..ir.graph import WorkflowIR
from .budget import BudgetCost, BudgetModel, count_pods


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
    costs: List[BudgetCost] = field(default_factory=list)

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
        sample = order[: min(50, len(order))]
        sample_set = set(sample)
        estimated = self.budget.estimate_cost(
            sum(node_bytes[n] for n in sample),
            sum(1 for n in sample for p in parents[n] if p in sample_set),
            len(sample),
            sum(node_pods[n] for n in sample),
        )
        actual = self.budget.exact_cost(ir.subgraph(sample, name="calibration"))
        if estimated.yaml_bytes > 0 and actual.yaml_bytes > estimated.yaml_bytes:
            scale = actual.yaml_bytes / estimated.yaml_bytes
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
        # Greedy packing.  The candidate's sizes, pods and internal
        # edges are running sums, so each trial costs O(degree).
        chunks: List[List[str]] = []
        candidate: List[str] = []
        members: Set[str] = set()
        size = pods = edges = 0
        for vertex in order:
            new_edges = sum(1 for n in parents[vertex] + children[vertex] if n in members)
            cost = self.budget.estimate_cost(
                size + node_bytes[vertex],
                edges + new_edges,
                len(candidate) + 1,
                pods + node_pods[vertex],
            )
            if candidate and not self.budget.within(cost):
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

        for parent, child in ir.edges:
            src, dst = plan.assignment[parent], plan.assignment[child]
            if src != dst:
                plan.cross_edges.add((src, dst))
                plan.cut_edges.add((parent, child))

        for index, cost in enumerate(plan.costs):
            if not self.budget.within(cost):
                raise SplitError(
                    f"part {index} still exceeds the budget after split: {cost}"
                )
        plan.topological_part_order()  # raises on cyclic part graph
        self._check_partition(ir, plan)
        return plan

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
