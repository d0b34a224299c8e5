"""Ablation — split budget sweep for big-workflow auto-parallelism.

Sweeps Algorithm 3's step budget over a large workflow and measures:
the number of sub-workflows produced, the largest part's YAML size
(all must clear the CRD limit), and the staged end-to-end makespan.
Also demonstrates the motivating failure: submitting the unsplit
workflow is rejected by the API server's CRD size limit.

Expected shape: smaller budgets yield more parts and longer makespans
(lost cross-part parallelism); the makespan approaches the monolithic
lower bound as the budget grows.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from ..engine.operator import WorkflowOperator
from ..engine.simclock import SimClock
from ..engine.status import WorkflowPhase
from ..ir.graph import WorkflowIR
from ..ir.nodes import IRNode, OpKind, SimHint
from ..k8s.apiserver import APIServer, CRDTooLargeError
from ..k8s.cluster import Cluster
from ..k8s.resources import ResourceQuantity
from ..backends.argo import ArgoBackend
from ..parallelism.budget import BudgetModel
from ..parallelism.splitter import WorkflowSplitter
from ..parallelism.stitch import manifest_submit, merge_part_records, run_parts
from .reporting import format_table

GB = 2**30


def build_big_workflow(
    num_layers: int = 12, width: int = 35, seed: int = 7
) -> WorkflowIR:
    """A ~400-node layered DAG like the production case the paper hit."""
    rng = random.Random(seed)
    ir = WorkflowIR(name="big-production-wf")
    previous: List[str] = []
    for layer in range(num_layers):
        current = []
        for index in range(width):
            name = f"l{layer}-n{index}"
            ir.add_node(
                IRNode(
                    name=name,
                    op=OpKind.CONTAINER,
                    image="etl-worker:v3",
                    resources=ResourceQuantity(cpu=2.0, memory=4 * GB),
                    sim=SimHint(duration_s=45 + rng.random() * 30),
                )
            )
            for parent in rng.sample(previous, min(2, len(previous))):
                ir.add_edge(parent, name)
            current.append(name)
        previous = current
    return ir


def run(
    step_budgets: Sequence[int] = (50, 100, 200, 400),
    crd_limit: int = 120_000,
    seed: int = 7,
) -> Dict[str, object]:
    ir = build_big_workflow(seed=seed)
    manifest = ArgoBackend().compile(ir)

    # The motivating failure: the unsplit CRD is rejected.
    api = APIServer(crd_size_limit=crd_limit)
    unsplit_rejected = False
    try:
        from ..k8s.objects import APIObject

        api.create(APIObject.from_dict(manifest))
    except CRDTooLargeError:
        unsplit_rejected = True

    rows = []
    for steps in step_budgets:
        budget = BudgetModel(max_yaml_bytes=crd_limit, max_steps=steps)
        plan = WorkflowSplitter(budget).split(ir)
        clock = SimClock()
        cluster = Cluster.uniform("split", 24, cpu_per_node=32, memory_per_node=128 * GB)
        operator = WorkflowOperator(
            clock, cluster, api_server=APIServer(crd_size_limit=crd_limit)
        )
        records = run_parts(plan.num_parts, plan.cross_edges, manifest_submit(operator, plan))
        operator.run_to_completion()
        record = merge_part_records(ir.name, records)
        rows.append(
            {
                "step_budget": steps,
                "parts": plan.num_parts,
                "max_part_yaml": max(c.yaml_bytes for c in plan.costs),
                "makespan_s": record.makespan,
                "succeeded": record.phase == WorkflowPhase.SUCCEEDED,
            }
        )
    return {"unsplit_rejected": unsplit_rejected, "rows": rows, "nodes": len(ir.nodes)}


def report(results: Dict[str, object]) -> str:
    rows = [
        (
            r["step_budget"],
            r["parts"],
            r["max_part_yaml"],
            f"{r['makespan_s']:.0f}",
            r["succeeded"],
        )
        for r in results["rows"]
    ]
    header = (
        f"Ablation: split budget sweep over a {results['nodes']}-node workflow "
        f"(unsplit CRD rejected by the API server: {results['unsplit_rejected']})"
    )
    return format_table(
        ["step budget", "parts", "max part YAML (B)", "staged makespan (s)", "ok"],
        rows,
        title=header,
    )


def main() -> None:
    print(report(run()))


if __name__ == "__main__":
    main()
