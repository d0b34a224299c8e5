#!/usr/bin/env python
"""Big-workflow auto-parallelism (paper Sec. IV.B, Algorithm 3).

Builds a 400+-node production-style ETL workflow, shows that the
Kubernetes API server rejects the monolithic CRD (the 2 MB practical
limit the paper cites), splits it with Algorithm 3, and runs the
parts through the split-part executor, which honours every cross-part
dependency.

Run:  python examples/big_workflow_split.py
"""

from repro.backends import ArgoBackend
from repro.core.submitter import default_environment
from repro.experiments.ablation_split_budget import build_big_workflow
from repro.k8s.apiserver import APIServer, CRDTooLargeError
from repro.k8s.objects import APIObject
from repro.parallelism import (
    BudgetModel,
    WorkflowSplitter,
    manifest_submit,
    merge_part_records,
    run_parts,
)


def main() -> None:
    ir = build_big_workflow(num_layers=12, width=35)
    manifest = ArgoBackend().compile(ir)
    print(f"workflow: {len(ir.nodes)} nodes, {len(ir.edges)} edges")

    crd_limit = 120_000
    api = APIServer(crd_size_limit=crd_limit)
    try:
        api.create(APIObject.from_dict(manifest))
        print("unexpected: monolithic CRD accepted")
    except CRDTooLargeError as exc:
        print(f"monolithic submission rejected, as in production:\n  {exc}")

    budget = BudgetModel(max_yaml_bytes=crd_limit, max_steps=100)
    plan = WorkflowSplitter(budget).split(ir)
    print(f"\nAlgorithm 3 split the workflow into {plan.num_parts} parts:")
    for index, (part, cost) in enumerate(zip(plan.parts, plan.costs)):
        deps = sorted(src for src, dst in plan.cross_edges if dst == index)
        print(
            f"  part {index}: {cost.steps} steps, {cost.yaml_bytes} B YAML, "
            f"depends on parts {deps or 'none'}"
        )

    # The split-part executor submits each part, as its own Argo
    # manifest, once the parts it depends on have succeeded, forwarding
    # their step results.
    operator = default_environment(num_nodes=24, cpu_per_node=32)
    records = run_parts(plan.num_parts, plan.cross_edges, manifest_submit(operator, plan))
    operator.run_to_completion()
    merged = merge_part_records(ir.name, records)
    print(
        f"\nstaged execution: {merged.phase.value} "
        f"makespan={merged.makespan:.0f}s "
        f"(every part cleared the {crd_limit} B CRD limit)"
    )


if __name__ == "__main__":
    main()
