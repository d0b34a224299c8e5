"""Argo Workflows backend: IR -> Argo ``Workflow`` CRD manifest.

Produces the YAML-equivalent dict the simulated operator consumes
(``repro.engine.spec.parse_argo_manifest``): one container/script
template per IR node carrying the ``sim/step-profile`` annotation, plus
a DAG entrypoint template with tasks, dependencies and ``when`` clauses.
:func:`workflow_manifest` is the one definition of that layout; the
split budget (:mod:`repro.parallelism.budget`) sizes a manifest from
the same :func:`template_for` and :func:`task_for` pieces, and bounds a
task from :func:`task_entry`'s inputs alone.
"""

from __future__ import annotations

import json
from typing import List, Optional

from ..engine.spec import SIM_ANNOTATION
from ..ir.graph import WorkflowIR
from ..ir.nodes import IRNode, OpKind
from .base import Backend, BackendInfo, register_backend


def _artifact_specs(node: IRNode, which: str) -> List[dict]:
    decls = node.inputs if which == "inputs" else node.outputs
    return [
        {
            "uid": a.uid or f"external/{a.name}",
            "size_bytes": a.size_bytes,
            "kind": a.storage.value,
        }
        for a in decls
    ]


def template_for(node: IRNode) -> dict:
    """One Argo template per IR node."""
    profile = {
        "result_options": list(node.sim.result_options),
        "duration_s": node.sim.duration_s,
        "inputs": _artifact_specs(node, "inputs"),
        "outputs": _artifact_specs(node, "outputs"),
        "failure_rate": node.sim.failure_rate,
        "failure_pattern": node.sim.failure_pattern,
        "uses_gpu": node.sim.uses_gpu,
    }
    template: dict = {
        "name": node.name,
        "metadata": {"annotations": {SIM_ANNOTATION: json.dumps(profile, sort_keys=True)}},
    }
    if node.retries is not None:
        template["retryStrategy"] = {
            "limit": node.retries,
            "retryPolicy": "OnTransientError",
        }
    runtime: dict = {"image": node.image}
    requests = node.resources.to_dict()
    if requests:
        runtime["resources"] = {"requests": requests}
    if node.op == OpKind.SCRIPT:
        runtime["command"] = ["python"]
        runtime["source"] = node.source
        template["script"] = runtime
    else:
        if node.command:
            runtime["command"] = list(node.command)
        if node.args:
            runtime["args"] = list(node.args)
        if node.op == OpKind.JOB:
            # Distributed jobs render as a resource template in real
            # Argo; the simulator treats them as one fat container.
            template["metadata"]["annotations"]["sim/job-params"] = json.dumps(
                node.job_params, sort_keys=True
            )
        template["container"] = runtime
    outputs = [
        {
            "name": a.name,
            "parameter" if a.storage.value == "parameter" else "artifact": {
                "path": a.path or f"/tmp/{a.name}"
            },
        }
        for a in node.outputs
    ]
    if outputs:
        template["outputs"] = {"parameters": outputs}
    return template


def task_entry(name: str, when: Optional[str], parents: List[str]) -> dict:
    """A DAG task that runs the template ``name`` after ``parents`` when
    ``when`` holds: nothing else of a node shapes its task."""
    task: dict = {"name": name, "template": name}
    if parents:
        task["dependencies"] = parents
    if when:
        task["when"] = when
    return task


def task_for(node: IRNode, parents: List[str]) -> dict:
    """The node's task in the DAG entrypoint template."""
    return task_entry(node.name, node.when, parents)


def workflow_manifest(name: str, templates: List[dict], tasks: List[dict]) -> dict:
    """The ``Workflow`` manifest around its node templates and DAG tasks."""
    return {
        "apiVersion": "argoproj.io/v1alpha1",
        "kind": "Workflow",
        "metadata": {"name": name, "namespace": "default"},
        "spec": {
            "entrypoint": "main",
            "templates": templates + [{"name": "main", "dag": {"tasks": tasks}}],
        },
    }


@register_backend
class ArgoBackend(Backend):
    """IR -> Argo Workflow manifest (the paper's primary engine)."""

    info = BackendInfo(name="argo", output_format="yaml", api_coverage=0.90)

    def compile(self, ir: WorkflowIR) -> dict:
        ir = self.prepare(ir)
        parents, _ = ir.adjacency()
        order = ir.topological_order()
        return workflow_manifest(
            ir.name,
            [template_for(ir.nodes[name]) for name in order],
            [task_for(ir.nodes[name], parents[name]) for name in order],
        )
