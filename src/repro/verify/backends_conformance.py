"""Structural conformance checks for compiled backend output.

No real Argo/Airflow/Tekton deployment exists in this environment, so
these validators assert the *shape* each engine's API server would
enforce: required top-level keys, referential integrity (every DAG task
references an existing template, every dependency an existing task),
parseable annotations and conditions, and YAML-serializability.  The
Airflow module must additionally be valid Python (``ast.parse``) with
one operator per IR node and one ``>>`` wire per edge.

:func:`check_ir_roundtrip` asserts IR → dict → IR identity — the wire
format the server's database persists must be lossless.
"""

from __future__ import annotations

import ast
import json
import re
from typing import List

import yaml

from ..backends.airflow import AirflowBackend, _py_identifier
from ..backends.argo import ArgoBackend
from ..backends.tekton import TektonBackend
from ..engine.operator import validate_when_expr
from ..engine.spec import SIM_ANNOTATION, SpecError
from ..ir.graph import WorkflowIR
from ..ir.serialize import ir_from_dict, ir_to_dict
from ..k8s.objects import dump_yaml

_NAME_RE = re.compile(r"^[a-z0-9]([a-z0-9.-]*[a-z0-9])?$", re.IGNORECASE)


def _check_k8s_name(name: object, where: str, problems: List[str]) -> None:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        problems.append(f"{where}: invalid Kubernetes name {name!r}")


def _check_yaml_serializable(payload: object, where: str, problems: List[str]) -> None:
    try:
        dump_yaml(payload)
    except yaml.YAMLError as exc:
        problems.append(f"{where}: not YAML-serializable: {exc}")


# ---------------------------------------------------------------------- argo


def validate_argo_manifest(manifest: dict) -> List[str]:
    """Structural problems in an Argo ``Workflow`` manifest (empty = ok)."""
    problems: List[str] = []
    if manifest.get("apiVersion") != "argoproj.io/v1alpha1":
        problems.append(f"argo: bad apiVersion {manifest.get('apiVersion')!r}")
    if manifest.get("kind") != "Workflow":
        problems.append(f"argo: bad kind {manifest.get('kind')!r}")
    _check_k8s_name(
        manifest.get("metadata", {}).get("name"), "argo: metadata.name", problems
    )
    spec = manifest.get("spec", {})
    templates = spec.get("templates", [])
    by_name = {t.get("name"): t for t in templates}
    entrypoint = spec.get("entrypoint")
    if entrypoint not in by_name:
        problems.append(f"argo: entrypoint {entrypoint!r} is not a template")
        return problems
    dag = by_name[entrypoint].get("dag", {})
    tasks = dag.get("tasks", [])
    task_names = {task.get("name") for task in tasks}
    for task in tasks:
        name = task.get("name")
        if task.get("template") not in by_name:
            problems.append(
                f"argo: task {name!r} references missing template "
                f"{task.get('template')!r}"
            )
        for dep in task.get("dependencies", []):
            if dep not in task_names:
                problems.append(
                    f"argo: task {name!r} depends on unknown task {dep!r}"
                )
        when = task.get("when")
        if when is not None:
            try:
                validate_when_expr(when, name or "?")
            except SpecError as exc:
                problems.append(f"argo: {exc}")
    for template in templates:
        name = template.get("name")
        if name == entrypoint:
            continue
        _check_k8s_name(name, "argo: template name", problems)
        bodies = [k for k in ("container", "script", "dag") if k in template]
        if len(bodies) != 1:
            problems.append(
                f"argo: template {name!r} must have exactly one body, "
                f"got {bodies}"
            )
        annotation = (
            template.get("metadata", {}).get("annotations", {}).get(SIM_ANNOTATION)
        )
        if annotation is None:
            problems.append(f"argo: template {name!r} missing {SIM_ANNOTATION}")
        else:
            try:
                json.loads(annotation)
            except json.JSONDecodeError:
                problems.append(
                    f"argo: template {name!r} has unparseable sim annotation"
                )
        retry = template.get("retryStrategy")
        if retry is not None:
            limit = retry.get("limit")
            if not isinstance(limit, int) or limit < 0:
                problems.append(
                    f"argo: template {name!r} retryStrategy.limit {limit!r}"
                )
    _check_yaml_serializable(manifest, "argo", problems)
    return problems


# ------------------------------------------------------------------- airflow


def validate_airflow_source(source: str, ir: WorkflowIR) -> List[str]:
    """Structural problems in a generated Airflow DAG module."""
    problems: List[str] = []
    try:
        ast.parse(source)
    except SyntaxError as exc:
        return [f"airflow: generated module is not valid Python: {exc}"]
    for name in ir.nodes:
        if f"task_id={name!r}" not in source:
            problems.append(f"airflow: no operator with task_id {name!r}")
    for parent, child in sorted(ir.edges):
        wire = f"{_py_identifier(parent)} >> {_py_identifier(child)}"
        if wire not in source:
            problems.append(f"airflow: missing dependency wire {wire!r}")
    for name, node in ir.nodes.items():
        if node.when and f"task_id={f'guard-{name}'!r}" not in source:
            problems.append(f"airflow: conditional step {name!r} has no guard")
    return problems


# -------------------------------------------------------------------- tekton


def validate_tekton_manifests(compiled: dict, ir: WorkflowIR) -> List[str]:
    """Structural problems in Tekton Pipeline/PipelineRun manifests."""
    problems: List[str] = []
    pipeline = compiled.get("pipeline", {})
    run = compiled.get("pipelineRun", {})
    for payload, kind in ((pipeline, "Pipeline"), (run, "PipelineRun")):
        if payload.get("apiVersion") != "tekton.dev/v1":
            problems.append(f"tekton: {kind} bad apiVersion")
        if payload.get("kind") != kind:
            problems.append(f"tekton: expected kind {kind}")
        _check_k8s_name(
            payload.get("metadata", {}).get("name"),
            f"tekton: {kind} name",
            problems,
        )
    tasks = pipeline.get("spec", {}).get("tasks", [])
    task_names = [task.get("name") for task in tasks]
    if sorted(task_names) != sorted(ir.nodes):
        problems.append(
            f"tekton: tasks {sorted(task_names)} != IR nodes {sorted(ir.nodes)}"
        )
    seen = set()
    for task in tasks:
        name = task.get("name")
        if name in seen:
            problems.append(f"tekton: duplicate task {name!r}")
        seen.add(name)
        steps = task.get("taskSpec", {}).get("steps", [])
        if not steps:
            problems.append(f"tekton: task {name!r} has no steps")
        for dep in task.get("runAfter", []):
            if dep not in task_names:
                problems.append(
                    f"tekton: task {name!r} runAfter unknown task {dep!r}"
                )
    ref = run.get("spec", {}).get("pipelineRef", {}).get("name")
    if ref != pipeline.get("metadata", {}).get("name"):
        problems.append(
            f"tekton: PipelineRun references {ref!r}, not the Pipeline"
        )
    _check_yaml_serializable(compiled, "tekton", problems)
    return problems


# ----------------------------------------------------------------- roundtrip


def check_ir_roundtrip(ir: WorkflowIR) -> List[str]:
    """IR → dict → IR identity under the serialized form."""
    problems: List[str] = []
    data = ir_to_dict(ir)
    restored = ir_from_dict(data)
    if ir_to_dict(restored) != data:
        problems.append("roundtrip: ir_to_dict(ir_from_dict(d)) != d")
    if set(restored.nodes) != set(ir.nodes):
        problems.append("roundtrip: node set changed")
    if restored.edges != ir.edges:
        problems.append("roundtrip: edge set changed")
    for name in sorted(set(restored.nodes) & set(ir.nodes)):
        if restored.nodes[name] != ir.nodes[name]:
            problems.append(f"roundtrip: node {name!r} fields drifted")
    return problems


def conformance_problems(ir: WorkflowIR) -> List[str]:
    """Run every structural validator against ``ir``; empty list = ok."""
    problems: List[str] = []
    problems.extend(validate_argo_manifest(ArgoBackend().compile(ir)))
    problems.extend(validate_airflow_source(AirflowBackend().compile(ir), ir))
    problems.extend(validate_tekton_manifests(TektonBackend().compile(ir), ir))
    problems.extend(check_ir_roundtrip(ir))
    return problems
