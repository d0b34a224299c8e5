"""Executable workflow model consumed by the simulated operator.

The operator does not execute Couler IR directly — faithful to the
paper's architecture, the IR is compiled by a backend (``repro.backends``)
into an engine manifest (an Argo ``Workflow`` CRD), and the operator
parses that manifest back into the :class:`ExecutableWorkflow` model in
this module.  Simulation quantities (step duration, artifact sizes,
failure profile) travel as ``sim/*`` annotations on the manifest, the way
a production operator consumes scheduling hints.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..k8s.resources import ResourceQuantity


class SpecError(ValueError):
    """Raised for malformed executable workflow specs."""


@dataclass(frozen=True)
class ArtifactSpec:
    """A produced/consumed artifact with its storage footprint.

    ``uid`` must be globally unique within a simulation (conventionally
    ``<workflow>/<step>/<name>``); the caching layer keys on it.
    """

    uid: str
    size_bytes: int
    kind: str = "data"

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise SpecError(f"artifact {self.uid}: negative size")


@dataclass
class FailureProfile:
    """Probability of a step attempt failing, and with which pattern."""

    rate: float = 0.0
    pattern: str = "PodCrashErr"

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise SpecError(f"failure rate must be in [0,1]: {self.rate}")


@dataclass
class ExecutableStep:
    """One schedulable step of a workflow."""

    name: str
    duration_s: float
    requests: ResourceQuantity = field(default_factory=ResourceQuantity)
    dependencies: List[str] = field(default_factory=list)
    #: Artifacts this step reads.  Inputs produced by an upstream step
    #: share that step's output uid; inputs with no producer model raw
    #: external data (tables / files in remote storage).
    inputs: List[ArtifactSpec] = field(default_factory=list)
    outputs: List[ArtifactSpec] = field(default_factory=list)
    failure: FailureProfile = field(default_factory=FailureProfile)
    uses_gpu: bool = False
    #: Per-step retry limit; None defers to the operator's policy.
    retry_limit: Optional[int] = None
    #: Argo-style run condition (e.g. ``"{{flip.result}} == heads"``);
    #: evaluated by the engine against recorded step results.
    when_expr: Optional[str] = None
    #: Possible ``result`` values this step can produce; the engine
    #: draws one (seeded) at completion.
    result_options: tuple = ()

    def __post_init__(self) -> None:
        if self.duration_s < 0 or not math.isfinite(self.duration_s):
            raise SpecError(f"step {self.name}: duration must be finite and >= 0")
        if self.retry_limit is not None and self.retry_limit < 0:
            raise SpecError(f"step {self.name}: negative retry limit")


@dataclass
class ExecutableWorkflow:
    """A DAG of :class:`ExecutableStep` ready for the operator."""

    name: str
    steps: Dict[str, ExecutableStep] = field(default_factory=dict)
    #: Memoized :meth:`largest_request`: both admission and the operator
    #: ask it of every workflow.  Steps are treated as immutable once
    #: added — the same contract :meth:`QueuedWorkflow.peak_demand`
    #: relies on — so :meth:`add_step` is the only invalidation point.
    _largest: Optional[ResourceQuantity] = field(default=None, repr=False, compare=False)

    def add_step(self, step: ExecutableStep) -> ExecutableStep:
        if step.name in self.steps:
            raise SpecError(f"duplicate step name: {step.name}")
        self.steps[step.name] = step
        self._largest = None
        return step

    def largest_request(self) -> ResourceQuantity:
        """Each resource's largest request over the steps: a node that
        fits it fits every step."""
        if self._largest is None:
            cpu, memory, gpu = 0.0, 0, 0
            for step in self.steps.values():
                requests = step.requests
                cpu = max(cpu, requests.cpu)
                memory = max(memory, requests.memory)
                gpu = max(gpu, requests.gpu)
            self._largest = ResourceQuantity(cpu=cpu, memory=memory, gpu=gpu)
        return self._largest

    def validate(self) -> None:
        """Check dependency references and acyclicity."""
        for step in self.steps.values():
            for dep in step.dependencies:
                if dep not in self.steps:
                    raise SpecError(f"step {step.name}: unknown dependency {dep!r}")
        # Kahn's algorithm for cycle detection.
        indegree = {name: 0 for name in self.steps}
        for step in self.steps.values():
            for _ in step.dependencies:
                indegree[step.name] += 1
        ready = [name for name, deg in indegree.items() if deg == 0]
        seen = 0
        children: Dict[str, List[str]] = {name: [] for name in self.steps}
        for step in self.steps.values():
            for dep in step.dependencies:
                children[dep].append(step.name)
        while ready:
            node = ready.pop()
            seen += 1
            for child in children[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        if seen != len(self.steps):
            raise SpecError(f"workflow {self.name} contains a dependency cycle")

    def producers(self) -> Dict[str, str]:
        """Map artifact uid -> producing step name."""
        out: Dict[str, str] = {}
        for step in self.steps.values():
            for artifact in step.outputs:
                out[artifact.uid] = step.name
        return out

    def artifacts(self) -> Dict[str, ArtifactSpec]:
        out: Dict[str, ArtifactSpec] = {}
        for step in self.steps.values():
            for artifact in step.outputs:
                out[artifact.uid] = artifact
        return out


# --------------------------------------------------------------------------
# ExecutableWorkflow <-> plain dict (journal spec records)
# --------------------------------------------------------------------------


def _artifact_to_dict(artifact: ArtifactSpec) -> dict:
    return {
        "uid": artifact.uid,
        "size_bytes": artifact.size_bytes,
        "kind": artifact.kind,
    }


def _artifact_from_dict(data: dict) -> ArtifactSpec:
    return ArtifactSpec(
        uid=data["uid"], size_bytes=data["size_bytes"], kind=data.get("kind", "data")
    )


def executable_to_dict(workflow: ExecutableWorkflow) -> dict:
    """Lossless JSON-safe form of an executable workflow.

    The journal stores this once per workflow (the ``submitted``
    record's ``spec`` payload) so a replica that never saw the original
    submission can resume it from the journal alone.  Resource numbers
    stay raw floats/ints — never rounded quantity strings — so a
    round-trip is exact.
    """
    return {
        "name": workflow.name,
        "steps": [
            {
                "name": step.name,
                "duration_s": step.duration_s,
                "requests": {
                    "cpu": step.requests.cpu,
                    "memory": step.requests.memory,
                    "gpu": step.requests.gpu,
                },
                "dependencies": list(step.dependencies),
                "inputs": [_artifact_to_dict(a) for a in step.inputs],
                "outputs": [_artifact_to_dict(a) for a in step.outputs],
                "failure_rate": step.failure.rate,
                "failure_pattern": step.failure.pattern,
                "uses_gpu": step.uses_gpu,
                "retry_limit": step.retry_limit,
                "when_expr": step.when_expr,
                "result_options": list(step.result_options),
            }
            for step in workflow.steps.values()
        ],
    }


def executable_from_dict(data: dict) -> ExecutableWorkflow:
    """Inverse of :func:`executable_to_dict` (validates the DAG)."""
    workflow = ExecutableWorkflow(name=data["name"])
    for entry in data["steps"]:
        requests = entry.get("requests", {})
        workflow.add_step(
            ExecutableStep(
                name=entry["name"],
                duration_s=entry["duration_s"],
                requests=ResourceQuantity(
                    cpu=requests.get("cpu", 0.0),
                    memory=requests.get("memory", 0),
                    gpu=requests.get("gpu", 0),
                ),
                dependencies=list(entry.get("dependencies", [])),
                inputs=[_artifact_from_dict(a) for a in entry.get("inputs", [])],
                outputs=[_artifact_from_dict(a) for a in entry.get("outputs", [])],
                failure=FailureProfile(
                    rate=entry.get("failure_rate", 0.0),
                    pattern=entry.get("failure_pattern", "PodCrashErr"),
                ),
                uses_gpu=entry.get("uses_gpu", False),
                retry_limit=entry.get("retry_limit"),
                when_expr=entry.get("when_expr"),
                result_options=tuple(entry.get("result_options", ())),
            )
        )
    workflow.validate()
    return workflow


# --------------------------------------------------------------------------
# Argo manifest <-> ExecutableWorkflow
# --------------------------------------------------------------------------

SIM_ANNOTATION = "sim/step-profile"


def step_profile_annotation(step: ExecutableStep) -> str:
    """Serialize simulation hints for an Argo template annotation."""
    return json.dumps(
        {
            "result_options": list(step.result_options),
            "duration_s": step.duration_s,
            "inputs": [
                {"uid": a.uid, "size_bytes": a.size_bytes, "kind": a.kind}
                for a in step.inputs
            ],
            "outputs": [
                {"uid": a.uid, "size_bytes": a.size_bytes, "kind": a.kind}
                for a in step.outputs
            ],
            "failure_rate": step.failure.rate,
            "failure_pattern": step.failure.pattern,
            "uses_gpu": step.uses_gpu,
        },
        sort_keys=True,
    )


def parse_argo_manifest(manifest: dict) -> ExecutableWorkflow:
    """Parse an Argo ``Workflow`` manifest into an executable model.

    Understands manifests produced by :mod:`repro.backends.argo`: a DAG
    entrypoint template whose tasks reference container templates, with
    ``sim/step-profile`` annotations carrying simulation quantities.
    Templates without the annotation get defaults (60 s, 1 CPU).
    """
    if manifest.get("kind") != "Workflow":
        raise SpecError(f"not an Argo Workflow manifest: kind={manifest.get('kind')}")
    spec = manifest.get("spec", {})
    templates = {t["name"]: t for t in spec.get("templates", [])}
    entrypoint = spec.get("entrypoint")
    if entrypoint not in templates:
        raise SpecError(f"entrypoint template {entrypoint!r} not found")
    entry = templates[entrypoint]
    if "dag" not in entry:
        raise SpecError("entrypoint template must be a DAG template")

    workflow = ExecutableWorkflow(name=manifest.get("metadata", {}).get("name", "wf"))
    for task in entry["dag"].get("tasks", []):
        template = templates.get(task["template"])
        if template is None:
            raise SpecError(f"task {task['name']}: unknown template {task['template']!r}")
        annotations = template.get("metadata", {}).get("annotations", {})
        profile = json.loads(annotations.get(SIM_ANNOTATION, "{}"))
        container = template.get("container", template.get("script", {}))
        requests = ResourceQuantity.parse(
            container.get("resources", {}).get("requests", {})
        )
        outputs = [
            ArtifactSpec(uid=o["uid"], size_bytes=o["size_bytes"], kind=o.get("kind", "data"))
            for o in profile.get("outputs", [])
        ]
        inputs = [
            ArtifactSpec(uid=i["uid"], size_bytes=i["size_bytes"], kind=i.get("kind", "data"))
            for i in profile.get("inputs", [])
        ]
        retry_limit = template.get("retryStrategy", {}).get("limit")
        workflow.add_step(
            ExecutableStep(
                name=task["name"],
                duration_s=float(profile.get("duration_s", 60.0)),
                requests=requests if not requests.is_zero() else ResourceQuantity(cpu=1.0),
                dependencies=list(task.get("dependencies", [])),
                inputs=inputs,
                outputs=outputs,
                failure=FailureProfile(
                    rate=float(profile.get("failure_rate", 0.0)),
                    pattern=profile.get("failure_pattern", "PodCrashErr"),
                ),
                uses_gpu=bool(profile.get("uses_gpu", False)),
                retry_limit=retry_limit,
                when_expr=task.get("when"),
                result_options=tuple(profile.get("result_options", ())),
            )
        )
    workflow.validate()
    return workflow
