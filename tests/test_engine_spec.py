"""Unit tests for the executable workflow model and Argo manifest parsing."""

import json

import pytest

from repro.backends.argo import ArgoBackend
from repro.core.submitter import ArgoSubmitter
from repro.engine.spec import (
    SIM_ANNOTATION,
    ArtifactSpec,
    ExecutableStep,
    ExecutableWorkflow,
    FailureProfile,
    SpecError,
    parse_argo_manifest,
)
from repro.engine.status import WorkflowPhase
from repro.ir.graph import WorkflowIR
from repro.ir.nodes import ArtifactDecl, IRNode, OpKind, SimHint
from repro.k8s.resources import ResourceQuantity


class TestArtifactSpec:
    def test_negative_size_rejected(self):
        with pytest.raises(SpecError):
            ArtifactSpec(uid="a", size_bytes=-1)


class TestFailureProfile:
    def test_rate_bounds(self):
        FailureProfile(rate=0.0)
        FailureProfile(rate=1.0)
        with pytest.raises(SpecError):
            FailureProfile(rate=1.5)


class TestExecutableStep:
    @pytest.mark.parametrize("duration", [-1.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_duration_rejected(self, duration):
        with pytest.raises(SpecError):
            ExecutableStep(name="s", duration_s=duration)


class TestExecutableWorkflow:
    def test_duplicate_step_rejected(self):
        workflow = ExecutableWorkflow(name="w")
        workflow.add_step(ExecutableStep(name="a", duration_s=1))
        with pytest.raises(SpecError):
            workflow.add_step(ExecutableStep(name="a", duration_s=1))

    def test_unknown_dependency_rejected(self):
        workflow = ExecutableWorkflow(name="w")
        workflow.add_step(ExecutableStep(name="a", duration_s=1, dependencies=["ghost"]))
        with pytest.raises(SpecError):
            workflow.validate()

    def test_cycle_rejected(self):
        workflow = ExecutableWorkflow(name="w")
        workflow.add_step(ExecutableStep(name="a", duration_s=1, dependencies=["b"]))
        workflow.add_step(ExecutableStep(name="b", duration_s=1, dependencies=["a"]))
        with pytest.raises(SpecError):
            workflow.validate()

    def test_producers_and_artifacts(self):
        workflow = ExecutableWorkflow(name="w")
        artifact = ArtifactSpec(uid="w/a/out", size_bytes=10)
        workflow.add_step(ExecutableStep(name="a", duration_s=1, outputs=[artifact]))
        assert workflow.producers() == {"w/a/out": "a"}
        assert workflow.artifacts()["w/a/out"] is artifact


class TestArgoManifestParsing:
    def _ir(self) -> WorkflowIR:
        ir = WorkflowIR(name="roundtrip")
        ir.add_node(
            IRNode(
                name="prep",
                op=OpKind.CONTAINER,
                image="prep:v1",
                resources=ResourceQuantity(cpu=2.0, memory=2**30),
                outputs=[ArtifactDecl(name="out", size_bytes=512)],
                sim=SimHint(duration_s=42.0, failure_rate=0.1, uses_gpu=True),
            )
        )
        ir.add_node(
            IRNode(
                name="train",
                op=OpKind.CONTAINER,
                image="train:v1",
                inputs=[ArtifactDecl(name="out", size_bytes=512, uid="roundtrip/prep/out")],
                sim=SimHint(duration_s=100.0),
            )
        )
        ir.add_edge("prep", "train")
        return ir

    def test_ir_to_manifest_to_executable_round_trip(self):
        """The backend path and the direct path must agree."""
        ir = self._ir()
        manifest = ArgoBackend().compile(ir)
        via_manifest = parse_argo_manifest(manifest)
        direct = ir.to_executable()
        assert set(via_manifest.steps) == set(direct.steps)
        for name in direct.steps:
            a, b = via_manifest.steps[name], direct.steps[name]
            assert a.duration_s == b.duration_s
            assert a.dependencies == b.dependencies
            assert [o.uid for o in a.outputs] == [o.uid for o in b.outputs]
            assert [i.uid for i in a.inputs] == [i.uid for i in b.inputs]
            assert a.failure.rate == b.failure.rate
            assert a.uses_gpu == b.uses_gpu
            assert a.requests.cpu == b.requests.cpu

    def test_non_workflow_manifest_rejected(self):
        with pytest.raises(SpecError):
            parse_argo_manifest({"kind": "Pod"})

    @staticmethod
    def _one_step_manifest(duration: float, when=None) -> dict:
        """Workflow ``poison``: one step ``only`` of ``duration`` seconds."""
        ir = WorkflowIR(name="poison")
        ir.add_node(IRNode(name="only", op=OpKind.CONTAINER, image="x"))
        manifest = ArgoBackend().compile(ir)
        template = next(t for t in manifest["spec"]["templates"] if t["name"] == "only")
        annotations = template["metadata"]["annotations"]
        profile = json.loads(annotations[SIM_ANNOTATION])
        profile["duration_s"] = duration
        annotations[SIM_ANNOTATION] = json.dumps(profile)
        if when is not None:
            entry = next(t for t in manifest["spec"]["templates"] if "dag" in t)
            entry["dag"]["tasks"][0]["when"] = when
        return manifest

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_non_finite_annotated_duration_leaves_the_clock_alone(self, duration):
        """A NaN or inf ``duration_s`` (JSON allows both) is a spec error.

        Accepted, the step would end Succeeded with a NaN finish time and
        leave the operator's clock at NaN, where every later event on that
        clock would land.
        """
        operator = ArgoSubmitter().operator
        with pytest.raises(SpecError):
            operator.submit_manifest(self._one_step_manifest(duration))
        operator.run_to_completion()
        assert operator.clock.now == 0.0

    @pytest.mark.parametrize(
        "poison",
        [dict(duration=float("nan")), dict(duration=5.0, when="garbage")],
        ids=["nan-duration", "bad-when"],
    )
    def test_refused_manifest_leaves_no_workflow_object(self, poison):
        """A manifest refused at submit creates no CRD in the API server,
        so the corrected manifest submits under the same name."""
        operator = ArgoSubmitter().operator
        with pytest.raises(SpecError):
            operator.submit_manifest(self._one_step_manifest(**poison))
        assert operator.api_server.list("Workflow") == []
        record = operator.submit_manifest(self._one_step_manifest(5.0))
        operator.run_to_completion()
        assert record.phase == WorkflowPhase.SUCCEEDED
        assert len(operator.api_server.list("Workflow")) == 1

    def test_missing_entrypoint_rejected(self):
        with pytest.raises(SpecError):
            parse_argo_manifest(
                {"kind": "Workflow", "spec": {"entrypoint": "main", "templates": []}}
            )
