"""Tests for per-step retryStrategy plumbing."""

import pytest

from repro.backends.argo import ArgoBackend
from repro.engine.operator import WorkflowOperator
from repro.engine.retry import FailureInjector, RetryPolicy
from repro.engine.simclock import SimClock
from repro.engine.spec import (
    ExecutableStep,
    ExecutableWorkflow,
    FailureProfile,
    SpecError,
    parse_argo_manifest,
)
from repro.engine.status import WorkflowPhase
from repro.ir.graph import WorkflowIR
from repro.ir.nodes import IRNode, OpKind, SimHint
from repro.ir.serialize import ir_from_dict, ir_to_dict
from repro.k8s.cluster import Cluster

GB = 2**30


class TestRetryStrategyPlumbing:
    def _ir(self, retries) -> WorkflowIR:
        ir = WorkflowIR(name="rw")
        ir.add_node(
            IRNode(
                name="step",
                op=OpKind.CONTAINER,
                image="x",
                retries=retries,
                sim=SimHint(duration_s=10, failure_rate=1.0),
            )
        )
        return ir

    def test_rendered_in_argo_manifest(self):
        manifest = ArgoBackend().compile(self._ir(retries=4))
        template = next(
            t for t in manifest["spec"]["templates"] if t["name"] == "step"
        )
        assert template["retryStrategy"] == {
            "limit": 4,
            "retryPolicy": "OnTransientError",
        }

    def test_absent_without_retries(self):
        manifest = ArgoBackend().compile(self._ir(retries=None))
        template = next(
            t for t in manifest["spec"]["templates"] if t["name"] == "step"
        )
        assert "retryStrategy" not in template

    def test_round_trips_through_manifest_and_serialization(self):
        ir = self._ir(retries=7)
        parsed = parse_argo_manifest(ArgoBackend().compile(ir))
        assert parsed.steps["step"].retry_limit == 7
        restored = ir_from_dict(ir_to_dict(ir))
        assert restored.nodes["step"].retries == 7
        assert ir.to_executable().steps["step"].retry_limit == 7

    def test_negative_retry_limit_rejected(self):
        with pytest.raises(SpecError):
            ExecutableStep(name="s", duration_s=1, retry_limit=-1)

    def test_per_step_limit_overrides_policy(self):
        """A step with retries=0 fails immediately even under a generous
        global policy; a sibling without an override keeps retrying."""
        clock = SimClock()
        cluster = Cluster.uniform("c", 2, cpu_per_node=8, memory_per_node=32 * GB)
        operator = WorkflowOperator(
            clock,
            cluster,
            retry_policy=RetryPolicy(limit=50),
            failure_injector=FailureInjector(seed=1, retryable_fraction=1.0),
        )
        wf = ExecutableWorkflow(name="override")
        wf.add_step(
            ExecutableStep(
                name="no-retries",
                duration_s=5,
                failure=FailureProfile(rate=1.0),
                retry_limit=0,
            )
        )
        record = operator.submit(wf)
        operator.run_to_completion()
        assert record.phase == WorkflowPhase.FAILED
        assert record.steps["no-retries"].attempts == 1

