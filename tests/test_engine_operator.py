"""Integration-grade tests of the workflow operator."""

import pytest

from repro.engine.operator import WorkflowOperator
from repro.engine.retry import FailureInjector, RetryPolicy
from repro.engine.simclock import SimClock
from repro.engine.spec import (
    ArtifactSpec,
    ExecutableStep,
    ExecutableWorkflow,
    FailureProfile,
)
from repro.engine.status import StepStatus, WorkflowPhase
from repro.k8s.cluster import Cluster
from repro.k8s.resources import ResourceQuantity

GB = 2**30


def _diamond(name: str = "diamond", duration: float = 10.0) -> ExecutableWorkflow:
    wf = ExecutableWorkflow(name=name)
    wf.add_step(ExecutableStep(name="a", duration_s=duration))
    wf.add_step(ExecutableStep(name="b", duration_s=duration, dependencies=["a"]))
    wf.add_step(ExecutableStep(name="c", duration_s=duration, dependencies=["a"]))
    wf.add_step(ExecutableStep(name="d", duration_s=duration, dependencies=["b", "c"]))
    return wf


class TestHappyPath:
    def test_diamond_runs_in_dependency_order(self, operator, clock):
        record = operator.submit(_diamond())
        operator.run_to_completion()
        assert record.phase == WorkflowPhase.SUCCEEDED
        steps = record.steps
        assert steps["a"].finish_time <= steps["b"].start_time
        assert steps["a"].finish_time <= steps["c"].start_time
        assert max(steps["b"].finish_time, steps["c"].finish_time) <= steps["d"].start_time
        # b and c overlap (parallel execution on a roomy cluster).
        assert steps["b"].start_time == steps["c"].start_time
        assert record.makespan == pytest.approx(30.0)

    def test_empty_workflow_completes_immediately(self, operator):
        record = operator.submit(ExecutableWorkflow(name="empty"))
        operator.run_to_completion()
        assert record.phase == WorkflowPhase.SUCCEEDED

    def test_duplicate_submission_rejected(self, operator):
        operator.submit(_diamond())
        with pytest.raises(ValueError):
            operator.submit(_diamond())


class TestResourceContention:
    def test_steps_queue_when_cluster_full(self):
        clock = SimClock()
        cluster = Cluster.uniform("tiny", 1, cpu_per_node=1.0, memory_per_node=4 * GB)
        operator = WorkflowOperator(clock, cluster)
        wf = ExecutableWorkflow(name="serial")
        for index in range(3):
            wf.add_step(
                ExecutableStep(
                    name=f"s{index}",
                    duration_s=10,
                    requests=ResourceQuantity(cpu=1.0),
                )
            )
        record = operator.submit(wf)
        operator.run_to_completion()
        # One core forces the three independent steps to serialize.
        assert record.phase == WorkflowPhase.SUCCEEDED
        assert record.makespan == pytest.approx(30.0)

    def test_multiple_workflows_share_cluster(self):
        clock = SimClock()
        cluster = Cluster.uniform("shared", 1, cpu_per_node=2.0, memory_per_node=8 * GB)
        operator = WorkflowOperator(clock, cluster)
        first = operator.submit(_diamond("one"))
        second = operator.submit(_diamond("two"))
        operator.run_to_completion()
        assert first.phase == WorkflowPhase.SUCCEEDED
        assert second.phase == WorkflowPhase.SUCCEEDED


class TestFailureHandling:
    def _failing_workflow(self, rate: float = 1.0) -> ExecutableWorkflow:
        wf = ExecutableWorkflow(name="flaky")
        wf.add_step(
            ExecutableStep(
                name="bad",
                duration_s=10,
                failure=FailureProfile(rate=rate, pattern="PodCrashErr"),
            )
        )
        return wf

    def test_fatal_failure_fails_workflow(self, clock, small_cluster):
        operator = WorkflowOperator(
            clock,
            small_cluster,
            failure_injector=FailureInjector(seed=0, retryable_fraction=0.0),
        )
        record = operator.submit(self._failing_workflow())
        operator.run_to_completion()
        assert record.phase == WorkflowPhase.FAILED
        assert record.steps["bad"].status == StepStatus.FAILED
        assert record.steps["bad"].last_error == "PodCrashErr"

    def test_retryable_failures_recover(self, clock, small_cluster):
        operator = WorkflowOperator(
            clock,
            small_cluster,
            retry_policy=RetryPolicy(limit=10),
            failure_injector=FailureInjector(seed=0, retryable_fraction=1.0),
        )
        record = operator.submit(self._failing_workflow(rate=0.6))
        operator.run_to_completion()
        assert record.phase == WorkflowPhase.SUCCEEDED
        assert record.steps["bad"].attempts >= 1

    def test_dependents_not_started_after_failure(self, clock, small_cluster):
        operator = WorkflowOperator(
            clock,
            small_cluster,
            failure_injector=FailureInjector(seed=0, retryable_fraction=0.0),
        )
        wf = self._failing_workflow()
        wf.add_step(ExecutableStep(name="child", duration_s=5, dependencies=["bad"]))
        record = operator.submit(wf)
        operator.run_to_completion()
        assert record.phase == WorkflowPhase.FAILED
        assert record.steps["child"].status == StepStatus.PENDING


class TestRestartFromFailure:
    def test_resubmit_skips_done_steps(self, clock, small_cluster):
        operator = WorkflowOperator(
            clock,
            small_cluster,
            failure_injector=FailureInjector(seed=0, retryable_fraction=0.0),
        )
        wf = ExecutableWorkflow(name="restartable")
        wf.add_step(ExecutableStep(name="ok", duration_s=10))
        wf.add_step(
            ExecutableStep(
                name="bad",
                duration_s=10,
                dependencies=["ok"],
                failure=FailureProfile(rate=1.0, pattern="PodCrashErr"),
            )
        )
        record = operator.submit(wf)
        operator.run_to_completion()
        assert record.phase == WorkflowPhase.FAILED
        first_ok_finish = record.steps["ok"].finish_time

        # Fix the flaky step and retry from the failure point.
        wf.steps["bad"].failure = FailureProfile(rate=0.0)
        record.steps["bad"].status = StepStatus.PENDING
        record = operator.submit(wf, record=record)
        operator.run_to_completion()
        assert record.phase == WorkflowPhase.SUCCEEDED
        # "ok" was not re-executed: its finish time is unchanged.
        assert record.steps["ok"].finish_time == first_ok_finish


class TestCacheIntegration:
    def test_cache_hits_reduce_fetch_time(self, clock, small_cluster):
        from repro.caching.manager import CacheManager

        manager = CacheManager(policy="all", capacity_bytes=None)
        operator = WorkflowOperator(clock, small_cluster, cache_manager=manager)
        artifact = ArtifactSpec(uid="w/prep/out", size_bytes=GB)
        wf = ExecutableWorkflow(name="w")
        wf.add_step(ExecutableStep(name="prep", duration_s=10, outputs=[artifact]))
        wf.add_step(
            ExecutableStep(name="c1", duration_s=10, dependencies=["prep"], inputs=[artifact])
        )
        wf.add_step(
            ExecutableStep(name="c2", duration_s=10, dependencies=["prep"], inputs=[artifact])
        )
        record = operator.submit(wf)
        operator.run_to_completion()
        assert record.total_cache_hits() == 2
        assert record.steps["c1"].fetch_seconds < 2.0  # local read


class TestCompletionCheckIsLinear:
    """A run's completion checks look at each step a bounded number of
    times, not once per settled step, so an n-step chain costs O(n).
    Walking every step from the first on each check made a 2000-step
    chain ask ``is_terminal`` about 2 million times."""

    STEPS = 2000

    def _terminal_checks(self, workflow, monkeypatch) -> int:
        calls = [0]
        is_terminal = StepStatus.is_terminal

        def counting(status):
            calls[0] += 1
            return is_terminal(status)

        monkeypatch.setattr(StepStatus, "is_terminal", counting)
        clock = SimClock()
        cluster = Cluster.uniform("c", 2, cpu_per_node=8, memory_per_node=8 * GB)
        record = WorkflowOperator(clock, cluster).submit(workflow)
        clock.run()
        assert record.phase == WorkflowPhase.SUCCEEDED
        return calls[0]

    def test_chain(self, monkeypatch):
        wf = ExecutableWorkflow(name="chain")
        for index in range(self.STEPS):
            wf.add_step(
                ExecutableStep(
                    name=f"s{index}",
                    duration_s=1.0,
                    dependencies=[f"s{index - 1}"] if index else [],
                )
            )
        assert self._terminal_checks(wf, monkeypatch) <= 3 * self.STEPS

    def test_chain_declared_last_step_first(self, monkeypatch):
        wf = ExecutableWorkflow(name="reversed")
        for index in reversed(range(self.STEPS)):
            wf.add_step(
                ExecutableStep(
                    name=f"s{index}",
                    duration_s=1.0,
                    dependencies=[f"s{index - 1}"] if index else [],
                )
            )
        assert self._terminal_checks(wf, monkeypatch) <= 3 * self.STEPS

    def test_independent_steps(self, monkeypatch):
        wf = ExecutableWorkflow(name="wide")
        for index in range(self.STEPS):
            wf.add_step(ExecutableStep(name=f"s{index}", duration_s=1.0 + index % 7))
        assert self._terminal_checks(wf, monkeypatch) <= 3 * self.STEPS
