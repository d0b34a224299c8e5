"""Tests for the Couler server: database, monitor, service flows."""

import pytest

from repro.engine.retry import FailureInjector, RetryPolicy
from repro.engine.operator import WorkflowOperator
from repro.engine.simclock import SimClock
from repro.engine.status import StepStatus, WorkflowPhase, WorkflowRecord
from repro.ir.graph import WorkflowIR
from repro.ir.nodes import IRNode, OpKind, SimHint
from repro.k8s.cluster import Cluster
from repro.server import (
    CoulerService,
    SubmissionError,
    WorkflowDatabase,
    WorkflowMonitor,
    WorkflowNotFoundError,
)
from repro.parallelism.budget import BudgetModel

GB = 2**30


def _chain_ir(name: str, steps: int = 3, failure_rate: float = 0.0) -> WorkflowIR:
    ir = WorkflowIR(name=name)
    previous = None
    for index in range(steps):
        node_name = f"s{index}"
        ir.add_node(
            IRNode(
                name=node_name,
                op=OpKind.CONTAINER,
                image="x:v1",
                sim=SimHint(duration_s=10, failure_rate=failure_rate if index == 1 else 0.0),
            )
        )
        if previous:
            ir.add_edge(previous, node_name)
        previous = node_name
    return ir


class TestDatabase:
    def test_save_load_round_trip(self):
        db = WorkflowDatabase()
        ir = _chain_ir("persisted")
        record = WorkflowRecord(name="persisted", phase=WorkflowPhase.RUNNING)
        record.step("s0").status = StepStatus.SUCCEEDED
        record.step("s0").attempts = 2
        record.step("s1").status = StepStatus.FAILED
        record.step("s1").last_error = "PodCrashErr"
        record.results.update({"s0": "heads", "upstream": None})
        db.save_workflow(ir, record, owner="alice")
        stored = db.load("persisted")
        assert stored.owner == "alice"
        assert set(stored.ir.nodes) == {"s0", "s1", "s2"}
        assert stored.record.steps["s0"].attempts == 2
        assert stored.record.steps["s1"].last_error == "PodCrashErr"
        assert stored.record.results == {"s0": "heads", "upstream": None}

    def test_load_missing_raises(self):
        with pytest.raises(WorkflowNotFoundError):
            WorkflowDatabase().load("ghost")

    def test_update_status_requires_existing_row(self):
        db = WorkflowDatabase()
        with pytest.raises(WorkflowNotFoundError):
            db.update_status(WorkflowRecord(name="ghost"))

    def test_list_and_counts_by_phase(self):
        db = WorkflowDatabase()
        for index, phase in enumerate(
            (WorkflowPhase.SUCCEEDED, WorkflowPhase.FAILED, WorkflowPhase.SUCCEEDED)
        ):
            record = WorkflowRecord(name=f"wf{index}", phase=phase)
            db.save_workflow(_chain_ir(f"wf{index}"), record)
        assert db.list_names(WorkflowPhase.FAILED) == ["wf1"]
        assert db.counts_by_phase() == {"Succeeded": 2, "Failed": 1}

    def test_delete_cascades_steps(self):
        db = WorkflowDatabase()
        record = WorkflowRecord(name="temp", phase=WorkflowPhase.SUCCEEDED)
        record.step("s0")
        db.save_workflow(_chain_ir("temp"), record)
        db.delete("temp")
        with pytest.raises(WorkflowNotFoundError):
            db.load("temp")


class TestMonitor:
    def test_status_and_pattern_aggregation(self):
        monitor = WorkflowMonitor()
        ok = WorkflowRecord(name="ok", phase=WorkflowPhase.SUCCEEDED)
        bad = WorkflowRecord(name="bad", phase=WorkflowPhase.FAILED)
        bad.step("s").last_error = "NetworkTimeoutErr"
        monitor.observe(ok)
        monitor.observe(bad)
        assert monitor.status_counts() == {"Succeeded": 1, "Failed": 1}
        assert monitor.failure_rate() == 0.5
        assert monitor.top_patterns()[0] == ("NetworkTimeoutErr", 1)

    def test_alert_fires_on_high_failure_rate(self):
        monitor = WorkflowMonitor()
        for index in range(5):
            monitor.observe(WorkflowRecord(name=f"f{index}", phase=WorkflowPhase.FAILED))
        alerts = monitor.alerts()
        assert any(a.metric == "failure_rate" and a.severity == "critical"
                   for a in alerts)

    def test_healthy_system_has_no_alerts(self):
        monitor = WorkflowMonitor()
        monitor.observe(WorkflowRecord(name="ok", phase=WorkflowPhase.SUCCEEDED))
        assert monitor.alerts() == []
        report = monitor.health_report()
        assert report["failure_rate"] == 0.0


def _results_chain_ir(name: str, steps: int = 5, fail_at=None) -> WorkflowIR:
    """s0 -> ... -> s{steps-1}; every step records the result ``a`` and
    step ``fail_at`` always fails."""
    ir = WorkflowIR(name=name)
    for index in range(steps):
        ir.add_node(
            IRNode(
                name=f"s{index}",
                op=OpKind.CONTAINER,
                image="x:v1",
                sim=SimHint(
                    duration_s=10,
                    failure_rate=1.0 if index == fail_at else 0.0,
                    result_options=("a",),
                ),
            )
        )
        if index:
            ir.add_edge(f"s{index - 1}", f"s{index}")
    return ir


def _coin_ir() -> WorkflowIR:
    """flip (result heads) -> crash (always fails) -> heads, guarded on
    ``{{flip.result}} == heads``."""
    ir = WorkflowIR(name="coin")
    ir.add_node(
        IRNode(
            name="flip",
            op=OpKind.SCRIPT,
            image="python:3.10",
            source="print('heads')",
            sim=SimHint(duration_s=5, result_options=("heads",)),
        )
    )
    ir.add_node(
        IRNode(
            name="crash",
            op=OpKind.CONTAINER,
            image="x:v1",
            sim=SimHint(duration_s=5, failure_rate=1.0),
        )
    )
    ir.add_node(
        IRNode(
            name="heads",
            op=OpKind.CONTAINER,
            image="x:v1",
            when="{{flip.result}} == heads",
            sim=SimHint(duration_s=5),
        )
    )
    ir.add_edge("flip", "crash")
    ir.add_edge("crash", "heads")
    return ir


class TestService:
    def _service(self, failure_seed=None, budget=None, database=None) -> CoulerService:
        clock = SimClock()
        cluster = Cluster.uniform("svc", 8, cpu_per_node=16, memory_per_node=64 * GB)
        operator = WorkflowOperator(
            clock,
            cluster,
            retry_policy=RetryPolicy(limit=0),
            failure_injector=FailureInjector(
                seed=failure_seed or 0, retryable_fraction=0.0
            ),
        )
        return CoulerService(
            operator=operator,
            budget=budget or BudgetModel(),
            database=database or WorkflowDatabase(),
        )

    def test_submit_persists_and_completes(self):
        service = self._service()
        handle = service.submit(_chain_ir("good"), owner="bob")
        assert handle.record.phase == WorkflowPhase.SUCCEEDED
        assert handle.split_parts == 1
        assert service.list_workflows(WorkflowPhase.SUCCEEDED) == ["good"]
        assert service.database.load("good").owner == "bob"

    def test_duplicate_submission_rejected(self):
        service = self._service()
        service.submit(_chain_ir("dup"))
        with pytest.raises(SubmissionError):
            service.submit(_chain_ir("dup"))

    def test_oversized_workflow_split_transparently(self):
        service = self._service(budget=BudgetModel(max_steps=2))
        handle = service.submit(_chain_ir("bigger", steps=5))
        assert handle.split_parts >= 2
        assert handle.record.phase == WorkflowPhase.SUCCEEDED
        assert set(handle.record.steps) == {f"s{i}" for i in range(5)}

    def test_retry_from_failure_skips_done_steps(self):
        service = self._service(failure_seed=0)
        ir = _chain_ir("flaky", failure_rate=1.0)
        handle = service.submit(ir)
        assert handle.record.phase == WorkflowPhase.FAILED
        assert handle.record.steps["s0"].status == StepStatus.SUCCEEDED
        first_finish = handle.record.steps["s0"].finish_time

        # "Fix" the workflow, then use the paper's manual-retry flow.
        service._irs["flaky"].nodes["s1"].sim = SimHint(duration_s=10, failure_rate=0.0)
        record = service.retry_from_failure("flaky")
        assert record.phase == WorkflowPhase.SUCCEEDED
        assert record.steps["s0"].finish_time == first_finish  # skipped
        assert service.database.load("flaky").record.phase == WorkflowPhase.SUCCEEDED

    def test_split_submission_is_recorded_like_an_unsplit_one(self):
        unsplit = self._service()
        whole = unsplit.submit(_results_chain_ir("big", fail_at=3)).record
        service = self._service(budget=BudgetModel(max_steps=2))
        handle = service.submit(_results_chain_ir("big", fail_at=3))
        assert handle.split_parts == 3
        assert handle.record.phase == whole.phase == WorkflowPhase.FAILED
        assert handle.record.results == whole.results == {"s0": "a", "s1": "a", "s2": "a"}
        assert service.monitor.status_counts() == {"Failed": 1}
        assert service.monitor.status_counts() == unsplit.monitor.status_counts()
        stored = service.database.load("big").record
        assert stored.phase == WorkflowPhase.FAILED
        assert stored.results == whole.results

    def test_submit_without_run_runs_no_part(self):
        service = self._service(budget=BudgetModel(max_steps=2))
        handle = service.submit(_results_chain_ir("lazy"), run=False)
        assert service.operator.clock.now == 0.0
        assert handle.record.phase == WorkflowPhase.RUNNING
        assert {step.status for step in handle.record.steps.values()} == {
            StepStatus.PENDING
        }
        service.operator.run_to_completion()
        assert service.status("lazy").phase == WorkflowPhase.SUCCEEDED
        assert set(service.status("lazy").steps) == {f"s{i}" for i in range(5)}
        assert service.database.load("lazy").record.phase == WorkflowPhase.SUCCEEDED

    def test_retry_of_a_split_workflow_stays_within_the_budget(self):
        service = self._service(budget=BudgetModel(max_steps=2))
        handle = service.submit(_results_chain_ir("big", fail_at=3))
        assert handle.record.phase == WorkflowPhase.FAILED
        ran_first = len(service.operator.completed)

        service._irs["big"].nodes["s3"].sim = SimHint(duration_s=10, result_options=("a",))
        record = service.retry_from_failure("big")
        assert record.phase == WorkflowPhase.SUCCEEDED
        # Part 0 (s0, s1) is done and is not resubmitted; part 1 skips s2.
        rerun = service.operator.completed[ran_first:]
        assert [part.name for part in rerun] == ["big-part-1", "big-part-2"]
        assert all(len(part.steps) <= 2 for part in rerun)
        assert [record.steps[f"s{i}"].attempts for i in range(5)] == [1, 1, 1, 2, 1]
        assert record.results == {f"s{i}": "a" for i in range(5)}
        assert service.database.load("big").record.phase == WorkflowPhase.SUCCEEDED

    def test_retry_read_back_from_the_database_keeps_results_for_guards(
        self, tmp_path
    ):
        path = str(tmp_path / "couler.db")
        first = self._service(database=WorkflowDatabase(path))
        assert first.submit(_coin_ir()).record.phase == WorkflowPhase.FAILED

        # A fresh server process over the same database file fixes the
        # step and retries; only the database tells it what is done.
        fresh = self._service(database=WorkflowDatabase(path))
        stored = fresh.database.load("coin")
        assert stored.record.results == {"flip": "heads"}
        stored.ir.nodes["crash"].sim = SimHint(duration_s=5)
        fresh.database.save_workflow(stored.ir, stored.record, owner=stored.owner)
        record = fresh.retry_from_failure("coin")
        assert record.phase == WorkflowPhase.SUCCEEDED
        assert record.steps["flip"].attempts == 1
        assert record.steps["heads"].status == StepStatus.SUCCEEDED

        # The same as a retry by the server that ran it first.
        first._irs["coin"].nodes["crash"].sim = SimHint(duration_s=5)
        in_memory = first.retry_from_failure("coin")
        assert in_memory.steps["heads"].status == StepStatus.SUCCEEDED

    def test_retry_of_non_failed_workflow_rejected(self):
        service = self._service()
        service.submit(_chain_ir("fine"))
        with pytest.raises(SubmissionError):
            service.retry_from_failure("fine")

    def test_health_report_includes_database_counts(self):
        service = self._service()
        service.submit(_chain_ir("h1"))
        health = service.health()
        assert health["database_counts"] == {"Succeeded": 1}
        assert "failure_rate" in health
