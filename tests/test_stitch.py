"""The split-part executor: every caller runs split parts by one rule.

``run_parts`` submits a part once every part it depends on has
succeeded, forwards the step results known so far, and starts nothing
after a part fails.  ``submit_chain`` (the corpus path through
admission) is one of its callers; so are the service and the ``split``
oracle (``tests/test_server.py``, ``tests/test_verify_oracles.py``).
"""

from repro.engine.admission import AdmissionPipeline
from repro.engine.operator import WorkflowOperator
from repro.engine.simclock import SimClock
from repro.engine.spec import ExecutableStep, ExecutableWorkflow, FailureProfile
from repro.engine.status import StepStatus, WorkflowPhase, WorkflowRecord
from repro.ir.graph import WorkflowIR
from repro.ir.nodes import IRNode, OpKind, SimHint
from repro.k8s.cluster import Cluster
from repro.k8s.resources import ResourceQuantity
from repro.parallelism import (
    BudgetModel,
    WorkflowSplitter,
    merge_part_records,
    run_parts,
)
from repro.workloads.corpus import CorpusEntry, submit_chain

GB = 2**30


def _cluster() -> Cluster:
    return Cluster.uniform("stitch", 2, cpu_per_node=16.0, memory_per_node=64 * GB)


def _step(name, deps=(), result_options=(), when=None, fail=False):
    return ExecutableStep(
        name=name,
        duration_s=10.0,
        requests=ResourceQuantity(cpu=1.0, memory=GB),
        dependencies=list(deps),
        failure=FailureProfile(rate=1.0 if fail else 0.0, pattern="PodCrashErr"),
        retry_limit=0,
        when_expr=when,
        result_options=tuple(result_options),
    )


def _workflow(name, *steps):
    workflow = ExecutableWorkflow(name=name)
    for step in steps:
        workflow.add_step(step)
    return workflow


def _entry(name="entry", arrival=5.0) -> CorpusEntry:
    return CorpusEntry(
        name=name,
        persona="analyst",
        kind="sql",
        source="",
        irs=[],
        arrival=arrival,
        user="alice",
        priority=0,
        slo_class="batch",
    )


class _Recorder:
    """A submit function over one operator that logs each submission."""

    def __init__(self, workflows):
        self.operator = WorkflowOperator(SimClock(), _cluster(), seed=0)
        self.workflows = workflows
        self.log = []

    def __call__(self, index, results, on_complete):
        self.log.append((index, dict(results), self.operator.clock.now))
        return self.operator.submit(
            self.workflows[index], on_complete=on_complete, initial_results=results
        )


def _leaf(name, **kwargs):
    return _workflow(name, _step(f"{name}-s", **kwargs))


class TestRunParts:
    def test_dependents_start_in_index_order_after_all_their_dependencies(self):
        # 0 -> 2, 1 -> 2, 1 -> 3: part 2 waits for both roots.
        recorder = _Recorder([_leaf(f"p{index}") for index in range(4)])
        records = run_parts(4, {(1, 3), (0, 2), (1, 2)}, recorder)
        assert [index for index, _, _ in recorder.log] == [0, 1]
        recorder.operator.run_to_completion()
        assert [index for index, _, _ in recorder.log] == [0, 1, 2, 3]
        assert all(record.phase == WorkflowPhase.SUCCEEDED for record in records)

    def test_results_known_so_far_are_forwarded(self):
        recorder = _Recorder(
            [
                _leaf("flip", result_options=("heads",)),
                _leaf("guarded", when="{{flip-s.result}} == heads"),
            ]
        )
        records = run_parts(2, [(0, 1)], recorder)
        recorder.operator.run_to_completion()
        assert recorder.log[1][1] == {"flip-s": "heads"}
        assert records[1].steps["guarded-s"].status == StepStatus.SUCCEEDED

    def test_a_failed_part_stops_every_part_not_yet_started(self):
        # 0 fails; 2 depends on it; 1 -> 3 is independent, but 3 becomes
        # ready only after the failure, and a monolithic run starts no
        # step after one fails.
        recorder = _Recorder(
            [
                _leaf("p0", fail=True),
                _workflow("p1", ExecutableStep(name="p1-s", duration_s=30.0)),
                _leaf("p2"),
                _leaf("p3"),
            ]
        )
        settled = []
        records = run_parts(4, [(0, 2), (1, 3)], recorder, on_settled=settled.append)
        recorder.operator.run_to_completion()
        assert [index for index, _, _ in recorder.log] == [0, 1]
        assert records[2] is None and records[3] is None
        assert records[1].phase == WorkflowPhase.SUCCEEDED
        assert settled == [records]
        merged = merge_part_records("whole", records)
        assert merged.phase == WorkflowPhase.FAILED
        assert merged.finish_time == records[1].finish_time

    def test_done_parts_are_not_submitted_and_release_their_dependents(self):
        recorder = _Recorder([_leaf("p0"), _leaf("p1"), _leaf("p2")])
        done = WorkflowRecord(
            name="p0", phase=WorkflowPhase.SUCCEEDED, results={"p0-s": "x"}
        )
        records = run_parts(3, [(0, 1), (1, 2)], recorder, done={0: done})
        assert recorder.log == [(1, {"p0-s": "x"}, 0.0)]
        recorder.operator.run_to_completion()
        assert records[0] is done
        assert merge_part_records("whole", records).phase == WorkflowPhase.SUCCEEDED

    def test_settles_at_once_when_every_part_is_done(self):
        settled = []
        done = WorkflowRecord(name="p0", phase=WorkflowPhase.SUCCEEDED)
        run_parts(1, (), None, done={0: done}, on_settled=settled.append)
        assert settled == [[done]]

    def test_merged_record_runs_until_every_submitted_part_finished(self):
        recorder = _Recorder([_leaf("p0"), _leaf("p1")])
        records = run_parts(2, [(0, 1)], recorder)
        running = merge_part_records("whole", records)
        assert running.phase == WorkflowPhase.RUNNING
        assert running.submit_time == 0.0 and running.finish_time is None
        recorder.operator.run_to_completion()
        merged = merge_part_records("whole", records)
        assert merged.phase == WorkflowPhase.SUCCEEDED
        assert set(merged.steps) == {"p0-s", "p1-s"}
        assert merged.makespan == records[1].finish_time - records[0].submit_time


class TestForwardingRule:
    def test_no_forwarded_result_under_the_workflows_own_step_names(self):
        """A step that never produces a result (here, skipped) must not
        read an earlier workflow's namesake: statements of one script
        reuse step names."""
        operator = WorkflowOperator(SimClock(), _cluster(), seed=0)
        workflow = _workflow(
            "second", _step("a", when="{{upstream.result}} == go"), _step("b")
        )
        record = operator.submit(
            workflow, initial_results={"a": "stale", "upstream": "stop"}
        )
        operator.run_to_completion()
        assert record.steps["a"].status == StepStatus.SKIPPED
        assert record.results == {"upstream": "stop", "b": None}


class TestSubmitChain:
    def _pipeline(self):
        return AdmissionPipeline([_cluster()], seed=0)

    def test_chain_stops_at_a_failed_part(self):
        pipeline = self._pipeline()
        records = []
        submit_chain(
            pipeline,
            _entry(),
            [_leaf("p0", fail=True), _leaf("p1"), _leaf("p2")],
            records,
            chain=True,
        )
        pipeline.run()
        assert [record.workflow_name for record in records] == ["p0"]
        assert records[0].record.phase == WorkflowPhase.FAILED

    def test_chain_forwards_results_through_admission(self):
        """flip (result heads) -> heads (when flip.result == heads), split
        at one step per part: the guard must hold, as it does unsplit."""
        ir = WorkflowIR(name="coin")
        ir.add_node(
            IRNode(
                name="flip",
                op=OpKind.SCRIPT,
                image="python:3.10",
                source="print('heads')",
                sim=SimHint(duration_s=5.0, result_options=("heads",)),
            )
        )
        ir.add_node(
            IRNode(
                name="heads",
                op=OpKind.CONTAINER,
                image="repro/worker:v1",
                when="{{flip.result}} == heads",
                sim=SimHint(duration_s=5.0),
            )
        )
        ir.add_edge("flip", "heads")
        plan = WorkflowSplitter(BudgetModel(max_steps=1)).split(ir)
        assert plan.num_parts == 2
        pipeline = self._pipeline()
        records = []
        submit_chain(
            pipeline,
            _entry(),
            [plan.parts[index].to_executable() for index in plan.topological_part_order()],
            records,
        )
        pipeline.run()
        heads = records[1].record.steps["heads"]
        assert heads.status == StepStatus.SUCCEEDED

    def test_arrivals_keep_the_entry_time_and_the_completion_time(self):
        pipeline = self._pipeline()
        records = []
        submit_chain(pipeline, _entry(arrival=5.0), [_leaf("p0"), _leaf("p1")], records)
        pipeline.run()
        assert records[0].arrival_time == 5.0
        assert records[1].arrival_time == records[0].finish_time

        pipeline = self._pipeline()
        records = []
        submit_chain(
            pipeline, _entry(arrival=5.0), [_leaf("p0"), _leaf("p1")], records, chain=False
        )
        assert [record.arrival_time for record in records] == [5.0, 5.0]
