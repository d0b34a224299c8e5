"""Step ``result`` persistence and propagation.

Results drive ``when`` guards.  They must (a) land on the durable
``WorkflowRecord``, (b) survive restart-from-failure resubmission, (c)
be injectable via ``initial_results`` for externally-known steps, and
(d) flow across split-plan part boundaries in the split-part executor —
that last one is the bug the split oracle exists to catch.
"""

from repro.engine.operator import WorkflowOperator
from repro.engine.simclock import SimClock
from repro.engine.spec import (
    ExecutableStep,
    ExecutableWorkflow,
    FailureProfile,
)
from repro.engine.status import StepStatus, WorkflowPhase
from repro.ir.graph import WorkflowIR
from repro.ir.nodes import IRNode, OpKind, SimHint
from repro.k8s.cluster import Cluster
from repro.k8s.resources import ResourceQuantity
from repro.parallelism.budget import BudgetModel
from repro.parallelism.splitter import WorkflowSplitter
from repro.parallelism.stitch import manifest_submit, merge_part_records, run_parts
from repro.verify.fingerprint import fingerprint_record

GB = 2**30


def _operator(**kwargs) -> WorkflowOperator:
    cluster = Cluster.uniform(
        "results", num_nodes=2, cpu_per_node=16.0, memory_per_node=64 * GB
    )
    return WorkflowOperator(SimClock(), cluster, seed=0, **kwargs)


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


def test_results_are_persisted_on_the_record():
    wf = ExecutableWorkflow(name="persist")
    wf.add_step(_step("flip", result_options=("heads",)))
    wf.add_step(_step("plain", deps=["flip"]))
    operator = _operator()
    record = operator.submit(wf)
    operator.run_to_completion()
    assert record.phase == WorkflowPhase.SUCCEEDED
    assert record.results["flip"] == "heads"
    assert record.results["plain"] is None


def test_initial_results_drive_external_guards():
    wf = ExecutableWorkflow(name="external")
    wf.add_step(_step("guarded", when="{{upstream.result}} == heads"))

    operator = _operator()
    record = operator.submit(wf, initial_results={"upstream": "heads"})
    operator.run_to_completion()
    assert record.step("guarded").status == StepStatus.SUCCEEDED

    operator = _operator()
    record = operator.submit(wf)  # no injected result: guard can't hold
    operator.run_to_completion()
    assert record.step("guarded").status == StepStatus.SKIPPED


def test_resubmission_preserves_results_for_guards():
    """Restart-from-failure: a guard referencing an already-completed
    step must still see that step's result on the second submission."""
    broken = ExecutableWorkflow(name="restart")
    broken.add_step(_step("flip", result_options=("heads",)))
    broken.add_step(_step("crash", deps=["flip"], fail=True))
    broken.add_step(
        _step("guarded", deps=["crash"], when="{{flip.result}} == heads")
    )
    operator = _operator()
    record = operator.submit(broken)
    operator.run_to_completion()
    assert record.phase == WorkflowPhase.FAILED
    assert record.step("flip").status == StepStatus.SUCCEEDED
    assert record.results["flip"] == "heads"

    fixed = ExecutableWorkflow(name="restart")
    fixed.add_step(_step("flip", result_options=("heads",)))
    fixed.add_step(_step("crash", deps=["flip"]))
    fixed.add_step(
        _step("guarded", deps=["crash"], when="{{flip.result}} == heads")
    )
    operator = _operator()
    resumed = operator.submit(fixed, record=record)
    operator.run_to_completion()
    assert resumed.phase == WorkflowPhase.SUCCEEDED
    # flip did not rerun, yet the guard held thanks to the snapshot.
    assert resumed.step("flip").attempts == 1
    assert resumed.step("guarded").status == StepStatus.SUCCEEDED


def _cross_part_ir():
    """flip -> c1 -> c2 -> guarded({{flip.result}} == heads).

    Built directly as IR so the guard sits two hops downstream of the
    step it references — a ``max_steps=2`` split then puts them in
    different parts, exercising cross-part result forwarding.
    """
    ir = WorkflowIR(name="xpart")
    ir.add_node(
        IRNode(
            name="flip",
            op=OpKind.SCRIPT,
            image="python:3.10",
            source="print('heads')",
            sim=SimHint(duration_s=5.0, result_options=("heads",)),
        )
    )
    for name in ("c1", "c2"):
        ir.add_node(
            IRNode(
                name=name,
                op=OpKind.CONTAINER,
                image="repro/worker:v1",
                command=["python", "task.py"],
                sim=SimHint(duration_s=5.0),
            )
        )
    ir.add_node(
        IRNode(
            name="guarded",
            op=OpKind.CONTAINER,
            image="repro/worker:v1",
            command=["python", "task.py"],
            when="{{flip.result}} == heads",
            sim=SimHint(duration_s=5.0),
        )
    )
    ir.add_edge("flip", "c1")
    ir.add_edge("c1", "c2")
    ir.add_edge("c2", "guarded")
    return ir


def _run_split(ir, plan):
    """The merged record of ``plan`` run through the split-part executor,
    each part compiled to an Argo manifest."""
    operator = _operator()
    records = run_parts(plan.num_parts, plan.cross_edges, manifest_submit(operator, plan))
    operator.run_to_completion()
    return merge_part_records(ir.name, records)


def test_results_cross_split_part_boundaries():
    ir = _cross_part_ir()
    plan = WorkflowSplitter(BudgetModel(max_steps=2)).split(ir)
    assert plan.num_parts >= 2
    # The guard and the step it references are in different parts.
    assert plan.assignment["guarded"] != plan.assignment["flip"]

    merged = _run_split(ir, plan)
    assert merged.phase == WorkflowPhase.SUCCEEDED
    staged_fp = fingerprint_record(ir, merged)
    assert (
        staged_fp.data["steps"]["guarded"]["status"]
        == StepStatus.SUCCEEDED.value
    )


def test_split_equals_monolithic_on_cross_part_guard():
    ir = _cross_part_ir()
    operator = _operator()
    mono_record = operator.submit(ir.to_executable())
    operator.run_to_completion()
    mono_fp = fingerprint_record(ir, mono_record)

    plan = WorkflowSplitter(BudgetModel(max_steps=2)).split(ir)
    staged_fp = fingerprint_record(ir, _run_split(ir, plan))
    assert mono_fp.outputs_view() == staged_fp.outputs_view()
