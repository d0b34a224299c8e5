"""Running the parts of a split workflow plan as the one DAG they came
from: :func:`run_parts` is the executor every caller uses (operator,
admission pipeline, service), and :func:`merge_part_records` folds the
part records back into one logical record.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..backends.argo import ArgoBackend
from ..engine.operator import WorkflowOperator
from ..engine.status import WorkflowPhase, WorkflowRecord
from .splitter import SplitPlan

PartRecords = List[Optional[WorkflowRecord]]
#: ``submit(index, results, on_complete)`` submits part ``index`` with the
#: step results known so far, to call ``on_complete(record)`` when it
#: finishes; returns its live record, or None while it has none.
SubmitPart = Callable[
    [int, Dict[str, Optional[str]], Callable[[WorkflowRecord], None]],
    Optional[WorkflowRecord],
]


def run_parts(
    num_parts: int,
    edges: Iterable[Tuple[int, int]],
    submit: SubmitPart,
    done: Optional[Mapping[int, WorkflowRecord]] = None,
    on_settled: Optional[Callable[[PartRecords], None]] = None,
) -> PartRecords:
    """Run parts ``0 .. num_parts - 1`` under the ``(from, to)`` part
    dependencies ``edges``.

    Parts with no dependency are submitted now, in index order; any
    other part from the callback of the last part it waits for, once
    all of them succeeded.  Once a part fails no further part starts,
    as a monolithic run starts no step after one fails.  ``done`` holds
    the records of parts that already succeeded (a retry), which are
    not submitted.  Returns one record per part (None: never
    submitted); ``on_settled`` fires once nothing runs or will start.
    """
    records: PartRecords = [None] * num_parts
    waiting = [0] * num_parts
    dependents: List[List[int]] = [[] for _ in range(num_parts)]
    for src, dst in sorted(edges):
        waiting[dst] += 1
        dependents[src].append(dst)
    results: Dict[str, Optional[str]] = {}
    running = 0
    failed = False

    def start(index: int) -> None:
        nonlocal running
        running += 1
        records[index] = submit(index, dict(results), lambda record: finish(index, record))

    def finish(index: int, record: WorkflowRecord) -> None:
        nonlocal running, failed
        running -= 1
        records[index] = record
        failed = failed or record.phase != WorkflowPhase.SUCCEEDED
        if not failed:
            results.update(record.results)
            for dependent in dependents[index]:
                waiting[dependent] -= 1
                if waiting[dependent] == 0:
                    start(dependent)
        if running == 0 and on_settled is not None:
            on_settled(records)

    for index, record in (done or {}).items():
        records[index] = record
        results.update(record.results)
        waiting[index] = -1
        for dependent in dependents[index]:
            waiting[dependent] -= 1
    for index in range(num_parts):
        if waiting[index] == 0:
            start(index)
    if running == 0 and on_settled is not None:
        on_settled(records)
    return records


def merge_part_records(name: str, records: PartRecords) -> WorkflowRecord:
    """One logical record holding the steps and results of every
    submitted part, from the earliest part submit to the latest part
    finish: Running while a part is, then Succeeded only if every part
    succeeded."""
    parts = [record for record in records if record is not None]
    phases = {record.phase for record in parts}
    if not all(phase.is_terminal() for phase in phases):
        phase = WorkflowPhase.RUNNING
    elif phases == {WorkflowPhase.SUCCEEDED} and len(parts) == len(records):
        phase = WorkflowPhase.SUCCEEDED
    else:
        phase = WorkflowPhase.FAILED
    starts = [record.submit_time for record in parts if record.submit_time is not None]
    ends = [record.finish_time for record in parts if record.finish_time is not None]
    return WorkflowRecord(
        name=name,
        phase=phase,
        steps={step.name: step for record in parts for step in record.steps.values()},
        submit_time=min(starts, default=None),
        finish_time=max(ends, default=None) if phase.is_terminal() else None,
        results={k: v for record in parts for k, v in record.results.items()},
    )


def manifest_submit(operator: WorkflowOperator, plan: SplitPlan) -> SubmitPart:
    """Submit each part of ``plan`` to ``operator`` as its own Argo
    manifest, so an attached API server checks every part's CRD size."""
    backend = ArgoBackend()
    return lambda index, results, on_complete: operator.submit_manifest(
        backend.compile(plan.parts[index]),
        on_complete=on_complete,
        initial_results=results,
    )
