"""The Couler server: the service facade of the whole system.

Production Couler runs as a gRPC service in front of the optimization
libraries (paper Appendix B).  This module reproduces that role as an
in-process facade:

- accepts IR submissions from any frontend,
- runs the optimization pass pipeline,
- applies Algorithm 3 and runs every plan through the split-part
  executor,
- persists workflow metadata to the :class:`WorkflowDatabase`,
- feeds the :class:`WorkflowMonitor`,
- and implements the paper's manual-retry flow: fetch the failed
  workflow from the database, skip steps whose status is Succeeded /
  Skipped / Cached, and restart the rest of its split plan from the
  failure point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from ..engine.config import EngineConfig
from ..engine.operator import WorkflowOperator
from ..engine.status import WorkflowPhase, WorkflowRecord
from ..ir.graph import WorkflowIR
from ..ir.passes import PassManager
from ..parallelism.budget import BudgetModel
from ..parallelism.splitter import SplitPlan, WorkflowSplitter
from ..parallelism.stitch import merge_part_records, run_parts
from .database import WorkflowDatabase
from .monitor import WorkflowMonitor


class SubmissionError(RuntimeError):
    """Raised for invalid submissions (duplicate names, bad IR)."""


@dataclass
class SubmissionHandle:
    """What the service returns on submit."""

    name: str
    split_parts: int
    record: WorkflowRecord


@dataclass
class CoulerService:
    """The server facade over one simulated environment.

    Conforms to the :class:`~repro.backends.base.Submitter` protocol —
    ``submit(ir)`` returns a :class:`SubmissionHandle` whose ``record``
    attribute is the workflow record, so ``couler.run(submitter=service)``
    works directly.
    """

    operator: WorkflowOperator
    database: WorkflowDatabase = field(default_factory=WorkflowDatabase)
    monitor: WorkflowMonitor = field(default_factory=WorkflowMonitor)
    budget: BudgetModel = field(default_factory=BudgetModel)
    passes: PassManager = field(default_factory=PassManager.default)
    #: Knob bundle (Submitter protocol conformance; the service
    #: executes on the operator it was handed, so only introspection
    #: reads this today).
    config: EngineConfig = field(default_factory=EngineConfig)
    _irs: Dict[str, WorkflowIR] = field(default_factory=dict)
    _records: Dict[str, WorkflowRecord] = field(default_factory=dict)

    # ---------------------------------------------------------- submission

    def submit(
        self, ir: WorkflowIR, owner: str = "unknown", run: bool = True
    ) -> SubmissionHandle:
        """Optimize, split, persist and (unless ``run=False``) execute."""
        if ir.name in self._irs:
            raise SubmissionError(f"workflow {ir.name!r} already submitted")
        ir = self.passes.run(ir)
        self._irs[ir.name] = ir
        plan = self._execute(ir)
        self.database.save_workflow(ir, self._records[ir.name], owner=owner)
        if run:
            self.operator.run_to_completion()
        return SubmissionHandle(
            name=ir.name, split_parts=plan.num_parts, record=self._records[ir.name]
        )

    def _execute(self, ir: WorkflowIR, failed: Optional[WorkflowRecord] = None) -> SplitPlan:
        """Run ``ir``'s split plan through the split-part executor; the
        merged record reaches the database and monitor when the last
        part settles.  A retry passes the ``failed`` record: each part
        resumes from its slice, and done parts are not resubmitted."""
        plan = WorkflowSplitter(self.budget).split(ir)
        seeds = [failed and _part_record(failed, part) for part in plan.parts]

        def settled(records: List[Optional[WorkflowRecord]]) -> None:
            record = self._records[ir.name] = merge_part_records(ir.name, records)
            self.database.update_status(record)
            self.monitor.observe(record)
            self.monitor.observe_operator(self.operator)

        records = run_parts(
            plan.num_parts,
            plan.cross_edges,
            lambda index, results, on_complete: self.operator.submit(
                plan.parts[index].to_executable(),
                record=seeds[index],
                on_complete=on_complete,
                initial_results=results,
            ),
            done={
                index: seed
                for index, seed in enumerate(seeds)
                if seed and seed.phase == WorkflowPhase.SUCCEEDED
            },
            on_settled=settled,
        )
        self._records[ir.name] = merge_part_records(ir.name, records)
        return plan

    # ------------------------------------------------------------- queries

    def status(self, name: str) -> WorkflowRecord:
        record = self._records.get(name)
        if record is not None:
            return record
        return self.database.load(name).record

    def list_workflows(self, phase: Optional[WorkflowPhase] = None) -> List[str]:
        return self.database.list_names(phase)

    def health(self) -> dict:
        report = self.monitor.health_report()
        report["database_counts"] = self.database.counts_by_phase()
        return report

    # -------------------------------------------------------- manual retry

    def retry_from_failure(self, name: str, run: bool = True) -> WorkflowRecord:
        """The Appendix B.B flow: restart a failed workflow, split with
        the service's budget, skipping steps whose status (in memory or
        read back from the database) counts as done."""
        stored = self.database.load(name)
        record = self._records.get(name, stored.record)
        if record.phase != WorkflowPhase.FAILED:
            raise SubmissionError(
                f"workflow {name!r} is {record.phase.value}, not Failed"
            )
        self._execute(self._irs.get(name, stored.ir), failed=record)
        self.database.update_status(self._records[name])
        if run:
            self.operator.run_to_completion()
        return self._records[name]


def _part_record(logical: WorkflowRecord, part: WorkflowIR) -> WorkflowRecord:
    """A part's slice of a logical record: copies of its step records (the
    failed run's record stays as observed) and every result; Succeeded
    when each of its steps counts as done."""
    steps = {
        name: replace(logical.steps[name]) for name in part.nodes if name in logical.steps
    }
    done = len(steps) == len(part.nodes) and all(
        step.status.counts_as_done() for step in steps.values()
    )
    return WorkflowRecord(
        name=part.name,
        phase=WorkflowPhase.SUCCEEDED if done else WorkflowPhase.PENDING,
        steps=steps,
        results=dict(logical.results),
    )
