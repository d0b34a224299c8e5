"""Durable append-only event journal for the workflow engine.

The journal unifies three record streams that previously lived apart —
the admission decision log, the operator's step events, and the ad-hoc
``WorkflowRecord`` checkpoint snapshots — into one totally ordered
sequence of :class:`JournalRecord` entries.  Each workflow's records
form a *stream* (keyed by workflow name); replaying a stream's events
through :meth:`Journal.materialize` reconstructs the workflow's
:class:`~repro.engine.status.WorkflowRecord` exactly, so a fresh replica
recovers a vanished one's workflows by *replay from the journal* alone
(``WorkflowOperator.resume_from_journal``).

Design properties:

* **Append-only, totally ordered.**  Records carry a global ``seq``;
  ``prefix(n)`` truncates to the first ``n`` records, and materializing
  any prefix yields a consistent, resumable record (the chaos gate
  replays killed replicas from arbitrary prefixes).
* **Idempotent appends (outbox semantics).**  An append carrying an
  ``event_id`` already present in the journal is dropped and returns
  ``None`` — duplicate delivery from an at-least-once producer cannot
  double-apply an event.
* **Self-contained streams.**  The first ``submitted`` record of a
  stream embeds the full executable spec
  (:func:`~repro.engine.spec.executable_to_dict`), so a *fresh* operator
  replica that never saw the original submission can rebuild both the
  workflow and its progress from the journal alone.
* **One transition rule.**  :func:`apply_event`, with :func:`begin_run`
  for ``submitted``, is the only code that changes a record.  The live
  operator applies each event it journals through it, and
  :meth:`Journal.materialize` folds a stream through it, so at every
  checkpoint and restart the live record equals the fold by
  construction, floats included.
* **Charges are facts, not forecasts.**  An attempt charges its fetch
  and compute seconds and its cache hits and misses when it *settles*
  (succeeds, fails or is interrupted), with what it did by then: the
  settling event carries the charges.  An attempt that was started but
  never settled (its replica was hard-killed) materializes as a lost
  attempt: counted, one infra failure, zero charges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from ..obs.metrics import MetricsRegistry
from .spec import ExecutableWorkflow, executable_from_dict
from .status import StepRecord, StepStatus, WorkflowPhase, WorkflowRecord

#: ``last_error`` recorded for an attempt whose replica vanished without
#: settling it (hard kill): the journal has ``attempt-started`` but no
#: completion/interruption record.  An infrastructure fault by
#: definition — it never charges the application retry budget.
REPLICA_LOST_ERR = "ReplicaLostErr"


def demote_running_steps(record: WorkflowRecord) -> List[str]:
    """Enforce the resume invariant: *a snapshot a resumed submission
    reads has no Running steps* — anything Running when the snapshot was
    cut died with its controller and must be re-attempted.

    Applied by every ``checkpointed`` event (the operator's checkpoint
    and restart teardown) and at the end of every journal fold.
    Returns the demoted step names.
    """
    demoted: List[str] = []
    for step_record in record.steps.values():
        if step_record.status == StepStatus.RUNNING:
            step_record.status = StepStatus.PENDING
            demoted.append(step_record.name)
    return demoted


#: Events that settle an attempt.  Each carries the attempt's charges.
_SETTLING = frozenset({"attempt-succeeded", "attempt-failed", "attempt-interrupted"})
#: Events about one step (``payload["step"]``).
_STEP_EVENTS = _SETTLING | {
    "attempt-started",
    "step-skipped",
    "step-cached",
    "step-aborted",
}


def begin_run(
    record: WorkflowRecord,
    at: float,
    step_names: Iterable[str],
    initial_results: Optional[Dict[str, Optional[str]]] = None,
) -> None:
    """Apply a ``submitted`` event: the run (re)starts at ``at``.

    Every step that does not count as done resets to Pending, with no
    error and no finish time, so a resubmission re-runs only those
    (paper Appendix B.B), and results forwarded from other split parts
    join the record's results.
    """
    record.phase = WorkflowPhase.RUNNING
    record.submit_time = at
    record.finish_time = None
    for name in step_names:
        step = record.step(name)
        if not step.status.counts_as_done():
            step.status = StepStatus.PENDING
            step.last_error = None
            step.finish_time = None
    if initial_results:
        record.results.update(initial_results)


def apply_event(
    record: WorkflowRecord, kind: str, at: float, payload: dict
) -> Optional[StepRecord]:
    """Apply one event of any kind but ``submitted`` to ``record``.

    Returns the step record a step event changed, ``None`` for a
    workflow event or a marker.
    """
    if kind not in _STEP_EVENTS:
        if kind == "workflow-finished":
            record.phase = WorkflowPhase(payload["phase"])
            record.finish_time = at
        elif kind == "checkpointed":
            demote_running_steps(record)
        # "admission-*" decisions are markers: they carry no record state.
        return None
    step = record.step(payload["step"])
    if kind == "attempt-started":
        step.attempts += 1
        step.status = StepStatus.RUNNING
        if step.start_time is None:
            step.start_time = at
    elif kind in _SETTLING:
        step.fetch_seconds += payload["fetch"]
        step.compute_seconds += payload["compute"]
        step.cache_hits += payload["hits"]
        step.cache_misses += payload["misses"]
        if kind == "attempt-succeeded":
            step.status = StepStatus.SUCCEEDED
            step.finish_time = at
            record.results[step.name] = payload["result"]
        else:
            step.last_error = payload["pattern"]
            if kind == "attempt-interrupted" or payload.get("infra"):
                step.infra_failures += 1
            if payload.get("terminal"):
                step.status = StepStatus.FAILED
                step.finish_time = at
            # Otherwise the step stays Running through its backoff.
    elif kind == "step-aborted":
        if not step.status.is_terminal():
            step.status = StepStatus.FAILED
            step.finish_time = at
    else:  # step-skipped, step-cached: settled without running
        step.status = (
            StepStatus.SKIPPED if kind == "step-skipped" else StepStatus.CACHED
        )
        step.start_time = at
        step.finish_time = at
    return step


def _settle_lost(record: WorkflowRecord, in_flight: Set[str], at: float) -> None:
    """Settle attempts whose start was journaled but whose outcome never
    was: their replica was hard-killed.  The attempt happened (it
    counts), the cause is infrastructure (budget-free), and none of its
    charges settled — an interrupt that charged nothing."""
    for name in sorted(in_flight):
        apply_event(
            record,
            "attempt-interrupted",
            at,
            {
                "step": name,
                "pattern": REPLICA_LOST_ERR,
                "fetch": 0.0,
                "compute": 0.0,
                "hits": 0,
                "misses": 0,
            },
        )
    in_flight.clear()


def prefix_violations(journal: Journal) -> List[str]:
    """Check the resume invariant on a journal's quartile prefixes.

    A replica can die at any journal position, and whatever its
    replacement materializes must be immediately resumable.  This cuts
    the journal at a quarter, a half, three quarters and the whole,
    materializes every stream of each prefix, and returns one message
    per stream left with a Running step: empty when all resume.
    """
    total = len(journal)
    violations: List[str] = []
    for n in sorted({total // 4, total // 2, (3 * total) // 4, total}):
        clipped = journal.prefix(n)
        for stream in clipped.streams():
            record = clipped.materialize(stream)
            if record is None:
                continue
            running = [
                step.name for step in record.steps.values()
                if step.status == StepStatus.RUNNING
            ]
            if running:
                violations.append(
                    f"prefix {n}: stream {stream!r} left Running steps {running}"
                )
    return violations


@dataclass(frozen=True)
class JournalRecord:
    """One immutable entry in the journal."""

    seq: int
    stream: str
    kind: str
    at: float
    payload: dict = field(default_factory=dict)
    event_id: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "seq": self.seq,
                "stream": self.stream,
                "kind": self.kind,
                "at": self.at,
                "payload": self.payload,
                "event_id": self.event_id,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "JournalRecord":
        data = json.loads(line)
        return cls(
            seq=data["seq"],
            stream=data["stream"],
            kind=data["kind"],
            at=data["at"],
            payload=data.get("payload") or {},
            event_id=data.get("event_id"),
        )


class Journal:
    """An ordered, append-only, idempotent event log."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._records: List[JournalRecord] = []
        self._by_stream: Dict[str, List[JournalRecord]] = {}
        self._event_ids: Set[str] = set()
        self._m_appends = (
            metrics.counter("journal_records_total", "Journal appends by kind")
            if metrics is not None
            else None
        )

    # --------------------------------------------------------------- appends

    def append(
        self,
        stream: str,
        kind: str,
        at: float,
        payload: Optional[dict] = None,
        event_id: Optional[str] = None,
    ) -> Optional[JournalRecord]:
        """Append one record; returns it, or ``None`` for a duplicate.

        ``event_id`` gives the append outbox semantics: re-delivering an
        event already in the journal is a no-op, so an at-least-once
        producer can retry sends without double-applying.
        """
        if event_id is not None:
            if event_id in self._event_ids:
                return None
            self._event_ids.add(event_id)
        record = JournalRecord(
            seq=len(self._records),
            stream=stream,
            kind=kind,
            at=at,
            payload=payload or {},
            event_id=event_id,
        )
        self._records.append(record)
        self._by_stream.setdefault(stream, []).append(record)
        if self._m_appends is not None:
            self._m_appends.inc(kind=kind)
        return record

    # --------------------------------------------------------------- reading

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> List[JournalRecord]:
        return list(self._records)

    def streams(self) -> List[str]:
        """Stream names in first-append order."""
        return list(self._by_stream)

    def stream_records(
        self, stream: str, upto_seq: Optional[int] = None
    ) -> List[JournalRecord]:
        records = self._by_stream.get(stream, [])
        if upto_seq is None:
            return list(records)
        return [record for record in records if record.seq <= upto_seq]

    def prefix(self, n: int) -> "Journal":
        """A new journal holding only the first ``n`` records.

        This is what a replica that crashed mid-run left behind:
        :func:`prefix_violations` materializes the quartile prefixes and
        reports any stream left with a Running step.
        """
        clipped = Journal()
        for record in self._records[:n]:
            clipped.append(
                record.stream,
                record.kind,
                record.at,
                dict(record.payload),
                event_id=record.event_id,
            )
        return clipped

    # ----------------------------------------------------------- persistence

    def dump(self, path: str) -> int:
        """Write the journal as JSONL; returns the record count."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self._records:
                handle.write(record.to_json() + "\n")
        return len(self._records)

    @classmethod
    def load(cls, path: str) -> "Journal":
        journal = cls()
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = JournalRecord.from_json(line)
                journal.append(
                    record.stream,
                    record.kind,
                    record.at,
                    record.payload,
                    event_id=record.event_id,
                )
        return journal

    # ------------------------------------------------------- materialization

    def workflow_spec_dict(self, stream: str) -> Optional[dict]:
        """The spec dict embedded in the stream's first submission."""
        for record in self._by_stream.get(stream, []):
            if record.kind == "submitted" and "spec" in record.payload:
                return record.payload["spec"]
        return None

    def workflow_spec(self, stream: str) -> Optional[ExecutableWorkflow]:
        """Rebuild the stream's executable workflow from the journal."""
        spec = self.workflow_spec_dict(stream)
        if spec is None:
            return None
        return executable_from_dict(spec)

    def materialize(
        self, stream: str, upto_seq: Optional[int] = None
    ) -> Optional[WorkflowRecord]:
        """Fold a stream's events into a fresh :class:`WorkflowRecord`,
        each through :func:`begin_run` or :func:`apply_event`: the rule
        the live operator applies as it journals them.

        Returns ``None`` when the stream holds no submission (e.g. only
        admission decisions so far).  The result is always resumable:
        attempts that were started but never settled are folded as lost
        (one infra failure, ``ReplicaLostErr``, zero charges), and no
        step is left Running.
        """
        events = self.stream_records(stream, upto_seq=upto_seq)
        if self.workflow_spec_dict(stream) is None or not any(
            event.kind == "submitted" for event in events
        ):
            return None
        record = WorkflowRecord(name=stream)
        step_names: List[str] = []
        #: Steps with a started-but-unsettled attempt (lost on hard kill).
        in_flight: Set[str] = set()
        for event in events:
            kind, payload = event.kind, event.payload
            if kind == "submitted":
                if "spec" in payload:
                    step_names = [s["name"] for s in payload["spec"]["steps"]]
                # Attempts still unsettled at a resubmit died with a
                # hard-killed replica: settle them as lost *here*, as the
                # resuming replica's prefix replay did, so the full
                # stream and the prefix agree.
                _settle_lost(record, in_flight, event.at)
                begin_run(
                    record, event.at, step_names, payload.get("initial_results")
                )
                continue
            step = apply_event(record, kind, event.at, payload)
            if kind == "attempt-started":
                in_flight.add(step.name)
            elif kind in _SETTLING:
                in_flight.discard(step.name)
        _settle_lost(record, in_flight, events[-1].at)
        demote_running_steps(record)
        return record
