"""Workflow metadata persistence (paper Appendix B.B).

"Note that we persist workflow metadata into a database for automated
management.  The server then processes the failed workflow, skipping the
steps with 'Succeeded', 'Skipped', or 'Cached' status."

This module is that database: a small SQLite store (stdlib ``sqlite3``)
holding the serialized IR, the workflow status, per-step execution
records and step results, so that a failed workflow can be fetched back
and restarted from the failure point — possibly by a different server
process, whose ``when`` guards still read the done steps' results.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from typing import List, Optional

from ..engine.status import StepRecord, StepStatus, WorkflowPhase, WorkflowRecord
from ..ir.graph import WorkflowIR
from ..ir.serialize import ir_from_json, ir_to_json

_SCHEMA = """
CREATE TABLE IF NOT EXISTS workflows (
    name        TEXT PRIMARY KEY,
    ir_json     TEXT NOT NULL,
    phase       TEXT NOT NULL,
    owner       TEXT NOT NULL DEFAULT 'unknown',
    submitted_at REAL,
    finished_at  REAL
);
CREATE TABLE IF NOT EXISTS steps (
    workflow    TEXT NOT NULL,
    step        TEXT NOT NULL,
    status      TEXT NOT NULL,
    attempts    INTEGER NOT NULL DEFAULT 0,
    start_time  REAL,
    finish_time REAL,
    last_error  TEXT,
    PRIMARY KEY (workflow, step),
    FOREIGN KEY (workflow) REFERENCES workflows(name) ON DELETE CASCADE
);
CREATE TABLE IF NOT EXISTS results (
    workflow    TEXT NOT NULL,
    step        TEXT NOT NULL,
    value       TEXT,
    PRIMARY KEY (workflow, step),
    FOREIGN KEY (workflow) REFERENCES workflows(name) ON DELETE CASCADE
);
"""


class WorkflowNotFoundError(KeyError):
    """Requested workflow is not in the database."""


@dataclass(frozen=True)
class StoredWorkflow:
    """A workflow row joined with its step records."""

    ir: WorkflowIR
    record: WorkflowRecord
    owner: str


class WorkflowDatabase:
    """SQLite-backed store for workflow IRs and execution records."""

    def __init__(self, path: str = ":memory:") -> None:
        self._conn = sqlite3.connect(path)
        self._conn.execute("PRAGMA foreign_keys = ON")
        self._conn.executescript(_SCHEMA)

    def close(self) -> None:
        self._conn.close()

    # -------------------------------------------------------------- writes

    def save_workflow(
        self, ir: WorkflowIR, record: WorkflowRecord, owner: str = "unknown"
    ) -> None:
        """Insert or replace a workflow and its step records and results."""
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO workflows "
                "(name, ir_json, phase, owner, submitted_at, finished_at) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (
                    ir.name,
                    ir_to_json(ir),
                    record.phase.value,
                    owner,
                    record.submit_time,
                    record.finish_time,
                ),
            )
            self._conn.execute("DELETE FROM steps WHERE workflow = ?", (ir.name,))
            self._conn.execute("DELETE FROM results WHERE workflow = ?", (ir.name,))
            self._write_record(ir.name, record)

    def update_status(self, record: WorkflowRecord) -> None:
        """Refresh phase, step rows and results of a saved workflow."""
        with self._conn:
            updated = self._conn.execute(
                "UPDATE workflows SET phase = ?, finished_at = ? WHERE name = ?",
                (record.phase.value, record.finish_time, record.name),
            )
            if updated.rowcount == 0:
                raise WorkflowNotFoundError(record.name)
            self._write_record(record.name, record)

    def _write_record(self, name: str, record: WorkflowRecord) -> None:
        self._conn.executemany(
            "INSERT OR REPLACE INTO steps "
            "(workflow, step, status, attempts, start_time, finish_time, last_error) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            [
                (name, s.name, s.status.value, s.attempts, s.start_time, s.finish_time, s.last_error)
                for s in record.steps.values()
            ],
        )
        self._conn.executemany(
            "INSERT OR REPLACE INTO results (workflow, step, value) VALUES (?, ?, ?)",
            [(name, step, value) for step, value in record.results.items()],
        )

    def delete(self, name: str) -> None:
        with self._conn:
            deleted = self._conn.execute(
                "DELETE FROM workflows WHERE name = ?", (name,)
            )
            if deleted.rowcount == 0:
                raise WorkflowNotFoundError(name)

    # --------------------------------------------------------------- reads

    def load(self, name: str) -> StoredWorkflow:
        row = self._conn.execute(
            "SELECT ir_json, phase, owner, submitted_at, finished_at "
            "FROM workflows WHERE name = ?",
            (name,),
        ).fetchone()
        if row is None:
            raise WorkflowNotFoundError(name)
        ir_json, phase, owner, submitted_at, finished_at = row
        steps = {
            step: StepRecord(step, StepStatus(status), start, finish, attempts, last_error=error)
            for step, status, start, finish, attempts, error in self._conn.execute(
                "SELECT step, status, start_time, finish_time, attempts, last_error "
                "FROM steps WHERE workflow = ? ORDER BY step",
                (name,),
            )
        }
        results = self._conn.execute(
            "SELECT step, value FROM results WHERE workflow = ? ORDER BY step", (name,)
        )
        record = WorkflowRecord(
            name=name,
            phase=WorkflowPhase(phase),
            steps=steps,
            submit_time=submitted_at,
            finish_time=finished_at,
            results=dict(results),
        )
        return StoredWorkflow(ir=ir_from_json(ir_json), record=record, owner=owner)

    def list_names(self, phase: Optional[WorkflowPhase] = None) -> List[str]:
        if phase is None:
            rows = self._conn.execute(
                "SELECT name FROM workflows ORDER BY name"
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT name FROM workflows WHERE phase = ? ORDER BY name",
                (phase.value,),
            ).fetchall()
        return [row[0] for row in rows]

    def counts_by_phase(self) -> dict:
        """Workflow counts per phase (the monitor's headline metric)."""
        rows = self._conn.execute(
            "SELECT phase, COUNT(*) FROM workflows GROUP BY phase"
        ).fetchall()
        return {phase: count for phase, count in rows}
