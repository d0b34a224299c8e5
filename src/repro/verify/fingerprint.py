"""Canonical semantic fingerprints for execution outcomes.

A fingerprint captures what a workflow execution *meant*: per-step
terminal status, attempts, recorded ``result`` values and cache
counters, the produced-artifact lineage, the workflow's terminal phase
and its virtual-time makespan.  Two executions with equal fingerprints
behaved identically.

Oracles that compare executions across configurations which
legitimately change *scheduling* but must not change *meaning*
(split-vs-monolithic, cache-on-vs-off) compare the ``outputs_view``
projection instead: statuses (with ``Cached`` normalized to
``Succeeded`` — a cached step is a succeeded step whose work was
reused), results and lineage, without makespan/attempt/cache noise.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import List, Optional

from ..engine.status import StepStatus, WorkflowRecord
from ..ir.graph import WorkflowIR


def _canonical_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Fingerprint:
    """Immutable canonical summary of one workflow execution.

    ``digest()`` / ``outputs_digest()`` are memoized: fleet-scale
    verify sweeps hash every workflow's fingerprint several times
    (per-pair comparison, aggregate digest, report lines), and the
    canonical-JSON encode dominated those passes.  The dataclass is
    frozen, so the cache can never go stale; ``object.__setattr__``
    sidesteps the frozen guard for the private slots.
    """

    data: dict

    def digest(self) -> str:
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = hashlib.sha256(_canonical_json(self.data).encode()).hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached

    def outputs_view(self) -> dict:
        """Scheduling-independent projection (statuses/results/lineage)."""
        steps = {
            name: {
                "status": (
                    StepStatus.SUCCEEDED.value
                    if entry["status"] == StepStatus.CACHED.value
                    else entry["status"]
                ),
                "result": entry["result"],
            }
            for name, entry in self.data["steps"].items()
        }
        return {
            "workflow": self.data["workflow"],
            "phase": self.data["phase"],
            "steps": steps,
            "artifacts": self.data["artifacts"],
        }

    def outputs_digest(self) -> str:
        cached = self.__dict__.get("_outputs_digest")
        if cached is None:
            cached = hashlib.sha256(
                _canonical_json(self.outputs_view()).encode()
            ).hexdigest()
            object.__setattr__(self, "_outputs_digest", cached)
        return cached


def _lineage(ir: WorkflowIR, record: WorkflowRecord) -> List[str]:
    """Artifact uids produced by steps that (effectively) succeeded."""
    produced: List[str] = []
    for name in sorted(ir.nodes):
        step = record.steps.get(name)
        if step is None:
            continue
        if step.status in (StepStatus.SUCCEEDED, StepStatus.CACHED):
            produced.extend(
                artifact.uid or f"{ir.name}/{name}/{artifact.name}"
                for artifact in ir.nodes[name].outputs
            )
    return sorted(produced)


def _step_entry(record: WorkflowRecord, name: str) -> dict:
    step = record.steps[name]
    return {
        "status": step.status.value,
        "attempts": step.attempts,
        "result": record.results.get(name),
        "cache_hits": step.cache_hits,
        "cache_misses": step.cache_misses,
    }


def fingerprint_record(ir: WorkflowIR, record: WorkflowRecord) -> Fingerprint:
    """Fingerprint an execution of ``ir``: its record, or the one
    :func:`~repro.parallelism.stitch.merge_part_records` folds from its parts."""
    return Fingerprint(
        data={
            "workflow": ir.name,
            "phase": record.phase.value,
            "makespan": record.makespan,
            "steps": {
                name: _step_entry(record, name) for name in sorted(record.steps)
            },
            "artifacts": _lineage(ir, record),
        }
    )


def describe_difference(a: Fingerprint, b: Fingerprint, view: str = "outputs") -> Optional[str]:
    """Human-readable first difference between two fingerprints.

    ``view`` selects ``"outputs"`` (scheduling-independent projection)
    or ``"full"``.  Returns None when equal under that view.
    """
    left = a.outputs_view() if view == "outputs" else a.data
    right = b.outputs_view() if view == "outputs" else b.data
    if left == right:
        return None
    for key in sorted(set(left) | set(right)):
        lv, rv = left.get(key), right.get(key)
        if lv == rv:
            continue
        if key == "steps" and isinstance(lv, dict) and isinstance(rv, dict):
            for name in sorted(set(lv) | set(rv)):
                if lv.get(name) != rv.get(name):
                    return (
                        f"step {name!r}: {lv.get(name)!r} != {rv.get(name)!r}"
                    )
        return f"{key}: {lv!r} != {rv!r}"
    return "fingerprints differ"
