"""Step and workflow status model (mirrors Argo's phase vocabulary).

The restart-from-failure path in the paper (Appendix B.B) skips steps
whose status is ``Succeeded``, ``Skipped`` or ``Cached``; those statuses
are first-class here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional


class StepStatus(str, Enum):
    PENDING = "Pending"
    RUNNING = "Running"
    SUCCEEDED = "Succeeded"
    FAILED = "Failed"
    SKIPPED = "Skipped"
    CACHED = "Cached"

    def is_terminal(self) -> bool:
        return self in _TERMINAL_STEPS

    def counts_as_done(self) -> bool:
        """Statuses a restarted workflow may skip (paper Appendix B.B)."""
        return self in _DONE_STEPS


#: Built once: reading members off an enum class is slow enough that a
#: tuple of them built per call cost more than the membership test.
_DONE_STEPS = frozenset({StepStatus.SUCCEEDED, StepStatus.SKIPPED, StepStatus.CACHED})
_TERMINAL_STEPS = _DONE_STEPS | {StepStatus.FAILED}


class WorkflowPhase(str, Enum):
    PENDING = "Pending"
    RUNNING = "Running"
    SUCCEEDED = "Succeeded"
    FAILED = "Failed"

    def is_terminal(self) -> bool:
        return self in _TERMINAL_PHASES


_TERMINAL_PHASES = frozenset({WorkflowPhase.SUCCEEDED, WorkflowPhase.FAILED})


@dataclass
class StepRecord:
    """Execution record for one step of one workflow run."""

    name: str
    status: StepStatus = StepStatus.PENDING
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    attempts: int = 0
    #: Attempts lost to infrastructure faults (node loss, eviction,
    #: operator restart).  These count in ``attempts`` but are refunded
    #: when the retry policy sizes the step's application budget.
    infra_failures: int = 0
    #: Seconds spent fetching input artifacts (remote + local reads).
    fetch_seconds: float = 0.0
    #: Seconds of pure compute.
    compute_seconds: float = 0.0
    #: Input artifacts served from the cache vs. fetched remotely.
    cache_hits: int = 0
    cache_misses: int = 0
    last_error: Optional[str] = None

    @property
    def duration(self) -> Optional[float]:
        if self.start_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.start_time


@dataclass
class WorkflowRecord:
    """Execution record for a whole workflow run."""

    name: str
    phase: WorkflowPhase = WorkflowPhase.PENDING
    steps: Dict[str, StepRecord] = field(default_factory=dict)
    submit_time: Optional[float] = None
    finish_time: Optional[float] = None
    #: ``result`` values of succeeded steps (None = no declared result).
    #: Persisted on the record so restart-from-failure and staged split
    #: execution can re-evaluate ``when`` guards against completed steps.
    results: Dict[str, Optional[str]] = field(default_factory=dict)

    @property
    def makespan(self) -> Optional[float]:
        if self.submit_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    def step(self, name: str) -> StepRecord:
        if name not in self.steps:
            self.steps[name] = StepRecord(name=name)
        return self.steps[name]

    def total_cache_hits(self) -> int:
        return sum(s.cache_hits for s in self.steps.values())

    def total_cache_misses(self) -> int:
        return sum(s.cache_misses for s in self.steps.values())

    def total_fetch_seconds(self) -> float:
        return sum(s.fetch_seconds for s in self.steps.values())

    def total_compute_seconds(self) -> float:
        return sum(s.compute_seconds for s in self.steps.values())
