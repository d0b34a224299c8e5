"""Sharded multi-replica operator fleet over one shared journal.

The scale-out story of the journal-backed engine: ``N`` stateless
:class:`~repro.engine.operator.WorkflowOperator` replicas share one
cluster, one :class:`~repro.engine.simclock.SimClock` and one
:class:`~repro.engine.journal.Journal`.  Each workflow is hash-assigned
to exactly one replica (``crc32(name) % N`` — *not* Python's salted
``hash``, so the assignment is stable across processes), every replica
journals its transitions into the shared log, and any replica can die
and be replaced by a fresh one that resumes its shard purely by
replaying the journal.

Two properties the verify/chaos gates pin:

* **Output equivalence** — for deterministic workloads, the fleet's
  per-workflow outcomes (statuses, results, lineage) are identical to a
  single in-memory operator's, regardless of replica count.  Scheduling
  order may differ (replicas drain their own wait queues), which is why
  the comparison uses the scheduling-independent outputs view.
* **Replay recovery** — hard-killing a replica mid-run loses nothing
  that matters: a replacement built from the journal alone reaches the
  same terminal outputs, and the whole scenario is deterministic under
  the same seed.

Cross-replica wakeups: each operator only drains its *own* resource
wait queue, so the fleet installs a ``peer_wakeup`` hook — whenever one
replica frees cluster resources, the others get a drain pass scheduled
(in replica-index order, for determinism).
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, List, Optional

from ..k8s.cluster import Cluster
from ..obs.metrics import MetricsRegistry
from .journal import Journal
from .operator import CompletionCallback, WorkflowOperator
from .simclock import SimClock
from .spec import ExecutableWorkflow
from .status import WorkflowRecord


def shard_of(name: str, replicas: int) -> int:
    """Stable workflow → replica assignment (crc32, process-independent)."""
    return zlib.crc32(name.encode("utf-8")) % replicas


class ShardedOperatorFleet:
    """N shard-assigned operator replicas driving one cluster."""

    def __init__(
        self,
        clock: SimClock,
        cluster: Cluster,
        replicas: int = 2,
        journal: Optional[Journal] = None,
        seed: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        **operator_kwargs: object,
    ) -> None:
        if replicas < 1:
            raise ValueError(f"fleet needs at least one replica: {replicas}")
        self.clock = clock
        self.cluster = cluster
        self.journal = journal if journal is not None else Journal(metrics=metrics)
        self._operator_kwargs = dict(operator_kwargs)
        self._seed = seed
        self._metrics = metrics
        self.replicas: List[WorkflowOperator] = [
            self._build_replica() for _ in range(replicas)
        ]

    def _build_replica(self) -> WorkflowOperator:
        operator = WorkflowOperator(
            self.clock,
            self.cluster,
            seed=self._seed,
            journal=self.journal,
            metrics=self._metrics,
            **self._operator_kwargs,
        )
        operator.peer_wakeup = self._make_wakeup(operator)
        return operator

    def _make_wakeup(self, source: WorkflowOperator) -> Callable[[], None]:
        def wake() -> None:
            for peer in self.replicas:
                if peer is not source:
                    self.clock.schedule(0.0, peer._drain_waitq)

        return wake

    # -------------------------------------------------------------- routing

    def shard_of(self, name: str) -> int:
        return shard_of(name, len(self.replicas))

    def operator_for(self, name: str) -> WorkflowOperator:
        return self.replicas[self.shard_of(name)]

    def shard_streams(self, index: int) -> List[str]:
        """Journal streams hash-assigned to replica ``index``."""
        return [
            stream
            for stream in self.journal.streams()
            if self.shard_of(stream) == index
        ]

    # ----------------------------------------------------------- submission

    def submit(
        self,
        workflow: ExecutableWorkflow,
        record: Optional[WorkflowRecord] = None,
        on_complete: Optional[CompletionCallback] = None,
        initial_results: Optional[Dict[str, Optional[str]]] = None,
    ) -> WorkflowRecord:
        """Route a submission to its shard's replica."""
        return self.operator_for(workflow.name).submit(
            workflow,
            record=record,
            on_complete=on_complete,
            initial_results=initial_results,
        )

    # ---------------------------------------------------------------- chaos

    def kill_replica(self, index: int) -> List[str]:
        """Hard-kill one replica (nothing journaled, pods GC'd).

        The dead operator object stays in the slot so stale clock events
        hit its ``_is_live`` guards and no-op; :meth:`resume_replica`
        swaps in a fresh replacement.  Returns the workflows that died.
        """
        return self.replicas[index].hard_kill()

    def resume_replica(self, index: int) -> List[str]:
        """Replace replica ``index`` with a fresh one resumed from journal.

        The replacement is built exactly like the original — it shares
        nothing with the dead replica but the journal, which is the
        point: resuming its shard's streams proves the engine state is
        fully journal-derived.  Returns the resumed workflow names.
        """
        replacement = self._build_replica()
        self.replicas[index] = replacement
        return replacement.resume_from_journal(names=self.shard_streams(index))

    # ------------------------------------------------------------ inspection

    def active_workflows(self) -> List[str]:
        names: List[str] = []
        for operator in self.replicas:
            names.extend(operator.active_workflows())
        return sorted(names)

    def records_by_name(self) -> Dict[str, WorkflowRecord]:
        """Latest completed record per workflow, across all replicas."""
        records: Dict[str, WorkflowRecord] = {}
        for operator in self.replicas:
            for record in operator.completed:
                records[record.name] = record
        return records

    def run_to_completion(self, until: Optional[float] = None) -> None:
        self.clock.run(until=until)
