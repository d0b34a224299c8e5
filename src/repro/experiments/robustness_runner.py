"""Robustness under injected infrastructure faults.

The paper's operator runs on a shared production cluster where nodes
die, pods get preempted, and the controller itself is redeployed
mid-flight; workflow completion is expected to survive all of it
(Appendix B.B's failure handling).  This experiment drives a seeded
fleet through a fixed storm — a node crash, a wave of pod evictions, a
cache-tier outage, and one operator restart mid-run — and then proves
three properties:

1. **Recovery**: every workflow still completes.
2. **Determinism**: an identical second run produces byte-identical
   final records (fault injection is replayable, so regressions in the
   recovery path show up as diffs, not flakes).
3. **Conservation**: the invariant checker finds no admitted workflow
   left unplaced and no leaked node allocations, reservations, or
   quota charges afterwards, and every record counts each input read
   once, however often the storm interrupted its step.

The ``--journal`` lane (:func:`run_journal`) storms the journal-backed
sharded fleet instead: replicas are hard-killed mid-run (nothing
journaled, pods lost) and replaced by fresh processes that recover by
pure journal replay.  It proves recovery, replayed determinism (digest
printed for CI diffing), calm-run output equivalence, that each
quartile prefix of the journal materializes resumable records (no step
left Running), that the full journal replays to records equal to the
live ones, and that every record counts each input read once.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..chaos import (
    CacheOutage,
    ChaosInjector,
    ChaosPlan,
    NodeCrash,
    OperatorRestart,
    PodEviction,
    check_read_accounting,
    full_check,
)
from ..engine.admission import AdmissionPipeline
from ..engine.journal import Journal, JournalRecord, prefix_violations
from ..engine.operator import WorkflowOperator
from ..engine.replicas import ShardedOperatorFleet
from ..engine.simclock import SimClock
from ..engine.spec import ArtifactSpec, ExecutableStep, ExecutableWorkflow
from ..engine.status import WorkflowPhase, WorkflowRecord
from ..k8s.cluster import Cluster
from ..k8s.resources import ResourceQuantity
from ..workloads.arrivals import PoissonArrivalProcess
from .reporting import format_table

GB = 2**30

#: One record fingerprint: everything that must match between two runs.
Fingerprint = Tuple[str, str, Optional[float], Tuple[tuple, ...]]


def _record_fingerprint(record: WorkflowRecord) -> Fingerprint:
    return (
        record.name,
        record.phase.value,
        record.finish_time,
        tuple(
            (name, step.status.value, step.attempts, step.infra_failures,
             step.finish_time)
            for name, step in sorted(record.steps.items())
        ),
    )


def _fleet(num_workflows: int, seed: int) -> List[ExecutableWorkflow]:
    """Seeded three-layer pipelines with inter-step artifacts.

    Steps carry input artifacts so the cache-outage fault actually has
    a surface to hit (an outage only stalls steps that read data).
    """
    rng = random.Random(seed)
    workflows = []
    for index in range(num_workflows):
        workflow = ExecutableWorkflow(name=f"wf-{index}")
        previous_stage: Optional[str] = None
        previous_outputs: List[ArtifactSpec] = []
        for layer, stage in enumerate(("extract", "train", "publish")):
            output = ArtifactSpec(
                uid=f"wf-{index}/{stage}/out",
                size_bytes=int((0.2 + rng.random()) * GB),
            )
            workflow.add_step(
                ExecutableStep(
                    name=stage,
                    duration_s=40 + rng.random() * 80,
                    requests=ResourceQuantity(
                        cpu=2.0 + 2.0 * (layer == 1), memory=2 * GB
                    ),
                    dependencies=[] if previous_stage is None else [previous_stage],
                    inputs=list(previous_outputs),
                    outputs=[output],
                )
            )
            previous_stage = stage
            previous_outputs = [output]
        workflows.append(workflow)
    return workflows


def storm_plan(horizon: float = 400.0) -> ChaosPlan:
    """The acceptance storm: crash + evictions + outage + restart."""
    return ChaosPlan(
        [
            NodeCrash(at=0.15 * horizon, node="chaos-node-1", duration=0.25 * horizon),
            PodEviction(at=0.25 * horizon, count=2),
            CacheOutage(at=0.35 * horizon, duration=0.1 * horizon),
            PodEviction(at=0.45 * horizon, count=1),
            OperatorRestart(at=0.55 * horizon, downtime=0.05 * horizon),
        ]
    )


@dataclass
class RobustnessRun:
    """Everything one simulated run produced."""

    operator: WorkflowOperator
    records: List[WorkflowRecord]
    injector: ChaosInjector
    makespan: float
    pipeline: Optional[AdmissionPipeline] = None
    fingerprints: List[Fingerprint] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.fingerprints = [_record_fingerprint(record) for record in self.records]
        if self.pipeline is not None:
            # Admission decisions are part of the replayable surface:
            # a regression that re-orders placements or shifts queue
            # waits must show up as a fingerprint diff.
            self.fingerprints.append(
                (
                    "__admission__",
                    "placements",
                    None,
                    tuple(
                        (
                            admission.workflow_name,
                            admission.cluster_name,
                            admission.place_time,
                            admission.deferrals,
                        )
                        for admission in self.pipeline.placed
                    ),
                )
            )


def _run_once(
    seed: int,
    num_workflows: int,
    chaos: bool,
    tracer: Optional[object] = None,
) -> RobustnessRun:
    """One storm against the event-driven admission pipeline.

    The fleet arrives over time (seeded Poisson, open loop) while the
    chaos plan fires, so faults hit workflows in every lifecycle stage:
    still pending admission, queued for placement, and mid-execution.
    """
    cluster = Cluster.uniform(
        "chaos", 4, cpu_per_node=8.0, memory_per_node=32 * GB
    )
    pipeline = AdmissionPipeline(
        [cluster], seed=seed, aging_rate=0.01, tracer=tracer
    )
    arrivals = PoissonArrivalProcess(rate_per_s=0.08, seed=seed).times(num_workflows)
    handles = [
        pipeline.submit_at(at, workflow)
        for at, workflow in zip(arrivals, _fleet(num_workflows, seed))
    ]
    operator = pipeline.operators[cluster.name]
    injector = ChaosInjector(operator, storm_plan() if chaos else ChaosPlan(), seed=seed)
    injector.arm()
    pipeline.run()
    records = [
        handle.record if handle.record is not None else WorkflowRecord(handle.workflow_name)
        for handle in handles
    ]
    return RobustnessRun(
        operator=operator,
        records=records,
        injector=injector,
        makespan=pipeline.clock.now,
        pipeline=pipeline,
    )


def run(
    seed: int = 0, num_workflows: int = 8, tracer: Optional[object] = None
) -> Dict[str, object]:
    """Storm twice (determinism), once calm (cost), then check the books."""
    stormy = _run_once(seed, num_workflows, chaos=True, tracer=tracer)
    replay = _run_once(seed, num_workflows, chaos=True)
    calm = _run_once(seed, num_workflows, chaos=False)

    # Conservation sweep covers the operator *and* the admission
    # pipeline's pending list and quota/reservation books — after the
    # storm, nothing may remain pending, allocated, reserved, or charged.
    invariants = full_check(operators=[stormy.operator], pipeline=stormy.pipeline)
    violations = invariants.violations + check_read_accounting(
        stormy.records, _fleet(num_workflows, seed)
    )
    completed = sum(
        1 for r in stormy.records if r.phase == WorkflowPhase.SUCCEEDED
    )
    metrics = stormy.operator.metrics
    return {
        "runs": {"stormy": stormy, "calm": calm},
        "completed": completed,
        "total": num_workflows,
        "deterministic": stormy.fingerprints == replay.fingerprints,
        "invariant_violations": violations,
        "makespan_chaos": stormy.makespan,
        "makespan_calm": calm.makespan,
        "queue_latency_worst": stormy.pipeline.starvation_gap(),
        "chaos_counters": metrics.counters_with_prefix("chaos_"),
        "infra_retries": {
            dict(key).get("pattern", "?"): value
            for key, value in metrics.counter(
                "engine_infra_retries_total"
            ).series().items()
        },
        "fault_log": stormy.injector.log,
    }


def report(results: Dict[str, object]) -> str:
    stormy: RobustnessRun = results["runs"]["stormy"]
    rows = []
    for record in stormy.records:
        attempts = sum(step.attempts for step in record.steps.values())
        infra = sum(step.infra_failures for step in record.steps.values())
        rows.append(
            (
                record.name,
                record.phase.value,
                attempts,
                infra,
                attempts - infra,
                f"{record.finish_time:.0f}s" if record.finish_time else "-",
            )
        )
    table = format_table(
        ["workflow", "phase", "attempts", "infra faults", "app attempts", "finished"],
        rows,
        title="Robustness: fleet under node crash / evictions / outage / restart",
    )
    retries = ", ".join(
        f"{pattern}={count:.0f}"
        for pattern, count in sorted(results["infra_retries"].items())
    )
    lines = [
        f"completed {results['completed']}/{results['total']} workflows "
        f"(makespan {results['makespan_chaos']:.0f}s vs {results['makespan_calm']:.0f}s calm)",
        f"deterministic replay: {'yes' if results['deterministic'] else 'NO — RECOVERY PATH REGRESSED'}",
        "invariants: "
        + (
            "clean (no stranded pending work, leaked allocations, "
            "reservations, or quota)"
            if not results["invariant_violations"]
            else "; ".join(results["invariant_violations"])
        ),
        f"infra retries (budget-free): {retries or 'none'}",
        f"worst admission-queue wait: {results['queue_latency_worst']:.0f}s "
        "(event-driven placement, arrival-staggered fleet)",
    ]
    return table + "\n\n" + "\n".join(lines)


# --------------------------------------------------------------------------
# --journal lane: replica kill + replay over the journal-backed fleet
# --------------------------------------------------------------------------


def _output_fingerprint(record: WorkflowRecord) -> tuple:
    """Scheduling-independent view: what the workflow produced.

    Attempt counts and timings legitimately differ between a calm run
    and one whose replica was killed mid-flight; statuses and results
    must not.
    """
    return (
        record.name,
        record.phase.value,
        tuple((name, step.status.value) for name, step in sorted(record.steps.items())),
        tuple(sorted(record.results.items())),
    )


@dataclass
class JournalRun:
    """One journal-backed fleet run (possibly with replica kills)."""

    journal: Journal
    records: List[WorkflowRecord]
    makespan: float
    kills: List[Tuple[float, int]] = field(default_factory=list)

    @property
    def fingerprints(self) -> List[Fingerprint]:
        return [_record_fingerprint(record) for record in self.records]

    def digest(self) -> str:
        """Deterministic digest of the full run surface, for CI diffing."""
        blob = repr(
            (self.fingerprints, [r.to_json() for r in self.journal.records()])
        ).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


def _run_journal_once(
    seed: int, num_workflows: int, replicas: int, kills: bool
) -> JournalRun:
    """One fleet run; with ``kills``, hard-kill and replay two replicas."""
    clock = SimClock()
    cluster = Cluster.uniform("chaos", 4, cpu_per_node=8.0, memory_per_node=32 * GB)
    journal = Journal()
    fleet = ShardedOperatorFleet(
        clock, cluster, replicas=replicas, journal=journal, seed=seed
    )
    workflows = _fleet(num_workflows, seed)
    for workflow in workflows:
        fleet.submit(workflow)
    kill_log: List[Tuple[float, int]] = []
    if kills:
        # Two kill waves mid-run: nothing is journaled about the kill
        # itself — the replacement replica must discover the damage
        # (started-but-unsettled attempts) purely from the journal.
        for at, index in ((60.0, 0), (150.0, 1 % replicas)):
            clock.run(until=at)
            fleet.kill_replica(index)
            fleet.resume_replica(index)
            kill_log.append((at, index))
    fleet.run_to_completion()
    by_name = fleet.records_by_name()
    records = [
        by_name.get(workflow.name, WorkflowRecord(name=workflow.name))
        for workflow in workflows
    ]
    return JournalRun(
        journal=journal, records=records, makespan=clock.now, kills=kill_log
    )


def run_journal(
    seed: int = 0, num_workflows: int = 8, replicas: int = 3
) -> Dict[str, object]:
    """Storm the sharded journal-backed fleet; prove replay recovery.

    Five gates: every workflow completes despite two replica
    hard-kills; the whole scenario (records *and* journal bytes) is
    deterministic under replay; outputs match a calm journaled run; the
    journal replays cleanly — no quartile prefix leaves a step Running
    (:func:`~repro.engine.journal.prefix_violations`), and the
    full-stream replay equals each live record field for field; and
    every record counts each input read once
    (:func:`~repro.chaos.invariants.check_read_accounting`).
    """
    stormy = _run_journal_once(seed, num_workflows, replicas, kills=True)
    replay = _run_journal_once(seed, num_workflows, replicas, kills=True)
    calm = _run_journal_once(seed, num_workflows, replicas, kills=False)

    completed = sum(
        1 for record in stormy.records if record.phase == WorkflowPhase.SUCCEEDED
    )
    deterministic = stormy.digest() == replay.digest()
    calm_equivalent = sorted(
        _output_fingerprint(r) for r in stormy.records
    ) == sorted(_output_fingerprint(r) for r in calm.records)

    # Full-stream replay must reproduce each live record exactly, every
    # field and float included, and the journal must survive a
    # serialization round-trip.
    replay_mismatches: List[str] = []
    for record in stormy.records:
        replayed = stormy.journal.materialize(record.name)
        if replayed is not None and replayed != record:
            replay_mismatches.append(record.name)
    roundtrip_ok = all(
        JournalRecord.from_json(record.to_json()) == record
        for record in stormy.journal.records()
    )
    return {
        "completed": completed,
        "total": num_workflows,
        "replicas": replicas,
        "kills": stormy.kills,
        "deterministic": deterministic,
        "digest": stormy.digest(),
        "calm_equivalent": calm_equivalent,
        "prefix_violations": prefix_violations(stormy.journal),
        "replay_mismatches": replay_mismatches,
        "read_violations": check_read_accounting(
            stormy.records, _fleet(num_workflows, seed)
        ),
        "roundtrip_ok": roundtrip_ok,
        "journal_events": len(stormy.journal),
        "makespan_chaos": stormy.makespan,
        "makespan_calm": calm.makespan,
    }


def report_journal(results: Dict[str, object]) -> str:
    kills = ", ".join(
        f"replica {index} at {at:.0f}s" for at, index in results["kills"]
    )
    lines = [
        "Journal lane: replica hard-kills + replay over the sharded fleet",
        f"completed {results['completed']}/{results['total']} workflows on "
        f"{results['replicas']} replicas (kills: {kills or 'none'}; "
        f"makespan {results['makespan_chaos']:.0f}s vs "
        f"{results['makespan_calm']:.0f}s calm)",
        f"journal: {results['journal_events']} events, "
        f"serialization round-trip {'ok' if results['roundtrip_ok'] else 'BROKEN'}",
        f"deterministic replay digest: {results['digest']} "
        f"({'stable' if results['deterministic'] else 'UNSTABLE — REPLAY REGRESSED'})",
        "calm-run output equivalence: "
        + ("yes" if results["calm_equivalent"] else "NO — KILLS CHANGED OUTPUTS"),
        "prefix replay: "
        + (
            "every prefix materializes resumable records"
            if not results["prefix_violations"]
            else "; ".join(results["prefix_violations"])
        ),
        "full replay vs live records: "
        + (
            "identical"
            if not results["replay_mismatches"]
            else "MISMATCH on " + ", ".join(results["replay_mismatches"])
        ),
        "read accounting: "
        + (
            "each input read counted once per record"
            if not results["read_violations"]
            else "; ".join(results["read_violations"])
        ),
    ]
    return "\n".join(lines)


def journal_ok(results: Dict[str, object]) -> bool:
    return bool(
        results["completed"] == results["total"]
        and results["deterministic"]
        and results["calm_equivalent"]
        and results["roundtrip_ok"]
        and not results["prefix_violations"]
        and not results["replay_mismatches"]
        and not results["read_violations"]
    )


def main() -> None:
    print(report(run()))


if __name__ == "__main__":
    main()
