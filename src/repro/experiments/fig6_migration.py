"""Fig. 6 — fleet-wide effect of migrating workflows onto Couler.

The paper tracks twelve months during which ~90% of the cluster's
workflows moved to Couler, lifting CPU utilization (CUR) by ~18%,
memory utilization (MUR) by ~17% and the workflow completion rate (WCR)
for both 50− and 50+ core workflows.

The reproduction grounds each mode's efficiency in actual simulations:

- *utilization gain* comes from running the caching scenarios with and
  without Couler's optimizations (same compute, less wall-clock);
- *completion-rate gain* comes from failure-injected fleets executed
  with and without Couler's retry + restart-from-failure handling;
- *preemption migration* folds the checkpoint-evict/restore path in:
  batch workflows checkpoint-evicted by serving bursts must still reach
  completion after restore, and the admission cooldown keeps re-eviction
  churn below the uncooled baseline;

then composes a monthly adoption ramp over the measured endpoints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from ..engine.admission import AdmissionPipeline
from ..engine.operator import WorkflowOperator
from ..engine.retry import RetryPolicy
from ..engine.simclock import SimClock
from ..engine.spec import ExecutableStep, ExecutableWorkflow, FailureProfile
from ..engine.status import WorkflowPhase
from ..k8s.cluster import Cluster
from ..k8s.resources import ResourceQuantity
from .caching_runner import run_scenario
from .reporting import format_table

GB = 2**30


def _random_workflow(
    name: str, steps: int, cores_per_step: float, failure_rate: float, rng: random.Random
) -> ExecutableWorkflow:
    """A layered random DAG with per-step failure injection."""
    workflow = ExecutableWorkflow(name=name)
    layer_size = max(2, steps // 5)
    previous_layer: List[str] = []
    index = 0
    while index < steps:
        layer = []
        for _ in range(min(layer_size, steps - index)):
            step_name = f"s{index}"
            deps = (
                rng.sample(previous_layer, min(2, len(previous_layer)))
                if previous_layer
                else []
            )
            workflow.add_step(
                ExecutableStep(
                    name=step_name,
                    duration_s=60 + rng.random() * 120,
                    requests=ResourceQuantity(cpu=cores_per_step, memory=2 * GB),
                    dependencies=deps,
                    failure=FailureProfile(rate=failure_rate),
                )
            )
            layer.append(step_name)
            index += 1
        previous_layer = layer
    return workflow


def completion_rate(
    with_couler: bool,
    num_workflows: int = 30,
    steps: int = 12,
    cores_per_step: float = 4.0,
    failure_rate: float = 0.02,
    seed: int = 0,
) -> float:
    """Fraction of failure-injected workflows that complete.

    ``with_couler=False`` models the legacy controller: no retries, a
    failed step fails the workflow.  ``with_couler=True`` enables the
    backoff-retry policy plus one restart-from-failure attempt, the two
    mechanisms Appendix B.B credits for the WCR gain.
    """
    rng = random.Random(seed)
    clock = SimClock()
    cluster = Cluster.uniform("wcr", 16, cpu_per_node=64, memory_per_node=256 * GB)
    retry = RetryPolicy(limit=3) if with_couler else RetryPolicy(limit=0)
    operator = WorkflowOperator(clock, cluster, retry_policy=retry, seed=seed)
    records = {}
    workflows = {}
    for index in range(num_workflows):
        workflow = _random_workflow(
            f"wf-{index}", steps, cores_per_step, failure_rate, rng
        )
        workflows[workflow.name] = workflow
        records[workflow.name] = operator.submit(workflow)
    operator.run_to_completion()

    if with_couler:
        # Manual restart-from-failure: completed steps are skipped.
        for name, record in list(records.items()):
            if record.phase == WorkflowPhase.FAILED:
                records[name] = operator.submit(
                    workflows[name], record=record
                )
        operator.run_to_completion()

    completed = sum(
        1 for r in records.values() if r.phase == WorkflowPhase.SUCCEEDED
    )
    return completed / num_workflows


def preempted_completion(
    cooldown: float = 60.0,
    seed: int = 0,
) -> Dict[str, float]:
    """Checkpoint migration over the preemption path.

    A contended cluster runs a long batch workflow that serving bursts
    checkpoint-evict; the migration story only holds if the evicted
    workflow completes after restore.  Bursts land 20 virtual seconds
    after each restore, so ``cooldown=0`` reproduces the eviction-thrash
    churn the admission cooldown fixes — callers can compare eviction
    counts with and without the window.
    """
    cluster = Cluster.uniform(
        "fig6-preempt", 1, cpu_per_node=8.0, memory_per_node=32 * GB
    )
    pipeline = AdmissionPipeline(
        [cluster],
        seed=seed,
        fairness="drf",
        preemption=True,
        max_preemptions=4,
        preempt_cooldown=cooldown,
    )
    workflow = ExecutableWorkflow(name="batch-victim")
    previous = None
    for part in range(4):
        workflow.add_step(
            ExecutableStep(
                name=f"s{part}",
                duration_s=100.0,
                requests=ResourceQuantity(cpu=2.0, memory=2 * GB),
                dependencies=[previous] if previous else [],
            )
        )
        previous = f"s{part}"
    victim = pipeline.submit_at(0.0, workflow, user="batch", slo_class="batch")
    for at in (50.0, 90.0, 130.0):
        burst = ExecutableWorkflow(name=f"serve-{at:.0f}")
        burst.add_step(
            ExecutableStep(
                name="req",
                duration_s=20.0,
                requests=ResourceQuantity(cpu=8.0, memory=2 * GB),
            )
        )
        pipeline.submit_at(at, burst, user="frontend", slo_class="serving")
    pipeline.run()

    evicted = [victim] if victim.preemptions > 0 else []
    completed = sum(
        1
        for member in evicted
        if member.record is not None
        and member.record.phase == WorkflowPhase.SUCCEEDED
    )
    return {
        "evicted": float(len(evicted)),
        "evictions": float(victim.preemptions),
        "completion_rate": completed / len(evicted) if evicted else 1.0,
    }


@dataclass
class MigrationPoint:
    month: int
    adoption: float
    cur: float
    mur: float
    wcr_small: float
    wcr_big: float


def run(seed: int = 0, iterations: int = 2) -> Dict[str, object]:
    """Measure endpoints, then compose the 12-month adoption ramp."""
    legacy = run_scenario("multimodal", "no", cache_gb=0, iterations=iterations, seed=seed)
    couler = run_scenario(
        "multimodal", "couler", cache_gb=30.0, iterations=iterations, seed=seed
    )
    wcr_small_legacy = completion_rate(False, steps=10, cores_per_step=3.0, seed=seed)
    wcr_small_couler = completion_rate(True, steps=10, cores_per_step=3.0, seed=seed)
    wcr_big_legacy = completion_rate(
        False, steps=40, cores_per_step=8.0, failure_rate=0.025, seed=seed + 1
    )
    wcr_big_couler = completion_rate(
        True, steps=40, cores_per_step=8.0, failure_rate=0.025, seed=seed + 1
    )

    points: List[MigrationPoint] = []
    for month in range(13):
        adoption = min(0.9, 0.09 * month)
        blend = lambda a, b: a * (1 - adoption) + b * adoption  # noqa: E731
        points.append(
            MigrationPoint(
                month=month,
                adoption=adoption,
                cur=blend(legacy.effective_cpu_util, couler.effective_cpu_util),
                mur=blend(legacy.effective_mem_util, couler.effective_mem_util),
                wcr_small=blend(wcr_small_legacy, wcr_small_couler),
                wcr_big=blend(wcr_big_legacy, wcr_big_couler),
            )
        )

    preempt = preempted_completion(seed=seed)
    thrash = preempted_completion(cooldown=0.0, seed=seed)

    first, last = points[0], points[-1]
    return {
        "points": points,
        "cur_improvement_pct": 100.0 * (last.cur - first.cur) / first.cur,
        "mur_improvement_pct": 100.0 * (last.mur - first.mur) / first.mur,
        "wcr_small_improvement_pct": 100.0 * (last.wcr_small - first.wcr_small),
        "wcr_big_improvement_pct": 100.0 * (last.wcr_big - first.wcr_big),
        "preempted_wcr": preempt["completion_rate"],
        "preempted_workflows": preempt["evicted"],
        "preemption_evictions": preempt["evictions"],
        "preemption_evictions_no_cooldown": thrash["evictions"],
    }


def report(results: Dict[str, object]) -> str:
    rows = [
        (p.month, f"{p.adoption:.0%}", p.cur, p.mur, p.wcr_small, p.wcr_big)
        for p in results["points"]
    ]
    table = format_table(
        ["month", "on Couler", "CUR", "MUR", "WCR (50- cores)", "WCR (50+ cores)"],
        rows,
        title="Fig 6: migration to Couler over 12 months",
    )
    summary = (
        f"CUR improvement: {results['cur_improvement_pct']:.1f}% (paper ~18%)\n"
        f"MUR improvement: {results['mur_improvement_pct']:.1f}% (paper ~17%)\n"
        f"WCR gain 50-: {results['wcr_small_improvement_pct']:.1f} pts; "
        f"WCR gain 50+: {results['wcr_big_improvement_pct']:.1f} pts\n"
        f"Preempted WCR: {results['preempted_wcr']:.0%} over "
        f"{results['preempted_workflows']:.0f} evicted workflows "
        f"({results['preemption_evictions']:.0f} evictions with cooldown, "
        f"{results['preemption_evictions_no_cooldown']:.0f} without)"
    )
    return table + "\n\n" + summary


def main() -> None:
    print(report(run()))


if __name__ == "__main__":
    main()
