"""Production-scale fairness benchmark: 50k workflows across 100 tenants.

The throughput bench (``test_bench_dispatch_throughput.py``) compares
fairness policies at a contended-but-small 500-workflow load.  This one
answers the production question from the paper's evaluation: does the
weighted-fair scheduler keep *per-tenant* tail latency and starvation
bounded when the tenant population is two orders of magnitude larger
than the policy's test fixtures?

Shape:

* 100 tenants (``t00``..``t99``) with seeded priorities and fairness
  weights; every fifth tenant runs in the ``serving`` SLO lane, the
  rest are ``batch``.
* ~50k two-step workflows (override with
  ``BENCH_DISPATCH_SCALE_WORKFLOWS`` — CI smoke uses a small count),
  Poisson arrivals sized for ~80% fleet utilisation.
* A ten-cluster fleet: two GPU clusters and eight CPU clusters
  (2304 CPUs, 32 GPUs total), ``protect_gpu`` keeping CPU filler off
  the GPU clusters.

The payload records per-tenant p99 queue latency and pending-inclusive
starvation gaps (all 100 columns), plus lane-level aggregates, and the
run is replayed under the same seed to assert determinism.  Results
land in ``benchmarks/results/BENCH_dispatch_scale.json``.
"""

from __future__ import annotations

import os
import random
import time

from bench_utils import run_once, save_payload

from repro.engine.admission import AdmissionPipeline
from repro.engine.fairness import SLO_BATCH, SLO_SERVING
from repro.engine.queue import UserQuota
from repro.engine.spec import ExecutableStep, ExecutableWorkflow
from repro.engine.status import WorkflowPhase
from repro.k8s.cluster import Cluster
from repro.k8s.resources import ResourceQuantity
from repro.workloads.arrivals import PoissonArrivalProcess

GB = 2**30

NUM_WORKFLOWS = int(os.environ.get("BENCH_DISPATCH_SCALE_WORKFLOWS", "50000"))
NUM_TENANTS = 100
SEED = 7321
#: ~1.1 arrivals/s against ~2300 CPUs of capacity and ~1900 reserved
#: cpu-seconds per workflow keeps the fleet around 90% utilised —
#: contended enough for real queueing tails, stable enough to drain.
ARRIVAL_RATE_PER_S = 1.1


def _tenants(seed: int):
    """100 tenants with seeded priorities, weights, and SLO lanes."""
    rng = random.Random(seed)
    tenants = []
    for index in range(NUM_TENANTS):
        name = f"t{index:02d}"
        lane = SLO_SERVING if index % 5 == 0 else SLO_BATCH
        tenants.append(
            {
                "name": name,
                "priority": rng.randrange(10),
                "weight": rng.choice([0.5, 1.0, 2.0, 4.0]),
                "slo_class": lane,
            }
        )
    return tenants


def _clusters():
    fleet = [
        Cluster.uniform(
            f"gpu-{i}", 4, cpu_per_node=32.0, memory_per_node=128 * GB, gpu_per_node=4
        )
        for i in range(2)
    ]
    fleet += [
        Cluster.uniform(f"cpu-{i}", 8, cpu_per_node=32.0, memory_per_node=128 * GB)
        for i in range(8)
    ]
    return fleet


def _fleet(count: int, seed: int, tenants):
    rng = random.Random(seed)
    fleet = []
    for index in range(count):
        tenant = tenants[index % NUM_TENANTS]
        gpu = 1 if rng.random() < 0.08 else 0
        cpu = rng.choice([2.0, 4.0, 8.0, 16.0])
        workflow = ExecutableWorkflow(name=f"wf-{index}")
        workflow.add_step(
            ExecutableStep(
                name="prep",
                duration_s=20 + rng.random() * 40,
                requests=ResourceQuantity(cpu=cpu / 2, memory=2 * GB),
            )
        )
        workflow.add_step(
            ExecutableStep(
                name="main",
                duration_s=60 + rng.random() * 120,
                requests=ResourceQuantity(cpu=cpu, memory=4 * GB, gpu=gpu),
                dependencies=["prep"],
            )
        )
        fleet.append((workflow, tenant))
    return fleet


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _run(seed: int) -> dict:
    tenants = _tenants(seed)
    quotas = {
        t["name"]: UserQuota(
            user=t["name"], cpu_limit=2304.0, memory_limit=8192 * GB, gpu_limit=32
        )
        for t in tenants
    }
    weights = {t["name"]: t["weight"] for t in tenants}
    pipeline = AdmissionPipeline(
        _clusters(),
        quotas=quotas,
        seed=seed,
        aging_rate=0.02,
        max_pending=4 * NUM_WORKFLOWS,
        fairness="weighted-fair",
        tenant_weights=weights,
        protect_gpu=True,
    )
    arrivals = PoissonArrivalProcess(rate_per_s=ARRIVAL_RATE_PER_S, seed=seed).times(
        NUM_WORKFLOWS
    )
    for at, (workflow, tenant) in zip(arrivals, _fleet(NUM_WORKFLOWS, seed, tenants)):
        pipeline.submit_at(
            at,
            workflow,
            user=tenant["name"],
            priority=tenant["priority"],
            slo_class=tenant["slo_class"],
        )
    makespan = pipeline.run()

    latencies = pipeline.queue_latencies()
    completed = sum(
        1
        for record in pipeline.completed_records()
        if record.phase == WorkflowPhase.SUCCEEDED
    )
    per_tenant = pipeline.tenant_queue_latencies()
    gaps = pipeline.tenant_starvation_gaps()
    lane_of = {t["name"]: t["slo_class"] for t in tenants}
    lane_latencies = {SLO_SERVING: [], SLO_BATCH: []}
    for tenant, values in per_tenant.items():
        lane_latencies[lane_of[tenant]].extend(values)
    tenant_columns = {
        t["name"]: {
            "slo_class": t["slo_class"],
            "weight": t["weight"],
            "priority": t["priority"],
            "queue_latency_p99_s": round(
                _percentile(per_tenant.get(t["name"], []), 0.99), 3
            ),
            "starvation_gap_s": round(gaps.get(t["name"], 0.0), 3),
        }
        for t in tenants
    }
    return {
        "workflows": NUM_WORKFLOWS,
        "tenants": NUM_TENANTS,
        "seed": seed,
        "completed": completed,
        "rejected": len(pipeline.rejected()),
        "makespan_s": makespan,
        "workflows_per_sec": completed / makespan if makespan else 0.0,
        "queue_latency_p50_s": _percentile(latencies, 0.50),
        "queue_latency_p99_s": _percentile(latencies, 0.99),
        "queue_latency_p99_by_lane_s": {
            lane: round(_percentile(values, 0.99), 3)
            for lane, values in lane_latencies.items()
        },
        "starvation_gap_s": pipeline.starvation_gap(),
        "worst_tenant_gap_s": max(gaps.values()) if gaps else 0.0,
        "per_tenant": tenant_columns,
    }


def test_dispatch_scale(benchmark, results_dir, save_report):
    started = time.perf_counter()
    payload = run_once(benchmark, _run, SEED)
    wall_s = time.perf_counter() - started
    replay = _run(SEED)
    assert payload == replay, "same-seed scale runs diverged"

    assert payload["completed"] + payload["rejected"] == NUM_WORKFLOWS
    assert payload["completed"] >= 0.95 * NUM_WORKFLOWS
    assert len(payload["per_tenant"]) == NUM_TENANTS
    # Every tenant got served: pending-inclusive gaps mean an ignored
    # tenant would show a gap on the order of the whole makespan.
    assert payload["worst_tenant_gap_s"] < 0.25 * payload["makespan_s"]
    # The serving lane exists to shield latency-sensitive tenants from
    # the batch backlog; at minimum it must not be the slower lane.
    if NUM_WORKFLOWS >= 5000:
        lanes = payload["queue_latency_p99_by_lane_s"]
        assert lanes[SLO_SERVING] <= lanes[SLO_BATCH] + 1e-9

    saved = save_payload(results_dir, "dispatch_scale", payload)

    worst = sorted(
        payload["per_tenant"].items(),
        key=lambda kv: kv[1]["starvation_gap_s"],
        reverse=True,
    )
    lines = [
        "dispatch scale benchmark (100 tenants, weighted-fair + SLO lanes)",
        f"  {payload['completed']}/{NUM_WORKFLOWS} completed, "
        f"{payload['rejected']} shed, makespan {payload['makespan_s']:.0f}s "
        f"(virtual), {payload['workflows_per_sec']:.3f} wf/s",
        f"  fleet p50 {payload['queue_latency_p50_s']:.1f}s  "
        f"p99 {payload['queue_latency_p99_s']:.1f}s  "
        f"worst-tenant gap {payload['worst_tenant_gap_s']:.1f}s",
        f"  lane p99: serving "
        f"{payload['queue_latency_p99_by_lane_s'][SLO_SERVING]:.1f}s · batch "
        f"{payload['queue_latency_p99_by_lane_s'][SLO_BATCH]:.1f}s",
        "  worst five tenants (gap / p99 / lane / weight):",
    ]
    for name, row in worst[:5]:
        lines.append(
            f"    {name}: {row['starvation_gap_s']:>8.1f}s "
            f"{row['queue_latency_p99_s']:>8.1f}s  {row['slo_class']:<7} "
            f"w={row['weight']}"
        )
    lines.append(
        f"  harness wall time: {wall_s:.2f}s (not part of the compared payload)"
    )
    lines.append(saved)
    save_report("bench_dispatch_scale", "\n".join(lines))
