"""Dispatch-throughput benchmark for the event-driven admission pipeline.

Drives an open-loop Poisson fleet (default 500 workflows, override with
``BENCH_DISPATCH_WORKFLOWS`` for CI smoke runs) from four tenants across
a three-cluster fleet, once per fairness configuration:

* ``strict-priority`` — the legacy scheduler: static per-tenant quota
  caps, aged-priority ordering.  This is the seed behaviour and the
  starvation baseline (the batch tenant's worst wait was ~1957 s).
* ``weighted-fair`` (primary) — static caps replaced by work-conserving
  weighted shares (quota ratios become fairness weights), CPU filler
  kept off the GPU cluster (``protect_gpu``).
* ``drf`` — the same, ordered by dominant-resource share.
* ``drf+slo+preempt`` — DRF plus the serving tenant in the ``serving``
  SLO lane with checkpoint preemption enabled.

Reported per configuration: p50/p99 queue latency, per-tenant p99 and
starvation-gap columns (pending-inclusive), scheduler event counts and
preemptions.  The primary configuration is replayed under the same seed
and must match exactly, and the result lands in
``benchmarks/results/BENCH_dispatch.json``.

A committed baseline file (``BENCH_dispatch_baselines.json``) gates the
primary p99 and starvation gap ratchet-style: a run that regresses
against the baseline fails, mirroring the determinism-digest gates.
"""

from __future__ import annotations

import os
import random
import time

from bench_utils import ratchet, run_once, save_payload

from repro.engine.admission import AdmissionPipeline
from repro.engine.fairness import SLO_BATCH, SLO_SERVING
from repro.engine.queue import UserQuota
from repro.engine.spec import ExecutableStep, ExecutableWorkflow
from repro.engine.status import WorkflowPhase
from repro.k8s.cluster import Cluster
from repro.k8s.resources import ResourceQuantity
from repro.workloads.arrivals import PoissonArrivalProcess

GB = 2**30

NUM_WORKFLOWS = int(os.environ.get("BENCH_DISPATCH_WORKFLOWS", "500"))
SEED = 2024
#: Mean arrival gap of 8 virtual seconds keeps the fleet contended
#: (several workflows in flight per cluster) without unbounded backlog.
ARRIVAL_RATE_PER_S = 0.125

#: (name, priority, cpu quota) — tenant "batch" is the starvation test
#: case: lowest priority, must still be served within the gap bound.
TENANTS = [
    ("research", 8, 96.0),
    ("serving", 6, 96.0),
    ("etl", 3, 64.0),
    ("batch", 1, 48.0),
]

#: The acceptance bound on the primary config's batch-tenant gap at the
#: full 500-workflow load: >=10x below the strict-priority seed's 1957 s.
BATCH_GAP_BOUND_S = 196.0


def _clusters():
    return [
        Cluster.uniform("gpu", 2, cpu_per_node=32.0, memory_per_node=128 * GB, gpu_per_node=4),
        Cluster.uniform("cpu-a", 4, cpu_per_node=32.0, memory_per_node=128 * GB),
        Cluster.uniform("cpu-b", 4, cpu_per_node=32.0, memory_per_node=128 * GB),
    ]


def _fleet(count: int, seed: int):
    """Seeded two-step pipelines: mixed sizes, ~10% GPU work."""
    rng = random.Random(seed)
    fleet = []
    for index in range(count):
        tenant, priority, _ = TENANTS[index % len(TENANTS)]
        gpu = 1 if rng.random() < 0.1 else 0
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
        fleet.append((workflow, tenant, priority))
    return fleet


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


#: name -> (fairness policy, share-based entitlement, slo lanes, preemption)
CONFIGS = {
    "strict-priority": ("strict-priority", False, False, False),
    "weighted-fair": ("weighted-fair", True, False, False),
    "drf": ("drf", True, False, False),
    "drf+slo+preempt": ("drf", True, True, True),
}
PRIMARY = "weighted-fair"


def _run(seed: int, config: str) -> dict:
    fairness, share_based, slo, preemption = CONFIGS[config]
    if share_based:
        # Work-conserving entitlement: the static cpu caps become
        # fairness *weights* and quotas open to the full fleet, so an
        # under-share tenant is ordered first instead of hard-blocked
        # while clusters sit idle (the DRF argument against caps).
        quotas = {
            name: UserQuota(
                user=name, cpu_limit=320.0, memory_limit=2048 * GB, gpu_limit=16
            )
            for name, _, _ in TENANTS
        }
        weights = {name: limit / 48.0 for name, _, limit in TENANTS}
    else:
        quotas = {
            name: UserQuota(
                user=name, cpu_limit=limit, memory_limit=512 * GB, gpu_limit=8
            )
            for name, _, limit in TENANTS
        }
        weights = None
    pipeline = AdmissionPipeline(
        _clusters(),
        quotas=quotas,
        seed=seed,
        aging_rate=0.02,
        max_pending=4 * NUM_WORKFLOWS,
        fairness=fairness,
        tenant_weights=weights,
        preemption=preemption,
        protect_gpu=share_based,
    )
    arrivals = PoissonArrivalProcess(rate_per_s=ARRIVAL_RATE_PER_S, seed=seed).times(
        NUM_WORKFLOWS
    )
    fleet = _fleet(NUM_WORKFLOWS, seed)
    for at, (workflow, tenant, priority) in zip(arrivals, fleet):
        lane = SLO_SERVING if (slo and tenant == "serving") else SLO_BATCH
        pipeline.submit_at(at, workflow, user=tenant, priority=priority, slo_class=lane)
    makespan = pipeline.run()

    latencies = pipeline.queue_latencies()
    completed = sum(
        1
        for record in pipeline.completed_records()
        if record.phase == WorkflowPhase.SUCCEEDED
    )
    events = {
        dict(labels)["event"]: value
        for labels, value in pipeline.metrics.counter(
            "admission_events_total"
        ).series().items()
    }
    per_tenant = pipeline.tenant_queue_latencies()
    return {
        "config": config,
        "workflows": NUM_WORKFLOWS,
        "seed": seed,
        "completed": completed,
        "rejected": len(pipeline.rejected()),
        "makespan_s": makespan,
        "workflows_per_sec": completed / makespan if makespan else 0.0,
        "queue_latency_p50_s": _percentile(latencies, 0.50),
        "queue_latency_p99_s": _percentile(latencies, 0.99),
        "queue_latency_p99_by_tenant_s": {
            tenant: _percentile(per_tenant.get(tenant, []), 0.99)
            for tenant, _, _ in TENANTS
        },
        "starvation_gap_s": pipeline.starvation_gap(),
        "starvation_gap_by_tenant_s": {
            tenant: pipeline.tenant_starvation_gaps().get(tenant, 0.0)
            for tenant, _, _ in TENANTS
        },
        "preemptions": int(events.get("preemption", 0)),
        "scheduler_events": {name: int(value) for name, value in sorted(events.items())},
    }


def _run_all(seed: int) -> dict:
    """Primary payload (top-level keys) plus the policy comparison."""
    policies = {config: _run(seed, config) for config in CONFIGS}
    payload = dict(policies[PRIMARY])
    payload["policies"] = policies
    return payload


def _ratchet_bounds(payload: dict, entry: dict):
    """The primary config's tail against the committed baselines.

    Virtual-time metrics are deterministic, so the tolerance only
    absorbs representation noise, not real regressions.
    """
    current = {
        "queue_latency_p99_s": payload["queue_latency_p99_s"],
        "starvation_gap_s": payload["starvation_gap_s"],
        "batch_starvation_gap_s": payload["starvation_gap_by_tenant_s"]["batch"],
    }
    for key, value in current.items():
        yield key, value, entry[key], entry[key] * 1.001 + 0.5, "lower"


def test_dispatch_throughput(benchmark, results_dir, save_report):
    started = time.perf_counter()
    payload = run_once(benchmark, _run_all, SEED)
    wall_s = time.perf_counter() - started
    replay = _run_all(SEED)

    # Determinism is an acceptance criterion: every compared field is
    # virtual-time-derived, so a same-seed replay must match exactly.
    assert payload == replay, "same-seed dispatch runs diverged"

    for config, result in payload["policies"].items():
        assert result["completed"] + result["rejected"] == NUM_WORKFLOWS, config
        assert result["completed"] >= 0.95 * NUM_WORKFLOWS, config
        assert result["workflows_per_sec"] > 0, config
        assert result["queue_latency_p50_s"] <= result["queue_latency_p99_s"], config
        assert (
            result["queue_latency_p99_s"] <= result["starvation_gap_s"] + 1e-9
        ), config
        events = result["scheduler_events"]
        # Preempted workflows place once per eviction plus the final run.
        assert events["placement"] == result["completed"] + result["preemptions"], config
        assert events["completion"] == result["completed"], config
        assert events["arrival"] == NUM_WORKFLOWS, config

    strict = payload["policies"]["strict-priority"]
    primary = payload["policies"][PRIMARY]
    assert primary["starvation_gap_by_tenant_s"]["batch"] <= (
        strict["starvation_gap_by_tenant_s"]["batch"]
    ), "fair scheduling must not worsen the batch tenant's worst wait"
    if NUM_WORKFLOWS >= 500:
        # The tentpole acceptance bound: >=10x below the seed's 1957 s.
        assert primary["starvation_gap_by_tenant_s"]["batch"] <= BATCH_GAP_BOUND_S
    preempting = payload["policies"]["drf+slo+preempt"]
    if NUM_WORKFLOWS >= 500:
        assert preempting["preemptions"] > 0, "preemption config never preempted"

    ratchet_note = ratchet(
        results_dir,
        "dispatch",
        [NUM_WORKFLOWS],
        lambda _count, entry: _ratchet_bounds(payload, entry),
    )

    saved = save_payload(results_dir, "dispatch", payload)
    lines = [
        "dispatch throughput benchmark (event-driven admission pipeline)",
        f"  primary config: {PRIMARY} · {payload['completed']}/{NUM_WORKFLOWS} "
        f"completed, {payload['rejected']} shed",
        f"  virtual makespan: {payload['makespan_s']:.0f}s  "
        f"throughput: {payload['workflows_per_sec']:.3f} wf/s (virtual)",
        "  config               p50      p99      batch-gap  preempts",
    ]
    for config, result in payload["policies"].items():
        lines.append(
            f"  {config:<20} {result['queue_latency_p50_s']:>7.1f}s "
            f"{result['queue_latency_p99_s']:>7.1f}s "
            f"{result['starvation_gap_by_tenant_s']['batch']:>9.1f}s "
            f"{result['preemptions']:>8d}"
        )
    lines.append(f"  {ratchet_note}")
    lines.append(
        f"  harness wall time: {wall_s:.2f}s (not part of the compared payload)"
    )
    lines.append(saved)
    save_report("bench_dispatch_throughput", "\n".join(lines))
