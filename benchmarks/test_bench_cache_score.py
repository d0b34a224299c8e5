"""Cache-score throughput benchmark: incremental vs from-scratch scoring.

Builds a layered multi-workflow index (default 1k and 10k artifacts,
override with ``BENCH_CACHE_SCORE_SIZES`` for CI smoke runs), then
replays a full production trace against a pressure-sized store under
the Couler policy: every step fetches its inputs, produces its output
and is marked done, so all three invalidation paths (graph change,
done-transition, cache-state flip) stay hot.

The run is repeated with the from-scratch scorer (full rescan per
eviction iteration — the pre-incremental behavior) and the memoized
incremental scorer (dirty-set invalidation + lazy min-heap).  Reported
per configuration:

* **admissions/s** — wall-clock admission throughput (context only;
  excluded from the compared payload);
* **score computes** — ``cache_score_computes_total``, the
  deterministic cost proxy the speedup gate is anchored on;
* **computes/eviction** — O(|store|) for the naive rescan, amortized
  O(log n) for the heap path.

Both scorers must produce byte-identical decision logs and resident
sets (the ``scores`` verify oracle proves this per-seed; the bench
asserts it at scale), and a same-seed replay must match exactly.  The
payload lands in ``benchmarks/results/BENCH_cache_score.json``.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import time

from bench_utils import run_once, save_payload

from repro.caching import CacheManager
from repro.engine.spec import ArtifactSpec, ExecutableStep, ExecutableWorkflow
from repro.k8s.resources import ResourceQuantity

MB = 2**20

SEED = 2024
SIZES = [
    int(size)
    for size in os.environ.get("BENCH_CACHE_SCORE_SIZES", "1000,10000").split(",")
]
STEPS_PER_WORKFLOW = 20
#: Resident-set target; capacity is sized so roughly this many
#: average-sized artifacts fit, keeping the store under pressure.
RESIDENT_TARGET = 96


def _build_workflows(num_artifacts: int, seed: int):
    """Layered workflows, one output artifact per step, cross-linked."""
    rng = random.Random(seed)
    workflows = []
    artifact_pool = []  # uids from earlier workflows, for cross edges
    num_workflows = (num_artifacts + STEPS_PER_WORKFLOW - 1) // STEPS_PER_WORKFLOW
    produced = 0
    for w in range(num_workflows):
        workflow = ExecutableWorkflow(name=f"wf-{w}")
        local_outputs = []
        for s in range(STEPS_PER_WORKFLOW):
            if produced >= num_artifacts:
                break
            uid = f"wf-{w}/a{s}"
            inputs = []
            deps = []
            if local_outputs:
                for dep_s, dep_uid in rng.sample(
                    local_outputs, k=min(len(local_outputs), rng.randint(1, 3))
                ):
                    deps.append(f"s{dep_s}")
                    inputs.append(ArtifactSpec(uid=dep_uid, size_bytes=0))
            if artifact_pool and rng.random() < 0.2:
                inputs.append(
                    ArtifactSpec(uid=rng.choice(artifact_pool), size_bytes=0)
                )
            output = ArtifactSpec(
                uid=uid, size_bytes=rng.randint(1, 64) * MB
            )
            workflow.add_step(
                ExecutableStep(
                    name=f"s{s}",
                    duration_s=10.0 + rng.random() * 120.0,
                    requests=ResourceQuantity(
                        cpu=rng.choice([1.0, 2.0, 4.0, 8.0])
                    ),
                    dependencies=deps,
                    inputs=inputs,
                    outputs=[output],
                )
            )
            local_outputs.append((s, uid))
            produced += 1
        workflows.append(workflow)
        artifact_pool.extend(uid for _, uid in local_outputs)
    return workflows


def _run(scorer_mode: str, num_artifacts: int, seed: int) -> dict:
    workflows = _build_workflows(num_artifacts, seed)
    capacity = RESIDENT_TARGET * 32 * MB  # avg artifact is ~32 MB
    manager = CacheManager(
        policy="couler",
        capacity_bytes=capacity,
        scorer=scorer_mode,
        record_decisions=True,
    )
    for workflow in workflows:
        manager.register_workflow(workflow)
    admissions = 0
    now = 0.0
    started = time.perf_counter()
    for workflow in workflows:
        for step in workflow.steps.values():
            now += 1.0
            for artifact in step.inputs:
                manager.fetch(
                    manager.index.artifacts.get(artifact.uid, artifact), now=now
                )
                admissions += 1
            for artifact in step.outputs:
                manager.on_artifact_produced(artifact, now=now)
                admissions += 1
            manager.on_step_finished(f"{workflow.name}/{step.name}")
    wall_s = time.perf_counter() - started

    stats = manager.store.stats
    computes = int(
        manager.metrics.counter("cache_score_computes_total").total()
    )
    memo_hits = int(
        manager.metrics.counter("cache_score_memo_hits_total").total()
    )
    decisions_digest = hashlib.sha256(
        repr(manager.decisions).encode()
    ).hexdigest()
    evictions = stats.evictions
    return {
        "scorer": scorer_mode,
        "artifacts": num_artifacts,
        "seed": seed,
        "capacity_bytes": capacity,
        "admissions": admissions,
        "insertions": stats.insertions,
        "evictions": evictions,
        "rejected": stats.rejected,
        "resident": len(manager.store),
        "score_computes": computes,
        "score_memo_hits": memo_hits,
        "computes_per_admission": computes / max(1, admissions),
        "computes_per_eviction": computes / max(1, evictions),
        "decisions_digest": decisions_digest,
        # Wall-clock numbers: context only, excluded from the compared
        # deterministic payload.
        "wall_s": wall_s,
        "admissions_per_sec": admissions / wall_s if wall_s else 0.0,
    }


_WALL_KEYS = ("wall_s", "admissions_per_sec")


def _deterministic(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in _WALL_KEYS}


def _run_all(seed: int) -> dict:
    return {
        f"{mode}@{size}": _run(mode, size, seed)
        for size in SIZES
        for mode in ("naive", "incremental")
    }


def test_cache_score_throughput(benchmark, results_dir, save_report):
    results = run_once(benchmark, _run_all, SEED)
    replay = _run_all(SEED)
    assert {k: _deterministic(v) for k, v in results.items()} == {
        k: _deterministic(v) for k, v in replay.items()
    }, "same-seed cache-score runs diverged"

    report_lines = ["cache score benchmark (Algorithm 2 admission loop)"]
    payload = {"seed": SEED, "sizes": SIZES, "results": results, "speedups": {}}
    for size in SIZES:
        naive = results[f"naive@{size}"]
        incr = results[f"incremental@{size}"]
        # Same decisions, insertion for insertion and eviction for
        # eviction — the incremental path changes cost, never behavior.
        assert incr["decisions_digest"] == naive["decisions_digest"], (
            f"incremental decisions diverged from naive at {size} artifacts"
        )
        compute_ratio = naive["score_computes"] / max(1, incr["score_computes"])
        wall_speedup = incr["admissions_per_sec"] / max(
            1e-9, naive["admissions_per_sec"]
        )
        payload["speedups"][str(size)] = {
            "score_compute_ratio": compute_ratio,
            "admissions_per_sec_speedup": wall_speedup,
        }
        # The naive rescan rescores every resident entry per eviction
        # iteration; the heap path only the dirty neighborhood.
        if naive["evictions"]:
            assert naive["computes_per_eviction"] >= 0.5 * RESIDENT_TARGET
            assert incr["computes_per_eviction"] <= max(
                8 * math.log2(max(2, naive["resident"])), 48.0
            )
        report_lines.append(
            f"  {size} artifacts: naive {naive['admissions_per_sec']:.0f} adm/s "
            f"({naive['score_computes']} computes, "
            f"{naive['computes_per_eviction']:.1f}/eviction) | "
            f"incremental {incr['admissions_per_sec']:.0f} adm/s "
            f"({incr['score_computes']} computes, "
            f"{incr['computes_per_eviction']:.1f}/eviction) | "
            f"compute ratio {compute_ratio:.1f}x, wall {wall_speedup:.1f}x"
        )

    # Acceptance gate at the largest index: >= 5x admission throughput.
    top = str(max(SIZES))
    assert payload["speedups"][top]["score_compute_ratio"] >= 5.0
    if max(SIZES) >= 10_000:
        assert payload["speedups"][top]["admissions_per_sec_speedup"] >= 5.0

    report_lines.append(save_payload(results_dir, "cache_score", payload))
    save_report("bench_cache_score", "\n".join(report_lines))
    # One line for CI's determinism gate (.github/scripts/twice.sh).
    print(
        "cache-score decision digests: "
        + " ".join(f"{key}={results[key]['decisions_digest']}" for key in sorted(results))
    )
