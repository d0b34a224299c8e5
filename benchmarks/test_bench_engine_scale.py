"""Engine hot-path scale benchmark: flat per-workflow cost at 100×.

The fairness scale bench (``test_bench_dispatch_scale.py``) asks
whether the *policies* hold up at production tenant counts.  This one
asks the hot-path question behind the EngineConfig v1 speed program:
does per-workflow engine cost stay **flat** as the fleet grows from 1k
to 100k workflows?  Before the program, several paths were superlinear
(full event-list scans in SimClock, whole-waitq rescans per completion,
every-pending-every-pass admission retries, per-read capacity
recomputation); each is now an incremental index, and this benchmark is
the regression gate.

Shape (from :mod:`repro.workloads.fleetgen`):

* sizes from ``BENCH_ENGINE_SCALE_SIZES`` (default ``1000,10000,100000``
  — CI uses a reduced sweep),
* a fixed 6-cluster/24-node fleet with arrivals at one workflow per
  0.25 virtual seconds, so steady-state backlog — and hence *expected*
  per-workflow cost — is size-independent by construction,
* the default fast engine for every size, plus a naive
  (``EngineConfig(engine="naive")``) contrast run at the smallest size
  (recorded for the report; the fast-path win concentrates under
  backlog, so no ratio is asserted here — the ``engine_fast`` oracle
  owns equivalence, this bench owns flatness).

Asserts:

* **flatness** — per-workflow wall cost at the largest size is within
  ``FLATNESS_BUDGET`` (1.5×) of the smallest size's cost,
* **determinism** — the smallest size reruns to an identical admission
  digest (virtual-time placements, deferral counts, cluster choices),
* **ratchet** — per-workflow cost may beat the committed baselines in
  ``BENCH_engine_scale_baselines.json`` but not regress past them
  (generous 2.5× tolerance: these are wall-clock numbers on shared CI
  runners).

The payload lands in ``benchmarks/results/BENCH_engine_scale.json``.
"""

from __future__ import annotations

import os
import time

from bench_utils import placement_digest, ratchet, save_payload

from repro.control.policy import PolicyConfig
from repro.engine.config import EngineConfig
from repro.engine.status import WorkflowPhase
from repro.workloads.fleetgen import build_fleet, build_pipeline, submit_fleet

SEED = 20240607
SIZES = sorted(
    int(token)
    for token in os.environ.get(
        "BENCH_ENGINE_SCALE_SIZES", "1000,10000,100000"
    ).split(",")
    if token.strip()
)
#: Largest-size per-workflow cost must stay within this factor of the
#: smallest size's (the ISSUE acceptance criterion).
FLATNESS_BUDGET = 1.5
#: Ratchet tolerance against the committed per-size baselines.
RATCHET_TOLERANCE = 2.5

FAST_CONFIG = EngineConfig(
    fairness="weighted-fair", policy=PolicyConfig(aging_rate=0.01)
)
NAIVE_CONFIG = EngineConfig(
    engine="naive", fairness="weighted-fair", policy=PolicyConfig(aging_rate=0.01)
)


def _run(num_workflows: int, config: EngineConfig) -> dict:
    spec = build_fleet(num_workflows, seed=SEED)
    pipeline = build_pipeline(spec, config)
    started = time.perf_counter()
    records = submit_fleet(pipeline, spec)
    makespan = pipeline.run()
    wall_s = time.perf_counter() - started
    placed = sum(
        1
        for record in records
        if record.record is not None
        and record.record.phase == WorkflowPhase.SUCCEEDED
    )
    return {
        "workflows": num_workflows,
        "engine": config.engine,
        "wall_s": round(wall_s, 3),
        "per_workflow_ms": round(1000.0 * wall_s / num_workflows, 4),
        "makespan_s": round(makespan, 3),
        "placed": placed,
        "rejected": sum(1 for record in records if record.admitted is False),
        "digest": placement_digest(records),
    }


def _ratchet_bounds(row: dict, entry: dict):
    base = entry["per_workflow_ms"]
    yield "per_workflow_ms", row["per_workflow_ms"], base, base * RATCHET_TOLERANCE, "lower"


def test_engine_scale(results_dir, save_report):
    rows = {}
    for size in SIZES:
        rows[size] = _run(size, FAST_CONFIG)

    smallest, largest = SIZES[0], SIZES[-1]

    # Determinism: the same seed at the same size must replay to the
    # same virtual-time placement schedule, bit for bit.
    rerun = _run(smallest, FAST_CONFIG)
    assert rerun["digest"] == rows[smallest]["digest"], (
        "same-seed engine runs diverged"
    )
    assert rerun["makespan_s"] == rows[smallest]["makespan_s"]

    # Naive contrast (recorded, not gated — equivalence is the
    # engine_fast oracle's job, and the fast-path win concentrates
    # under backlog rather than in this bounded-backlog scenario).
    naive = _run(smallest, NAIVE_CONFIG)
    assert naive["digest"] == rows[smallest]["digest"], (
        "naive engine produced a different placement schedule than fast"
    )

    # Flatness: per-workflow engine cost at the largest size within
    # FLATNESS_BUDGET of the smallest.  This is the acceptance line —
    # any superlinear path shows up as a blown ratio at 10–100×.
    ratio = (
        rows[largest]["per_workflow_ms"] / rows[smallest]["per_workflow_ms"]
        if rows[smallest]["per_workflow_ms"]
        else 1.0
    )
    if largest >= 10 * smallest:
        assert ratio <= FLATNESS_BUDGET, (
            f"per-workflow cost is not flat: {smallest} workflows cost "
            f"{rows[smallest]['per_workflow_ms']}ms/wf but {largest} cost "
            f"{rows[largest]['per_workflow_ms']}ms/wf (x{ratio:.2f} > "
            f"x{FLATNESS_BUDGET})"
        )

    for size, row in rows.items():
        assert row["placed"] + row["rejected"] == size
        assert row["placed"] >= 0.99 * size

    ratchet_note = ratchet(
        results_dir,
        "engine_scale",
        rows,
        lambda size, entry: _ratchet_bounds(rows[size], entry),
    )

    payload = {
        "seed": SEED,
        "sizes": SIZES,
        "flatness_budget": FLATNESS_BUDGET,
        "flatness_ratio": round(ratio, 3),
        "rows": {str(size): row for size, row in rows.items()},
        "naive_contrast": naive,
        "determinism": {
            "digest": rows[smallest]["digest"],
            "rerun_identical": True,
        },
        "ratchet": ratchet_note,
    }
    saved = save_payload(results_dir, "engine_scale", payload)

    lines = [
        "engine scale benchmark (fast hot paths, fixed fleet, open-loop arrivals)",
        f"  sizes {SIZES}, flatness x{ratio:.2f} (budget x{FLATNESS_BUDGET})",
    ]
    for size in SIZES:
        row = rows[size]
        lines.append(
            f"  {size:>7} workflows: {row['per_workflow_ms']:>7.3f} ms/wf  "
            f"wall {row['wall_s']:>8.2f}s  makespan {row['makespan_s']:>10.1f}s "
            f"(virtual)  placed {row['placed']}"
        )
    lines.append(
        f"  naive contrast @ {smallest}: {naive['per_workflow_ms']:.3f} ms/wf "
        f"(fast {rows[smallest]['per_workflow_ms']:.3f} ms/wf)"
    )
    lines.append(f"  determinism digest {rows[smallest]['digest'][:16]}… (rerun identical)")
    lines.append(f"  {ratchet_note}")
    lines.append(saved)
    save_report("bench_engine_scale", "\n".join(lines))
    # One line for CI's determinism gate (.github/scripts/twice.sh).
    print(
        "engine-scale placement digests: "
        + " ".join(f"{size}={rows[size]['digest']}" for size in sorted(rows))
    )
