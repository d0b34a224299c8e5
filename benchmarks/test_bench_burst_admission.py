"""Burst admission sweep: what one burst costs admission as it grows.

Every workflow of ``build_fleet(n, seed=8)`` arrives at t=0 on
fleetgen's six clusters, under ``EngineConfig(fairness="weighted-fair")``
with no journal: perfbench's ``fleet-burst`` part, at 250 to 2000
workflows.  A deep backlog is where admission passes and
``MultiClusterQueue.try_place`` dominate, so this sweep shows whether a
release tries only the parked workflows that fit what it freed.

Per size it records:

* host CPU ms per workflow, best of 3 — reported, not gated, because
  the host's speed swings up to 2x between runs;
* ``try_place`` calls per workflow, counted by wrapping the queue's
  method — gated at ``MAX_PLACE_CALLS_PER_WF``;
* wake-index visits per workflow: the parked entries the headroom
  parking index looked at to find what a release could wake (its
  ``visits`` count, deterministic) — gated per size at
  ``MAX_WAKE_VISITS_PER_WF``, so a wake that goes back to scanning
  every parked workflow fails;
* a digest of every record's placement fields (times, cluster,
  deferrals) — gated against ``EXPECTED_DIGESTS``, taken before
  releases were narrowed to the clusters they freed, so the cheaper
  wake places, defers and finishes every workflow exactly as before.

At the smallest size the naive engine must produce the same digest.
The payload lands in ``benchmarks/results/BENCH_burst.json``.
"""

from __future__ import annotations

import time

from bench_utils import placement_digest, save_payload

from repro.engine.config import EngineConfig
from repro.workloads.fleetgen import build_fleet, build_pipeline, submit_fleet

SEED = 8
SIZES = (250, 500, 1000, 2000)
CONFIG = EngineConfig(fairness="weighted-fair")
REPEATS = 3
MAX_PLACE_CALLS_PER_WF = 2.0
#: Ceilings on wake-index visits per workflow, about 10% above what
#: the index visits at each size (9.7, 50.1, 105.6 and 179.4).  A wake
#: that re-checks every headroom-parked workflow on each pass makes 43,
#: 194, 522 and 1 170 fit checks per workflow, so it fails them.
MAX_WAKE_VISITS_PER_WF = {250: 11.0, 500: 55.0, 1000: 116.0, 2000: 198.0}
#: Placement digests per size under the admission that woke every
#: headroom-parked workflow fitting any cluster on each release.
EXPECTED_DIGESTS = {
    250: "32569c568341cfa4259aa783969c625ed31601eaa8b41a55946fca81b6495b19",
    500: "75f89c92dd2d49cabfaf3243db0f05018f2c85e82ab074002c4279f5e309a53f",
    1000: "4dce0b6d3fad925c1d3ce8c00a00dfcad8ebe81c71fc39a39071ce1e6e26f3e0",
    2000: "53442520f1cdbbc1f84d89ebb9512a70814eb827cbcc281e05fdb7749d287078",
}


def _burst(size: int, config: EngineConfig) -> tuple[float, dict]:
    """Host CPU ms per workflow, and what admission decided, for one burst."""
    spec = build_fleet(size, seed=SEED)
    spec.arrivals = [(0.0,) + arrival[1:] for arrival in spec.arrivals]
    pipeline = build_pipeline(spec, config)
    queue = pipeline.queue
    try_place = queue.try_place
    calls = 0

    def counted(item):
        nonlocal calls
        calls += 1
        return try_place(item)

    queue.try_place = counted
    started = time.process_time()
    records = submit_fleet(pipeline, spec)
    pipeline.run()
    cpu_s = time.process_time() - started
    events = pipeline.metrics.counter("admission_events_total")
    visits = pipeline._parked_headroom.visits
    return 1000.0 * cpu_s / size, {
        "place_calls": calls,
        "place_calls_per_wf": round(calls / size, 3),
        "wake_visits": visits,
        "wake_visits_per_wf": round(visits / size, 3),
        "passes": int(events.value(event="pass")),
        "deferrals": int(events.value(event="deferral")),
        "placed": sum(1 for record in records if record.place_time is not None),
        "digest": placement_digest(records),
    }


def _best_of(size: int, config: EngineConfig) -> dict:
    """The fastest of ``REPEATS`` runs; every run must decide the same."""
    runs = [_burst(size, config) for _ in range(REPEATS)]
    row = runs[0][1]
    assert all(decided == row for _, decided in runs), (
        f"same-seed burst runs at {size} workflows diverged"
    )
    return {**row, "host_ms_per_wf": round(min(ms for ms, _ in runs), 4)}


def test_burst_admission(results_dir, save_report):
    rows = {size: _best_of(size, CONFIG) for size in SIZES}
    smallest, largest = SIZES[0], SIZES[-1]
    naive_ms, naive = _burst(
        smallest, EngineConfig(engine="naive", fairness="weighted-fair")
    )
    naive["host_ms_per_wf"] = round(naive_ms, 4)

    for size, row in rows.items():
        assert row["placed"] == size
        assert row["digest"] == EXPECTED_DIGESTS[size], (
            f"{size}-workflow burst placed differently: {row['digest'][:16]} "
            f"!= {EXPECTED_DIGESTS[size][:16]}"
        )
        assert row["place_calls_per_wf"] <= MAX_PLACE_CALLS_PER_WF, (
            f"{size}-workflow burst made {row['place_calls_per_wf']} try_place "
            f"calls per workflow (limit {MAX_PLACE_CALLS_PER_WF})"
        )
        assert row["wake_visits_per_wf"] <= MAX_WAKE_VISITS_PER_WF[size], (
            f"{size}-workflow burst visited {row['wake_visits_per_wf']} parked "
            f"entries per workflow (limit {MAX_WAKE_VISITS_PER_WF[size]})"
        )
    assert naive["digest"] == rows[smallest]["digest"], (
        "naive engine placed the burst differently than fast"
    )
    assert naive["deferrals"] == rows[smallest]["deferrals"]

    growth = rows[largest]["host_ms_per_wf"] / rows[smallest]["host_ms_per_wf"]
    payload = {
        "seed": SEED,
        "config": CONFIG.describe(),
        "sizes": list(SIZES),
        "max_place_calls_per_wf": MAX_PLACE_CALLS_PER_WF,
        "max_wake_visits_per_wf": {
            str(size): ceiling for size, ceiling in MAX_WAKE_VISITS_PER_WF.items()
        },
        "rows": {str(size): row for size, row in rows.items()},
        "naive_contrast": naive,
        "host_ms_growth": round(growth, 2),
    }
    saved = save_payload(results_dir, "burst", payload)

    lines = [
        "burst admission sweep (fleetgen seed 8, every arrival at t=0, weighted-fair)",
        "  workflows  host ms/wf  try_place/wf  visits/wf  passes  deferrals  digest",
    ]
    for size, row in rows.items():
        lines.append(
            f"  {size:>9}  {row['host_ms_per_wf']:>10.3f}  "
            f"{row['place_calls_per_wf']:>12.3f}  {row['wake_visits_per_wf']:>9.3f}  "
            f"{row['passes']:>6}  {row['deferrals']:>9}  {row['digest'][:16]}"
        )
    lines.append(
        f"  host ms/wf at {largest} is x{growth:.2f} the cost at {smallest} "
        "(best of 3, not gated)"
    )
    lines.append(
        f"  naive @ {smallest}: {naive['host_ms_per_wf']:.3f} ms/wf, "
        f"{naive['place_calls_per_wf']:.3f} try_place/wf, same digest"
    )
    lines.append(saved)
    save_report("bench_burst_admission", "\n".join(lines))
