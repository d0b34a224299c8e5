"""One command for the benchmark: end-to-end metrics or the per-layer ledger.

Usage, from the repository root::

    python3 perfbench/run.py --workload corpus-mix --seed 1 --seconds 15 --trace 0

``--trace 0`` measures untraced passes and prints every end-to-end
metric.  ``--trace 1`` runs every part plain and then traced, prints the
per-layer table and every per-layer metric, and writes the first traced
part's spans as Chrome ``trace_event`` JSON under ``perfbench/out/``.
Host times are CPU seconds scaled, part by part, to a nominal host speed
that a reference loop timed between parts measures (``hostspeed.py``).
Both modes run the correctness checks; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The program is
imported from ``src/`` next to this directory, never from elsewhere.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import hostspeed
from ledger import HOST_CLOCK, LAYERS, Ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
META = json.loads((HERE / "meta.json").read_text(encoding="utf-8"))


def _import_program() -> None:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {source}")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {source}")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@dataclass
class Pass:
    """One pass over every part; host times in nominal seconds."""

    results: list = field(default_factory=list)
    #: Nominal seconds per part: its set-up, plain run and traced run.
    setup_s: List[float] = field(default_factory=list)
    host_s: List[float] = field(default_factory=list)
    traced_s: List[float] = field(default_factory=list)
    #: Host-to-nominal factor per part.
    scales: List[float] = field(default_factory=list)
    ledgers: List[Ledger] = field(default_factory=list)
    #: Host seconds of the plain and traced runs, for the time budget.
    raw_s: float = 0.0


def _pass(workload, seeds, check: bool, trace: bool, problems: List[str], readings: List[float]) -> Pass:
    """Set up and run every part once, reading the host speed after each.

    ``readings`` holds at least the reading taken before the first part.
    A traced twin runs right after its plain part, so a slow stretch of
    the host does not land on the plain or the traced runs only, which
    would skew ``trace_overhead``.
    """
    out = Pass()
    for seed in seeds:
        start = HOST_CLOCK()
        part = workload.setup(seed)
        setup_s = HOST_CLOCK() - start
        twin = ledger = None
        if trace:
            twin = workload.setup(seed)
            ledger = Ledger()
            workload.instrument(ledger, twin)
        gc.collect()
        result = workload.run(part, check=check)
        if trace:
            gc.collect()
            with ledger.window():
                traced = workload.run(twin, ledger)
            if traced.virtual() != result.virtual():
                problems.append(f"part seed {seed}: tracing changed a virtual outcome")
            _check_ledger(ledger, problems)
            out.ledgers.append(ledger)
        del part, twin
        readings.append(hostspeed.reading())
        factor = hostspeed.scale(readings[-2], readings[-1])
        out.results.append(result)
        out.scales.append(factor)
        out.setup_s.append(setup_s * factor)
        out.host_s.append(result.host_s * factor)
        out.raw_s += result.host_s
        if trace:
            out.traced_s.append(ledger.wall_s * factor)
            out.raw_s += ledger.wall_s
    return out


def _virtual(results) -> Dict[str, float]:
    jct = [v for r in results for v in r.jct_s]
    completed = sum(r.completed for r in results)
    return {
        "jct_mean_s": statistics.fmean(jct),
        "jct_p99_s": _q(jct, 0.99),
        "makespan_s": statistics.median(r.makespan_s for r in results),
        "compute_s_per_wf": sum(r.compute_s for r in results) / completed,
    }


def _q(values: List[float], q: float) -> float:
    """Nearest-rank quantile, as ``sql_nl_pipeline`` computes it."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


def _host(passes: List[Pass]) -> Dict[str, float]:
    """Host metrics over every measured part run.

    Throughput is the median over part runs: a part that a slow stretch
    of the host or a costly input lands on moves it less than a pooled
    ratio.  Submit latencies are pooled over a pass, so at least ten
    requests lie beyond the p99, then the median over passes is taken.
    """
    p50, p99 = [], []
    for p in passes:
        submit_ms = [
            v * factor * 1e3 for r, factor in zip(p.results, p.scales) for v in r.submit_s
        ]
        p50.append(statistics.median(submit_ms))
        p99.append(_q(submit_ms, 0.99))
    return {
        "wf_per_host_s": statistics.median(
            r.completed / host_s for p in passes for r, host_s in zip(p.results, p.host_s)
        ),
        "submit_ms_p50": statistics.median(p50),
        "submit_ms_p99": statistics.median(p99),
    }


def _counts(results) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for r in results:
        for key, value in r.counters.items():
            total[key] = total.get(key, 0.0) + value
    return total


def _per_layer(passes: List[Pass]) -> Dict[str, float]:
    """Per-layer metrics from the traced runs (medians across passes)."""
    layers = list(LAYERS) + ["other"]
    per_pass = []
    for p in passes:
        self_s = {layer: 0.0 for layer in layers}
        for ledger, factor in zip(p.ledgers, p.scales):
            for layer, seconds in ledger.layer_self_s().items():
                self_s[layer] += seconds * factor
        per_pass.append(self_s)
    wall = statistics.median(sum(p.traced_s) for p in passes)
    out: Dict[str, float] = {}
    for layer in layers:
        self_ms = statistics.median(p[layer] for p in per_pass) * 1e3
        out[f"{layer}.self_ms"] = self_ms
        out[f"{layer}.share"] = self_ms / (wall * 1e3)

    results = passes[0].results
    spans = {}
    for ledger in passes[0].ledgers:
        for key, value in ledger.counts.items():
            spans[key] = spans.get(key, 0) + value
    exact_ms = statistics.median(
        sum(
            l.total_s.get("parallelism.exact_cost", 0.0) * factor
            for l, factor in zip(p.ledgers, p.scales)
        )
        * 1e3
        for p in passes
    )
    counts = _counts(results)
    completed = sum(r.completed for r in results)
    hits = counts.get("caching.hits", 0.0)
    fetches = hits + counts.get("caching.misses", 0.0)
    place_calls = spans.get("queue.try_place", 0)
    all_queue = [v for r in results for v in r.queue_s]
    out.update(
        {
            "parallelism.splits": counts.get("parallelism.splits", 0.0),
            "parallelism.parts": counts.get("parallelism.parts", 0.0),
            "parallelism.exact_cost_calls": spans.get("parallelism.exact_cost", 0),
            "parallelism.exact_cost_ms": exact_ms,
            "caching.fetches": fetches,
            "caching.hits": hits,
            "caching.hit_ratio": hits / fetches if fetches else 0.0,
            "caching.evictions": counts.get("caching.evictions", 0.0),
            "caching.score_computes": counts.get("caching.score_computes", 0.0),
            "caching.fetch_s_per_wf": sum(r.fetch_s for r in results) / completed,
            "admission.passes": counts["admission.passes"],
            "admission.deferrals": counts["admission.deferrals"],
            "admission.queue_p99_s": _q(all_queue, 0.99),
            "admission.starvation_gap_s": max(r.starvation_gap_s for r in results),
            "queue.place_calls": place_calls,
            "queue.place_success_ratio": (
                counts["admission.placements"] / place_calls if place_calls else 0.0
            ),
            "operator.steps": counts["operator.steps"],
            "operator.waitq_scans": counts["operator.waitq_scans"],
            "simclock.events": spans.get("simclock.events", 0),
            "journal.appends": spans.get("journal.append", 0),
            "trace_overhead": statistics.median(
                sum(p.traced_s) / sum(p.host_s) for p in passes
            ),
        }
    )
    return out


def _check_ledger(ledger: Ledger, problems: List[str]) -> None:
    """Layer self times plus ``other`` must add up to the traced wall."""
    total = sum(ledger.layer_self_s().values())
    if abs(total - ledger.wall_s) > 1e-6 * max(1.0, ledger.wall_s):
        problems.append(f"ledger sums to {total:.6f}s, wall is {ledger.wall_s:.6f}s")
    if any(v < -1e-9 for v in ledger.layer_self_s().values()):
        problems.append("negative self time in the ledger")


def _table(metrics: Dict[str, float], units: Dict[str, str], tags: Dict[str, str]) -> str:
    lines = []
    for name, value in metrics.items():
        tag = tags.get(name, "")
        lines.append(f"  {name:<32} {value:>16.6g} {units[name]:<6} {tag}")
    return "\n".join(lines)


def _layer_table(metrics: Dict[str, float]) -> str:
    rows = sorted(
        (metrics[f"{layer}.self_ms"], layer) for layer in list(LAYERS) + ["other"]
    )
    lines = [f"  {'layer':<12} {'self_ms':>12} {'share':>8}"]
    for self_ms, layer in reversed(rows):
        lines.append(f"  {layer:<12} {self_ms:>12.3f} {metrics[layer + '.share']:>8.2%}")
    return "\n".join(lines)


def main(argv=None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=META["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[args.workload]
    seeds = workload.part_seeds(args.seed)
    problems: List[str] = []
    print(f"perfbench {args.workload} seed={args.seed} parts={seeds} trace={args.trace}")

    # The program's own driver runs the first part untimed first: that
    # warms up lazy initialisation and allocator growth, which would
    # otherwise land in the first measured part only, and the first part
    # must reproduce its run fingerprint.
    expected = digest(workload.reference(seeds[0]))

    passes: List[Pass] = []
    readings = [hostspeed.reading()]
    measured = 0.0
    while not passes or measured < args.seconds:
        passes.append(_pass(workload, seeds, not passes, bool(args.trace), problems, readings))
        measured += passes[-1].raw_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = passes[0].results
    if digest(first[0].fingerprint) != expected:
        problems.append(f"part seed {seeds[0]}: fingerprint differs from the program's own driver")
    for p in passes[1:]:
        if [r.virtual() for r in p.results] != [r.virtual() for r in first]:
            problems.append("virtual outcome changed between repeats")
    for result in first:
        problems.extend(result.problems)
    attempted = sum(r.submitted for p in passes for r in p.results)
    failed = sum(r.submitted - r.completed for p in passes for r in p.results)
    if failed:
        problems.append(f"{failed} of {attempted} workflows failed or never finished")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    tags = {name: entry["tag"] for name, entry in META["metrics"].items()}
    if args.trace:
        metrics = _per_layer(passes)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"{args.workload}-seed{args.seed}.trace.json"
        kept = passes[0].ledgers[0].write_chrome_trace(str(trace_path))
        print(f"per-layer self time, traced passes={len(passes)}:")
        print(_layer_table(metrics))
        print(f"chrome trace ({kept} spans, part 0): {trace_path.relative_to(ROOT)}")
        names = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = _host(passes)
        metrics["setup_s"] = statistics.median(s for p in passes for s in p.setup_s)
        metrics["peak_rss_mb"] = peak_rss_mb
        metrics.update(_virtual(first))
        names = [m["name"] for m in spec["end_to_end"]]
    metrics = {name: metrics[name] for name in names}
    print(
        f"passes={len(passes)} attempted={attempted} failed={failed} "
        f"reference_loop_s={statistics.median(readings):.5f}"
    )
    print(_table(metrics, units, tags))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"checks: {'ok' if not problems else f'{len(problems)} failed'}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
