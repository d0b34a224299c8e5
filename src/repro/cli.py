"""Command-line interface: run any paper experiment from the shell.

Usage::

    python -m repro list                # enumerate experiments
    python -m repro run fig7           # run one and print its report
    python -m repro run table2 fig8    # run several
    python -m repro version
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from typing import Dict, List, Optional

from . import __paper__, __version__

#: Short experiment names -> (module path, one-line description).
EXPERIMENTS: Dict[str, tuple] = {
    "fig5": ("repro.experiments.fig5_activity", "workflow activity distributions"),
    "fig6": ("repro.experiments.fig6_migration", "12-month migration: CUR/MUR/WCR"),
    "fig7": ("repro.experiments.fig7_caching", "caching vs No/ALL, 3 scenarios"),
    "fig8": ("repro.experiments.fig8_autotune", "automatic HP configuration"),
    "fig11-13": ("repro.experiments.fig11_13_policies", "Couler vs FIFO vs LRU"),
    "fig14-16": ("repro.experiments.fig14_16_cache_sizes", "cache sizes 10/20/30G"),
    "fig17": ("repro.experiments.fig17_datacache", "table/file data caching"),
    "table2": ("repro.experiments.table2_passk", "pass@k for NL -> code"),
    "table3": ("repro.experiments.table3_cost", "generation cost analysis"),
    "table4": ("repro.experiments.table4_learning", "engine learning comparison"),
    "ablation-cache": (
        "repro.experiments.ablation_cache_score",
        "Eq. 6 component ablation",
    ),
    "ablation-split": (
        "repro.experiments.ablation_split_budget",
        "Algorithm 3 budget sweep",
    ),
    "ablation-reuse": (
        "repro.experiments.ablation_reuse",
        "cached-step skipping (reuse of intermediate results)",
    ),
    "robustness": (
        "repro.experiments.robustness_runner",
        "fault-injected fleet: recovery, determinism, invariants",
    ),
    "sql-nl": (
        "repro.experiments.sql_nl_pipeline",
        "SQL+NL scenario corpus e2e: frontends -> caching/splitting -> admission",
    ),
    "adaptive-ablation": (
        "repro.experiments.adaptive_ablation",
        "adaptive PolicyConfig controller vs static paper defaults",
    ),
}


def _load_driver(name: str):
    import importlib

    module_path, _ = EXPERIMENTS[name]
    return importlib.import_module(module_path)


def cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, (_module, description) in EXPERIMENTS.items():
        print(f"{name.ljust(width)}  {description}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    unknown = [name for name in args.experiments if name not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"try `python -m repro list`",
            file=sys.stderr,
        )
        return 2
    for name in args.experiments:
        driver = _load_driver(name)
        print(f"== {name} ==")
        results = driver.run()
        print(driver.report(results))
        print()
    return 0


def cmd_version(_args: argparse.Namespace) -> int:
    print(f"repro {__version__} — reproduction of: {__paper__}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one scenario with tracing on; export Chrome JSON + metrics."""
    from .caching.policy import POLICY_REGISTRY
    from .experiments.caching_runner import run_scenario
    from .obs.critical_path import critical_path
    from .obs.metrics import MetricsRegistry
    from .obs.trace import Tracer
    from .workloads.scenarios import SCENARIOS

    if args.scenario not in SCENARIOS:
        print(
            f"unknown scenario {args.scenario!r}; choose from {sorted(SCENARIOS)}",
            file=sys.stderr,
        )
        return 2
    if args.policy not in POLICY_REGISTRY:
        print(
            f"unknown cache policy {args.policy!r}; "
            f"choose from {sorted(POLICY_REGISTRY)}",
            file=sys.stderr,
        )
        return 2

    tracer = Tracer()
    metrics = MetricsRegistry()
    result = run_scenario(
        args.scenario,
        policy=args.policy,
        cache_gb=args.cache_gb,
        iterations=args.iterations,
        seed=args.seed,
        tracer=tracer,
        metrics=metrics,
    )

    tracer.write_chrome(args.out)
    print(
        f"{args.scenario}: {args.iterations} iteration(s), policy={args.policy}, "
        f"makespan {result.total_time_s:.0f}s, hit ratio {result.hit_ratio:.2%}"
    )
    print(f"wrote {len(tracer)} trace events to {args.out} "
          f"(load in chrome://tracing or ui.perfetto.dev)")
    for root in tracer.roots():
        print()
        print(critical_path(tracer, root.name).report())
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(metrics.snapshot())
        print(f"\nwrote metrics snapshot to {args.metrics_out}")
    else:
        print()
        print(metrics.snapshot(), end="")
    # One line that pins what this run wrote, for determinism gates.
    digest = hashlib.sha256()
    for path in filter(None, (args.out, args.metrics_out)):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    print(f"trace digest: {digest.hexdigest()}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the fault-injected fleet; optionally export its Chrome trace."""
    from .experiments import robustness_runner
    from .obs.trace import Tracer

    if args.journal:
        results = robustness_runner.run_journal(
            seed=args.seed, num_workflows=args.workflows, replicas=args.replicas
        )
        print(robustness_runner.report_journal(results))
        return 0 if robustness_runner.journal_ok(results) else 1

    tracer = Tracer() if args.trace_out else None
    results = robustness_runner.run(
        seed=args.seed, num_workflows=args.workflows, tracer=tracer
    )
    print(robustness_runner.report(results))
    if args.trace_out:
        tracer.write_chrome(args.trace_out)
        print(
            f"\nwrote {len(tracer)} trace events to {args.trace_out} "
            "(chaos faults appear as their own tracks)"
        )
    ok = (
        results["completed"] == results["total"]
        and results["deterministic"]
        and not results["invariant_violations"]
    )
    return 0 if ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    """Sweep seeds through the differential oracles (CI gate).

    Prints per-oracle pass counts and one aggregate fingerprint digest;
    the digest is identical across runs of the same sweep, which is how
    CI asserts determinism (run twice, diff the digest lines).  On
    failure, the first failing workflow is shrunk by node deletion to a
    minimal repro and printed as IR JSON.
    """
    from .ir.serialize import ir_to_json
    from .verify import run_suite
    from .verify.oracles import select_oracles
    from .verify.shrink import shrink_failure

    try:
        oracle_names = select_oracles(
            args.oracles.split(",") if args.oracles else None, args.source
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    seeds = range(args.seed_base, args.seed_base + args.seeds)
    report = run_suite(seeds, oracle_names, source=args.source)
    for oracle, (passed, total) in sorted(report.counts().items()):
        print(f"{oracle:12s} {passed}/{total}")
    print(f"aggregate fingerprint digest: {report.aggregate_digest()}")
    if report.ok:
        print(f"verify: all oracles passed over {args.seeds} seed(s)")
        return 0
    for outcome in report.failures[:5]:
        print(
            f"FAIL {outcome.oracle} seed={outcome.seed}: {outcome.detail}",
            file=sys.stderr,
        )
    if len(report.failures) > 5:
        print(f"... and {len(report.failures) - 5} more", file=sys.stderr)
    if not args.no_shrink:
        first = report.failures[0]
        shrunk = shrink_failure(first, source=args.source)
        if shrunk is None:
            print(
                f"shrink: failure of {first.oracle} seed={first.seed} "
                "did not reproduce on regeneration",
                file=sys.stderr,
            )
        else:
            minimal, on_minimal = shrunk
            print(
                f"minimal repro for {first.oracle} seed={first.seed} "
                f"({len(minimal.nodes)} node(s)): {on_minimal.detail}"
            )
            print(ir_to_json(minimal))
    return 1


def cmd_corpus(args: argparse.Namespace) -> int:
    """Generate / describe / run the seeded SQL+NL scenario corpus.

    ``generate`` prints the corpus digest (and optionally every source
    script) — CI generates twice and diffs the digest line.
    ``describe`` prints the per-persona composition.  ``run`` executes
    the corpus end to end through caching, splitting and admission.
    """
    import json

    from .workloads.corpus import CorpusSpec, build_corpus

    spec = CorpusSpec(seed=args.seed, size=args.size)
    corpus = build_corpus(spec)
    if args.action == "generate":
        if args.show_sources:
            for entry in corpus.entries:
                print(f"-- >>> {entry.name} [{entry.kind}, {entry.persona}]")
                print(entry.source)
        print(f"corpus digest: {corpus.digest()}")
        return 0
    if args.action == "describe":
        print(json.dumps(corpus.describe(), indent=2, sort_keys=True))
        return 0
    # action == "run": the e2e experiment over this exact corpus.
    from .experiments import sql_nl_pipeline

    result = sql_nl_pipeline.run(
        engine=args.engine, cache_gb=args.cache_gb, corpus=corpus
    )
    print(sql_nl_pipeline.report(result))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile the engine hot path on a deterministic synthetic fleet."""
    from .control.policy import PolicyConfig
    from .engine.config import EngineConfig
    from .profiling import profile_run

    config = EngineConfig(
        engine=args.engine,
        fairness="weighted-fair",
        policy=PolicyConfig(aging_rate=0.01),
    )
    report = profile_run(
        args.workflows,
        seed=args.seed,
        config=config,
        top=args.top,
        profile=not args.no_cprofile,
    )
    print(report.describe())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run experiments from the Couler (ICDE 2024) reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=cmd_list
    )
    run_parser = sub.add_parser("run", help="run one or more experiments")
    run_parser.add_argument("experiments", nargs="+", metavar="EXPERIMENT")
    run_parser.set_defaults(func=cmd_run)
    sub.add_parser("version", help="print version").set_defaults(func=cmd_version)

    trace_parser = sub.add_parser(
        "trace",
        help="run a scenario with tracing and export a Chrome trace + metrics",
    )
    trace_parser.add_argument(
        "--scenario", default="image-segmentation", help="workload scenario name"
    )
    trace_parser.add_argument(
        "--policy", default="couler", help="cache policy (no/all/couler/fifo/lru)"
    )
    trace_parser.add_argument(
        "--cache-gb", type=float, default=30.0, help="cache capacity in GiB"
    )
    trace_parser.add_argument(
        "--iterations", type=int, default=1, help="development iterations to chain"
    )
    trace_parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    trace_parser.add_argument(
        "--out", default="trace.json", help="Chrome trace_event JSON output path"
    )
    trace_parser.add_argument(
        "--metrics-out",
        default=None,
        help="write the metrics snapshot here instead of stdout",
    )
    trace_parser.set_defaults(func=cmd_trace)

    chaos_parser = sub.add_parser(
        "chaos",
        help="run the fault-injected fleet (exit 1 on recovery regression)",
    )
    chaos_parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    chaos_parser.add_argument(
        "--workflows", type=int, default=8, help="fleet size to storm"
    )
    chaos_parser.add_argument(
        "--trace-out",
        default=None,
        help="also write a Chrome trace_event JSON of the stormy run",
    )
    chaos_parser.add_argument(
        "--journal",
        action="store_true",
        help="storm the journal-backed sharded fleet instead: hard-kill "
        "replicas mid-run and recover by journal replay (exit 1 on any "
        "replay regression)",
    )
    chaos_parser.add_argument(
        "--replicas",
        type=int,
        default=3,
        help="replica count for the --journal fleet",
    )
    chaos_parser.set_defaults(func=cmd_chaos)

    verify_parser = sub.add_parser(
        "verify",
        help="sweep seeds through the differential oracles "
        "(exit 1 on any inequivalence, printing a shrunk repro)",
    )
    verify_parser.add_argument(
        "--seeds", type=int, default=25, help="number of seeds to sweep"
    )
    verify_parser.add_argument(
        "--seed-base", type=int, default=0, help="first seed of the sweep"
    )
    verify_parser.add_argument(
        "--oracles",
        default=None,
        help="comma-separated subset of adaptive,backends,cache,engine_fast,"
        "fairness,journal,replay,scores,split,submitters; default every oracle "
        "the source can run (corpus leaves out replay)",
    )
    verify_parser.add_argument(
        "--source",
        choices=("synthetic", "corpus"),
        default="synthetic",
        help="workflow source: the seeded fuzzer (synthetic) or "
        "frontend-compiled scenario-corpus workflows (corpus)",
    )
    verify_parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip shrinking the first failing workflow",
    )
    verify_parser.set_defaults(func=cmd_verify)

    corpus_parser = sub.add_parser(
        "corpus",
        help="generate, describe or run the seeded SQL+NL scenario corpus",
    )
    corpus_parser.add_argument(
        "action",
        choices=("generate", "describe", "run"),
        help="generate: print the deterministic digest; describe: "
        "per-persona composition; run: execute end-to-end through "
        "caching + splitting + admission",
    )
    corpus_parser.add_argument("--seed", type=int, default=0, help="corpus seed")
    corpus_parser.add_argument(
        "--size", type=int, default=24, help="number of corpus entries"
    )
    corpus_parser.add_argument(
        "--engine",
        choices=("fast", "naive"),
        default="fast",
        help="engine hot-path mode for `run`",
    )
    corpus_parser.add_argument(
        "--cache-gb",
        type=float,
        default=2.0,
        help="shared artifact cache capacity for `run` (GiB)",
    )
    corpus_parser.add_argument(
        "--show-sources",
        action="store_true",
        help="with `generate`: also print every SQL script / NL description",
    )
    corpus_parser.set_defaults(func=cmd_corpus)

    profile_parser = sub.add_parser(
        "profile",
        help="measure per-workflow engine cost on a synthetic fleet "
        "(compare --engine fast vs naive)",
    )
    profile_parser.add_argument(
        "--workflows", type=int, default=1000, help="fleet size to run"
    )
    profile_parser.add_argument(
        "--seed", type=int, default=0, help="fleet generation seed"
    )
    profile_parser.add_argument(
        "--engine",
        choices=("fast", "naive"),
        default="fast",
        help="hot-path implementation to profile",
    )
    profile_parser.add_argument(
        "--top", type=int, default=15, help="cProfile hotspot rows to print"
    )
    profile_parser.add_argument(
        "--no-cprofile",
        action="store_true",
        help="skip cProfile (pure timing; ~2x lower overhead)",
    )
    profile_parser.set_defaults(func=cmd_profile)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
