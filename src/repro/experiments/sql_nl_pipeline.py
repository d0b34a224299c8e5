"""SQL + NL scenario corpus, end to end through the unified stack.

The paper's pitch is one layer serving every frontend: SQLFlow scripts
and NL-planned workflows compile to the same IR, flow through the same
optimizers (automatic caching, big-workflow splitting) and land in the
same ``EngineConfig``-driven admission pipeline.  This driver runs the
seeded scenario corpus (:mod:`repro.workloads.corpus`) through exactly
that path and reports, per persona, what the unified layer bought:
cache hit rates (rerun redundancy actually reused), queue latency
p50/p99 per SLO lane, and makespan.

Splitting is real, not cosmetic: any compiled workflow above the step
budget is split by Algorithm 3 and its parts are chained through
admission completion callbacks, like statements of one script.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..caching.manager import CacheManager
from ..control.policy import PolicyConfig
from ..engine.config import EngineConfig
from ..obs.metrics import MetricsRegistry
from ..parallelism.budget import BudgetModel
from ..parallelism.splitter import WorkflowSplitter
from ..workloads.corpus import (
    CORPUS_TENANTS,
    CorpusSpec,
    ScenarioCorpus,
    build_clusters,
    build_corpus,
    submit_chain,
)
from ..workloads.fleetgen import FleetSpec, build_pipeline
from .reporting import format_table

GB = 2**30


def _quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


@dataclass
class PersonaStats:
    """Per-persona outcome of one corpus run."""

    persona: str
    entries: int
    workflows: int
    reruns: int
    cache_hits: int
    cache_misses: int
    queue_p50_s: float
    queue_p99_s: float
    makespan_s: float

    @property
    def hit_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


@dataclass
class CorpusRunResult:
    """One engine configuration's run over the corpus."""

    engine: str
    corpus_digest: str
    entries: int
    workflows_submitted: int
    split_parts: int
    makespan_s: float
    personas: List[PersonaStats] = field(default_factory=list)
    #: (workflow, user, arrival, admitted, cluster, finish) tuples —
    #: the determinism fingerprint the integration test diffs across
    #: engine modes.
    fingerprint: List[tuple] = field(default_factory=list)
    #: Worst arrival-to-placement wait across the run (pending-inclusive).
    starvation_gap_s: float = 0.0


def run(
    seed: int = 0,
    size: int = 24,
    engine: str = "fast",
    cache_gb: Optional[float] = 2.0,
    split_max_steps: int = 6,
    corpus: Optional[ScenarioCorpus] = None,
    clusters: Optional[list] = None,
    policy: Optional[PolicyConfig] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> CorpusRunResult:
    """Corpus -> caching + splitting -> admission; one engine mode.

    ``clusters`` overrides the default (comfortable) corpus fleet —
    benchmarks pass a constrained one so queue latency is non-trivial.
    ``policy`` threads one :class:`PolicyConfig` through every knobbed
    subsystem (score weights, split budget, aging, retries);
    ``policy=PolicyConfig()`` is bit-identical to ``policy=None`` (the
    ``adaptive`` verify oracle pins this).  ``metrics`` shares a
    registry across cache and admission so the controller reads the
    whole run in one place.
    """
    corpus = corpus if corpus is not None else build_corpus(
        CorpusSpec(seed=seed, size=size)
    )
    # The pipeline needs only the fleet, the seed and the tenant weights;
    # the entries are lowered (and split) below, one chain at a time.
    spec = FleetSpec(
        clusters=clusters if clusters is not None else build_clusters(),
        arrivals=[],
        seed=corpus.spec.seed,
        tenant_weights=dict(CORPUS_TENANTS),
    )
    manager = CacheManager(
        policy="couler",
        capacity_bytes=None if cache_gb is None else int(cache_gb * GB),
        weights=policy.score_weights() if policy is not None else None,
        metrics=metrics,
    )
    pipeline = build_pipeline(
        spec,
        EngineConfig(engine=engine, policy=policy),
        cache_manager=manager,
        skip_cached_steps=True,
        metrics=metrics,
    )

    budget_steps = (
        policy.split_budget(split_max_steps) if policy else split_max_steps
    )
    splitter = WorkflowSplitter(BudgetModel(max_steps=budget_steps))
    split_parts = 0
    records = []
    owners: Dict[str, str] = {}
    for entry in corpus.entries:
        executables = []
        for ir in entry.irs:
            if len(ir) > budget_steps:
                plan = splitter.split(ir)
                split_parts += plan.num_parts
                # Sequential chaining in topological part order is a
                # valid linearization of the cross-part dependencies.
                for index in plan.topological_part_order():
                    executables.append(plan.parts[index].to_executable())
            else:
                executables.append(ir.to_executable())
        for executable in executables:
            owners[executable.name] = entry.persona
        submit_chain(pipeline, entry, executables, records, chain=True)
    pipeline.run()

    personas: List[PersonaStats] = []
    for persona in corpus.spec.personas:
        entries = [e for e in corpus.entries if e.persona == persona]
        mine = [r for r in records if owners.get(r.workflow_name) == persona]
        done = [r for r in mine if r.finish_time is not None]
        latencies = [r.queue_latency for r in done if r.queue_latency is not None]
        start = min((e.arrival for e in entries), default=0.0)
        finish = max((r.finish_time for r in done), default=start)
        personas.append(
            PersonaStats(
                persona=persona,
                entries=len(entries),
                workflows=len(mine),
                reruns=sum(1 for e in entries if e.rerun_of),
                cache_hits=sum(
                    r.record.total_cache_hits() for r in done if r.record
                ),
                cache_misses=sum(
                    r.record.total_cache_misses() for r in done if r.record
                ),
                queue_p50_s=_quantile(latencies, 0.50),
                queue_p99_s=_quantile(latencies, 0.99),
                makespan_s=finish - start,
            )
        )

    finished = [r for r in records if r.finish_time is not None]
    fingerprint = sorted(
        (
            r.workflow_name,
            r.user,
            round(r.arrival_time, 6),
            r.admitted,
            r.cluster_name,
            None if r.finish_time is None else round(r.finish_time, 6),
        )
        for r in records
    )
    return CorpusRunResult(
        engine=engine,
        corpus_digest=corpus.digest(),
        entries=len(corpus.entries),
        workflows_submitted=len(records),
        split_parts=split_parts,
        makespan_s=max((r.finish_time for r in finished), default=0.0),
        personas=personas,
        fingerprint=fingerprint,
        starvation_gap_s=pipeline.starvation_gap(),
    )


def report(result: CorpusRunResult) -> str:
    rows = [
        (
            p.persona,
            str(p.entries),
            str(p.workflows),
            str(p.reruns),
            f"{p.hit_ratio:.2%}",
            f"{p.queue_p50_s:.1f}",
            f"{p.queue_p99_s:.1f}",
            f"{p.makespan_s:.0f}",
        )
        for p in result.personas
    ]
    table = format_table(
        [
            "persona",
            "entries",
            "workflows",
            "reruns",
            "hit ratio",
            "queue p50 (s)",
            "queue p99 (s)",
            "makespan (s)",
        ],
        rows,
        title=(
            f"SQL+NL corpus e2e [engine={result.engine}]: "
            f"{result.entries} entries -> {result.workflows_submitted} "
            f"workflows ({result.split_parts} split parts), "
            f"makespan {result.makespan_s:.0f}s "
            "(expected: rerun-heavy personas reuse, serving lane waits least)"
        ),
    )
    return table + f"\ncorpus digest: {result.corpus_digest}"


def main() -> None:
    print(report(run()))


if __name__ == "__main__":
    main()
