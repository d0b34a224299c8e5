"""The benchmark's three workloads, driven through public entry points.

Each workload is a fixed number of independent *parts*, each built from
a part seed derived from the workload seed.  One *pass* sets up and runs
every part once.  Setup (corpus or fleet generation, Code Lake
expansion, pipeline construction) is timed apart from the run.  The run
is open loop in virtual time: every arrival time comes from the seeded
schedule, so a slow host delays nothing inside the simulation.

- ``corpus-mix``: the seeded SQL+NL persona corpus, recompiled from its
  source text, split when above the step budget, and chained through
  admission with a shared Algorithm 2 cache.
- ``fleet-steady``: ``fleetgen`` DAGs arriving every 0.25 virtual
  seconds, weighted-fair, journaled, no cache.
- ``fleet-burst``: the same DAGs, all arriving at t=0, no journal.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.caching.manager import CacheManager
from repro.engine.admission import AdmissionPipeline
from repro.engine.config import EngineConfig
from repro.engine.journal import Journal
from repro.engine.simclock import SimClock
from repro.engine.status import WorkflowPhase
from repro.experiments import sql_nl_pipeline
from repro.ir.serialize import ir_to_dict
from repro.k8s.cluster import Cluster
from repro.llm.codelake import expand_code_lake
from repro.parallelism.budget import BudgetModel
from repro.parallelism.splitter import WorkflowSplitter
from repro.workloads.corpus import (
    CORPUS_TENANTS,
    CorpusSpec,
    build_corpus,
    build_nl_task,
    clone_ir,
    compile_nl_entry,
    compile_sql_entry,
    submit_chain,
)
from repro.workloads.fleetgen import build_fleet, build_pipeline, submit_fleet

from ledger import HOST_CLOCK, Ledger, instrument_clock, wrap_method

GB = 2**30

#: Entries per corpus part and parts per pass.  Host cost per entry
#: varies widely with its content (how many NL workflows need
#: splitting), so a pass pools 2048 entries to keep the seed-to-seed
#: spread small.  Parts are small so that host speed readings between
#: them follow the host's speed changes, which come and go within seconds.
CORPUS_SIZE = 64
CORPUS_PARTS = 32
#: The step budget ``sql_nl_pipeline.run`` uses by default.
SPLIT_MAX_STEPS = 6
CACHE_GB = 2.0
CORPUS_CONFIG = EngineConfig()

FLEET_CONFIG = EngineConfig(fairness="weighted-fair")
#: Per-workflow cost of a steady fleet is flat in its size, so parts are
#: short, and many of them follow the host's speed closely.
STEADY_SIZE = 1000
STEADY_PARTS = 8
#: A burst's cost grows faster than its size: 500 workflows cost seven
#: times 250 and vary twice as much with the seed.
BURST_SIZE = 250
BURST_PARTS = 8


def mix_clusters() -> List[Cluster]:
    """2 clusters x 5 nodes of 8 CPU: a quarter of a part's workflows queue.

    With more nodes almost nothing waits, so the JCT tail is the longest
    template chain, the same value on most seeds.
    """
    return [
        Cluster.uniform(
            f"mix-c{index}",
            5,
            cpu_per_node=8.0,
            memory_per_node=32 * GB,
            gpu_per_node=2 if index == 0 else 0,
        )
        for index in range(2)
    ]


def fingerprint(records) -> List[tuple]:
    """The run fingerprint ``sql_nl_pipeline.run`` reports (virtual only)."""
    return sorted(
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


def digest(rows: List[tuple]) -> str:
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()[:16]


def _pipeline(clusters, seed, config, tenant_weights, **collaborators):
    kwargs = config.pipeline_kwargs()
    if kwargs.get("tenant_weights") is None:
        kwargs["tenant_weights"] = dict(tenant_weights)
    return AdmissionPipeline(clusters, seed=seed, **collaborators, **kwargs)


def _direct(_layer: str, _name: str, fn: Callable, *args, **kwargs):
    return fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# One part's run outcome.
# ---------------------------------------------------------------------------


@dataclass
class PartResult:
    """Host and virtual outcome of running one part."""

    #: Host CPU seconds of the whole run.
    host_s: float
    #: Wall seconds per request from its input to its first submission.
    #: A single call lasts microseconds, too short for a CPU-time read
    #: (a system call) to time it cleanly.
    submit_s: List[float]
    #: Virtual seconds per request from arrival to its last workflow's end.
    jct_s: List[float]
    queue_s: List[float]
    submitted: int
    completed: int
    makespan_s: float
    compute_s: float
    fetch_s: float
    starvation_gap_s: float
    fingerprint: List[tuple]
    counters: Dict[str, float]
    #: Correctness findings (empty when the part checks out).
    problems: List[str] = field(default_factory=list)

    def virtual(self) -> tuple:
        """Everything simulated; must not change across repeats or tracing."""
        return (
            self.fingerprint,
            self.jct_s,
            self.queue_s,
            self.submitted,
            self.completed,
            self.makespan_s,
            self.compute_s,
            self.fetch_s,
            self.starvation_gap_s,
            sorted(self.counters.items()),
        )


def _outcome(pipeline, records, host_s, submit_s, jct_s, submitted, cache) -> PartResult:
    done = [
        r
        for r in records
        if r.finish_time is not None
        and r.record is not None
        and r.record.phase is WorkflowPhase.SUCCEEDED
    ]
    events = pipeline.metrics.get("admission_events_total")
    scans = pipeline.metrics.get("engine_waitq_scans_total")
    steps = pipeline.metrics.get("engine_steps_total")
    counters = {
        "admission.passes": events.value(event="pass"),
        "admission.deferrals": events.value(event="deferral"),
        "admission.placements": events.value(event="placement"),
        "operator.steps": steps.total() if steps is not None else 0.0,
        "operator.waitq_scans": scans.total() if scans is not None else 0.0,
    }
    if cache is not None:
        report = cache.report()
        computes = cache.metrics.get("cache_score_computes_total")
        counters.update(
            {
                "caching.hits": report["hits"],
                "caching.misses": report["misses"],
                "caching.evictions": report["evictions"],
                "caching.score_computes": computes.total() if computes else 0.0,
            }
        )
    return PartResult(
        host_s=host_s,
        submit_s=submit_s,
        jct_s=jct_s,
        queue_s=[r.queue_latency for r in records if r.queue_latency is not None],
        submitted=submitted,
        completed=len(done),
        makespan_s=max((r.finish_time for r in done), default=0.0),
        compute_s=sum(r.record.total_compute_seconds() for r in done),
        fetch_s=sum(r.record.total_fetch_seconds() for r in done),
        starvation_gap_s=pipeline.starvation_gap(),
        fingerprint=fingerprint(records),
        counters=counters,
    )


# ---------------------------------------------------------------------------
# corpus-mix
# ---------------------------------------------------------------------------


@dataclass
class CorpusPart:
    corpus: object
    lake: object
    clock: SimClock
    cache: CacheManager
    pipeline: AdmissionPipeline
    splitter: WorkflowSplitter


def setup_corpus(seed: int, size: int = CORPUS_SIZE) -> CorpusPart:
    corpus = build_corpus(CorpusSpec(seed=seed, size=size))
    lake = expand_code_lake(corpus.catalog.datasets())
    clock = SimClock()
    cache = CacheManager(policy="couler", capacity_bytes=int(CACHE_GB * GB))
    pipeline = _pipeline(
        mix_clusters(),
        corpus.spec.seed,
        CORPUS_CONFIG,
        CORPUS_TENANTS,
        clock=clock,
        cache_manager=cache,
        skip_cached_steps=True,
    )
    splitter = WorkflowSplitter(BudgetModel(max_steps=SPLIT_MAX_STEPS))
    return CorpusPart(corpus, lake, clock, cache, pipeline, splitter)


def instrument_corpus(ledger: Ledger, part: CorpusPart) -> None:
    instrument_clock(ledger, part.clock)
    _instrument_engine(ledger, part.pipeline)
    wrap_method(ledger, part.splitter.budget, "exact_cost", "parallelism")
    for method in (
        "register_workflow",
        "fetch",
        "contains",
        "on_artifact_produced",
        "on_step_finished",
    ):
        wrap_method(ledger, part.cache, method, "caching")


def run_corpus(
    part: CorpusPart, ledger: Optional[Ledger] = None, check: bool = False
) -> PartResult:
    """Recompile, split and submit every entry, then drive the clock."""
    call = ledger.call if ledger is not None else _direct
    corpus, lake, pipeline, splitter = part.corpus, part.lake, part.pipeline, part.splitter
    catalog = corpus.catalog

    def compile_nl(entry):
        domain = catalog.by_name(entry.meta["domain"])
        task = build_nl_task(domain, entry.meta["sequence"], entry.name)
        ir, _hits = compile_nl_entry(task, lake, entry.name)
        return [ir]

    compiled: Dict[str, list] = {}
    plans: List[tuple] = []
    owners: Dict[str, str] = {}
    planned: Dict[str, int] = {}
    records: list = []
    submit_s: List[float] = []
    clock = HOST_CLOCK
    latency_clock = time.perf_counter
    start = clock()
    for entry in corpus.entries:
        begin = latency_clock()
        if entry.rerun_of:
            base = compiled[entry.rerun_of]
            irs = call(
                "ir",
                "ir.clone_ir",
                lambda: [clone_ir(ir, f"{entry.name}-s{i}") for i, ir in enumerate(base)],
            )
        elif entry.kind == "sql":
            irs = call("sqlflow", "sqlflow.compile_sql_entry", compile_sql_entry, entry.source, entry.name)
        else:
            irs = call("nl2wf", "nl2wf.compile_nl_entry", compile_nl, entry)
        compiled[entry.name] = irs
        executables = []
        for ir in irs:
            if len(ir) > SPLIT_MAX_STEPS:
                plan = call("parallelism", "parallelism.split", splitter.split, ir)
                plans.append((ir, plan))
                for index in plan.topological_part_order():
                    executables.append(
                        call("ir", "ir.to_executable", plan.parts[index].to_executable)
                    )
            else:
                executables.append(call("ir", "ir.to_executable", ir.to_executable))
        for executable in executables:
            owners[executable.name] = entry.name
        planned[entry.name] = len(executables)
        submit_chain(pipeline, entry, executables, records, chain=True)
        submit_s.append(latency_clock() - begin)
    pipeline.run()
    host_s = clock() - start

    finish: Dict[str, List[float]] = {}
    for record in records:
        if record.finish_time is not None:
            finish.setdefault(owners[record.workflow_name], []).append(record.finish_time)
    jct_s = [
        max(finish[entry.name]) - entry.arrival
        for entry in corpus.entries
        if len(finish.get(entry.name, ())) == planned[entry.name]
    ]
    result = _outcome(
        pipeline, records, host_s, submit_s, jct_s, sum(planned.values()), part.cache
    )
    result.counters["parallelism.splits"] = len(plans)
    result.counters["parallelism.parts"] = sum(plan.num_parts for _, plan in plans)
    if check:
        result.problems = check_corpus(part, compiled, plans)
    return result


def check_corpus(part: CorpusPart, compiled: Dict[str, list], plans: List[tuple]) -> List[str]:
    """Recompiled IRs equal the corpus's; every split partitions its IR."""
    problems: List[str] = []
    for entry in part.corpus.entries:
        ours = [ir_to_dict(ir) for ir in compiled[entry.name]]
        if ours != [ir_to_dict(ir) for ir in entry.irs]:
            problems.append(f"{entry.name}: recompiled IR differs from the corpus IR")
    budget = part.splitter.budget
    for ir, plan in plans:
        seen: List[str] = [name for p in plan.parts for name in p.nodes]
        if sorted(seen) != sorted(ir.nodes):
            problems.append(f"{ir.name}: split parts do not partition the IR")
        for index, p in enumerate(plan.parts):
            if not budget.within(budget.exact_cost(p)):
                problems.append(f"{ir.name}: part {index} exceeds the budget")
    return problems


def reference_corpus(seed: int, size: int = CORPUS_SIZE) -> List[tuple]:
    """The fingerprint ``sql_nl_pipeline.run`` reports on this part's corpus and fleet."""
    corpus = build_corpus(CorpusSpec(seed=seed, size=size))
    return sql_nl_pipeline.run(
        corpus=corpus,
        clusters=mix_clusters(),
        cache_gb=CACHE_GB,
        split_max_steps=SPLIT_MAX_STEPS,
    ).fingerprint


# ---------------------------------------------------------------------------
# fleet-steady and fleet-burst
# ---------------------------------------------------------------------------


@dataclass
class FleetPart:
    spec: object
    clock: SimClock
    journal: Optional[Journal]
    pipeline: AdmissionPipeline


def fleet_spec(seed: int, size: int, burst: bool):
    spec = build_fleet(size, seed=seed)
    if burst:
        spec.arrivals = [(0.0,) + arrival[1:] for arrival in spec.arrivals]
    return spec


def setup_fleet(seed: int, size: int, burst: bool, journaled: bool) -> FleetPart:
    spec = fleet_spec(seed, size, burst)
    clock = SimClock()
    journal = Journal() if journaled else None
    pipeline = _pipeline(
        spec.clusters,
        spec.seed,
        FLEET_CONFIG,
        spec.tenant_weights,
        clock=clock,
        journal=journal,
    )
    return FleetPart(spec, clock, journal, pipeline)


def instrument_fleet(ledger: Ledger, part: FleetPart) -> None:
    instrument_clock(ledger, part.clock)
    _instrument_engine(ledger, part.pipeline)
    if part.journal is not None:
        for method in ("append", "workflow_spec_dict"):
            wrap_method(ledger, part.journal, method, "journal")


def run_fleet(part: FleetPart, ledger: Optional[Ledger] = None, check: bool = False) -> PartResult:
    """Submit every arrival, then drive the clock.

    ``ledger`` and ``check`` only match :func:`run_corpus`: the wrapped
    collaborators carry the tracing, and a fleet's one check is the
    reference run.
    """
    pipeline = part.pipeline
    records = []
    submit_s: List[float] = []
    clock = HOST_CLOCK
    latency_clock = time.perf_counter
    start = clock()
    for at, workflow, user, priority, slo_class in part.spec.arrivals:
        begin = latency_clock()
        records.append(
            pipeline.submit_at(at, workflow, user=user, priority=priority, slo_class=slo_class)
        )
        submit_s.append(latency_clock() - begin)
    pipeline.run()
    host_s = clock() - start
    jct_s = [r.finish_time - r.arrival_time for r in records if r.finish_time is not None]
    return _outcome(pipeline, records, host_s, submit_s, jct_s, len(records), None)


def reference_fleet(seed: int, size: int, burst: bool, journaled: bool) -> List[tuple]:
    """The fingerprint of this part's fleet run through the plain ``fleetgen`` path."""
    spec = fleet_spec(seed, size, burst)
    pipeline = build_pipeline(spec, FLEET_CONFIG, journal=Journal() if journaled else None)
    records = submit_fleet(pipeline, spec)
    pipeline.run()
    return fingerprint(records)


def _instrument_engine(ledger: Ledger, pipeline: AdmissionPipeline) -> None:
    wrap_method(ledger, pipeline, "submit_at", "admission")
    for method in ("try_place", "release", "headroom"):
        wrap_method(ledger, pipeline.queue, method, "queue")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    parts: int
    setup: Callable[[int], object]
    instrument: Callable[[Ledger, object], None]
    run: Callable[..., PartResult]
    #: The run fingerprint of a part seed, through the program's own driver.
    reference: Callable[[int], List[tuple]]

    def part_seeds(self, seed: int) -> List[int]:
        return [seed * self.parts + index for index in range(self.parts)]


WORKLOADS: Dict[str, Workload] = {
    "corpus-mix": Workload(
        "corpus-mix", CORPUS_PARTS, setup_corpus, instrument_corpus, run_corpus, reference_corpus
    ),
    "fleet-steady": Workload(
        "fleet-steady",
        STEADY_PARTS,
        lambda seed: setup_fleet(seed, STEADY_SIZE, burst=False, journaled=True),
        instrument_fleet,
        run_fleet,
        lambda seed: reference_fleet(seed, STEADY_SIZE, False, True),
    ),
    "fleet-burst": Workload(
        "fleet-burst",
        BURST_PARTS,
        lambda seed: setup_fleet(seed, BURST_SIZE, burst=True, journaled=False),
        instrument_fleet,
        run_fleet,
        lambda seed: reference_fleet(seed, BURST_SIZE, True, False),
    ),
}
