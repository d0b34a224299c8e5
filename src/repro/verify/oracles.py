"""Differential oracles: the equivalences the engine advertises.

Per seed, the suite asserts:

* **submitters** — the single-tenant local submitter (Argo-manifest
  path) and the event-driven admission pipeline execute the same
  workflow to the same outcome, including virtual-time makespan.
* **split** — Algorithm 3 split+stitch, on one operator and through an
  admission pipeline, preserves monolithic output semantics across
  several splitter budgets, and the splitter refuses a budget only when
  some node exceeds it even compiled alone.  A plan the byte bounds
  decide without rendering equals the rendering path's: parts, names,
  assignment, cross and cut edges, and costs.
* **cache** — every cache policy (and the cached-step-skip flag) is
  output-transparent: caching changes timings, never results.
* **scores** — the incremental importance scorer (memoized L/F with
  dirty-set invalidation, heap-driven eviction) is decision-for-decision
  and float-for-float identical to the from-scratch scorer.
* **replay** — the same seed replays to a byte-identical full
  fingerprint (statuses, attempts, results, makespan), with failure
  injection and multi-valued results enabled.
* **backends** — compiled Argo/Airflow/Tekton output is structurally
  valid and the IR round-trips through its dict form unchanged.
* **fairness** — every admission fairness policy (strict-priority /
  weighted-fair / drf, and drf with checkpoint preemption) produces
  identical per-workflow outputs-view fingerprints on a contended
  multi-tenant fleet: fairness reorders scheduling, never results.
* **engine_fast** — the fast engine hot paths (parked-candidate
  admission indexes, waitq drain coalescing + dirty-version skip-scan,
  memoized capacity/headroom/fingerprints) are pure optimizations: a
  contended multi-tenant fleet run under ``fast=True`` and the
  straight-line naive mode produce identical admission logs, identical
  journal streams record-for-record, and identical full per-workflow
  fingerprints, with and without preemption.
* **journal** — the journal-backed engine is transparent: attaching a
  journal leaves the full fingerprint bit-identical, replaying the
  journal stream materializes the live record exactly, a sharded
  multi-replica fleet over one shared journal reaches the same
  per-workflow outputs as a single in-memory operator on a contended
  cluster, and every quartile prefix of its journal materializes to a
  resumable state.
* **adaptive** — the policy controller is off by default and honest
  when on: default ``PolicyConfig()`` is bit-identical to no policy at
  all on both the cache-manager and admission-pipeline paths, and a
  controller tune is deterministic per seed — two independent tunes
  produce byte-identical replayable ``AdaptationLog``\\ s.

Every oracle has the shape ``check(ir, seed) -> OracleOutcome`` so the
shrinker can re-run it against reduced candidate workflows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..caching.manager import CacheManager
from ..caching.policy import POLICY_REGISTRY
from ..control.policy import PolicyConfig
from ..core.submitter import AdmissionSubmitter, ArgoSubmitter
from ..engine.admission import AdmissionError, AdmissionPipeline, AdmissionRecord
from ..engine.config import EngineConfig
from ..engine.journal import Journal, prefix_violations
from ..engine.operator import WorkflowOperator
from ..engine.replicas import ShardedOperatorFleet
from ..engine.simclock import SimClock
from ..ir.graph import WorkflowIR
from ..ir.serialize import ir_to_dict
from ..k8s.apiserver import APIServer
from ..k8s.cluster import Cluster
from ..parallelism.budget import BudgetModel
from ..parallelism.splitter import SplitError, SplitPlan, WorkflowSplitter
from ..parallelism.stitch import manifest_submit, merge_part_records, run_parts
from ..workloads.fleetgen import FLEET_TENANTS
from .backends_conformance import conformance_problems
from .fingerprint import Fingerprint, describe_difference, fingerprint_record
from .generator import GeneratorConfig, generate_ir

_GB = 2**30

#: Forced-outcome workflows for cross-configuration comparison.
DETERMINISTIC_CONFIG = GeneratorConfig(deterministic=True)
#: Full-surface workflows (failures, multi-valued results) for replay.
STOCHASTIC_CONFIG = GeneratorConfig(deterministic=False)


def _cluster() -> Cluster:
    """A generous uniform cluster every generated workflow fits on."""
    return Cluster.uniform(
        "verify",
        num_nodes=4,
        cpu_per_node=32.0,
        memory_per_node=128 * _GB,
        gpu_per_node=4,
    )


def _operator(seed: int, **kwargs) -> WorkflowOperator:
    return WorkflowOperator(
        SimClock(), _cluster(), api_server=APIServer(), seed=seed, **kwargs
    )


def _execute(ir: WorkflowIR, seed: int, **kwargs) -> Fingerprint:
    operator = _operator(seed, **kwargs)
    record = operator.submit(ir.to_executable())
    operator.run_to_completion()
    return fingerprint_record(ir, record)


def _cache_capacity(ir: WorkflowIR) -> int:
    """A third of the workflow's output bytes: small enough to force
    eviction decisions, never zero."""
    total_bytes = sum(
        artifact.size_bytes
        for node in ir.nodes.values()
        for artifact in node.outputs
    )
    return max(4096, total_bytes // 3)


def _first_difference(left: object, right: object) -> tuple:
    """The first differing ``(left, right)`` item pair of two lists, or
    the two sides whole: scalars, or lists differing only in length."""
    if not isinstance(left, list):
        return left, right
    return next(((a, b) for a, b in zip(left, right) if a != b), (left, right))


@dataclass(frozen=True)
class OracleOutcome:
    """Verdict of one oracle on one seed."""

    oracle: str
    seed: int
    ok: bool
    detail: str = ""
    digests: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Oracle:
    """A named differential check over a generated workflow."""

    name: str
    #: Which generator mode this oracle's workflow uses.
    config: GeneratorConfig
    check: Callable[[WorkflowIR, int], OracleOutcome]

    def run(self, seed: int) -> OracleOutcome:
        """Check the seed's generated workflow.

        A generator that is not seed-deterministic fails the seed before
        the check runs: no rerun, and no shrink of the seed's workflow,
        could reproduce a verdict on it.  :attr:`check` itself takes any
        IR, so the shrinker calls it on reduced workflows directly.
        """
        ir = generate_ir(seed, self.config)
        if ir_to_dict(generate_ir(seed, self.config)) != ir_to_dict(ir):
            return OracleOutcome(
                self.name, seed, False, "generator is not seed-deterministic"
            )
        return self.check(ir, seed)


# ------------------------------------------------------------------ oracles


def check_submitters(ir: WorkflowIR, seed: int) -> OracleOutcome:
    """LocalSubmitter (manifest path) ≡ AdmissionSubmitter (pipeline)."""
    local = ArgoSubmitter(operator=_operator(seed))
    local_fp = fingerprint_record(ir, local.submit(ir))
    pipeline = AdmissionPipeline([_cluster()], seed=seed)
    try:
        record = AdmissionSubmitter(pipeline=pipeline).submit(ir)
    except AdmissionError as exc:
        return OracleOutcome(
            "submitters", seed, False, f"admission rejected: {exc}",
            digests=(local_fp.digest(),),
        )
    admission_fp = fingerprint_record(ir, record)
    digests = (local_fp.digest(), admission_fp.digest())
    diff = describe_difference(local_fp, admission_fp, view="outputs")
    if diff is not None:
        return OracleOutcome(
            "submitters", seed, False, f"local != admission: {diff}", digests
        )
    if local_fp.data["makespan"] != admission_fp.data["makespan"]:
        return OracleOutcome(
            "submitters",
            seed,
            False,
            f"makespan diverged: local {local_fp.data['makespan']} != "
            f"admission {admission_fp.data['makespan']}",
            digests,
        )
    return OracleOutcome("submitters", seed, True, digests=digests)


def _split_budgets(ir: WorkflowIR) -> List[BudgetModel]:
    """Budgets that force the splitter to actually cut this workflow."""
    whole = BudgetModel().exact_cost(ir)
    return [
        BudgetModel(max_yaml_bytes=max(1024, int(whole.yaml_bytes * 0.6))),
        BudgetModel(max_yaml_bytes=max(1024, int(whole.yaml_bytes * 0.35))),
        BudgetModel(max_steps=max(1, (whole.steps + 1) // 2)),
    ]


def _plan_difference(plan: SplitPlan, reference: SplitPlan) -> Optional[str]:
    """What first differs between two plans of one workflow, if anything."""
    for label, ours, theirs in (
        ("part names", [p.name for p in plan.parts], [p.name for p in reference.parts]),
        ("parts", plan.parts, reference.parts),
        ("assignment", plan.assignment, reference.assignment),
        ("cross edges", plan.cross_edges, reference.cross_edges),
        ("cut edges", plan.cut_edges, reference.cut_edges),
        ("costs", plan.costs, reference.costs),
    ):
        if ours != theirs:
            return label
    return None


def check_split(ir: WorkflowIR, seed: int) -> OracleOutcome:
    """Monolithic ≡ split+stitch across splitter budgets, the splitter
    refuses a budget only when no split can meet it, and a plan made by
    byte bounds is the rendering path's."""
    mono = ArgoSubmitter(operator=_operator(seed))
    mono_fp = fingerprint_record(ir, mono.submit(ir))
    digests = [mono_fp.digest()]
    for budget in _split_budgets(ir):
        splitter = WorkflowSplitter(budget)
        try:
            plan = splitter.split(ir)
        except SplitError as exc:
            # A lone node can exceed an aggressive byte budget; no split
            # exists then.  Any other refusal is a splitter bug.
            if all(splitter.fits_alone(ir, name) for name in ir.nodes):
                return OracleOutcome(
                    "split",
                    seed,
                    False,
                    f"splitter refused a splittable workflow "
                    f"(budget yaml<={budget.max_yaml_bytes} "
                    f"steps<={budget.max_steps}): {exc}",
                    tuple(digests),
                )
            continue
        if splitter.split_by_bounds(ir) is not None:
            difference = _plan_difference(plan, splitter.split_rendering(ir))
            if difference is not None:
                return OracleOutcome(
                    "split",
                    seed,
                    False,
                    f"the plan by bounds differs from the rendering path's in "
                    f"its {difference} (budget yaml<={budget.max_yaml_bytes} "
                    f"steps<={budget.max_steps})",
                    tuple(digests),
                )
        operator_fp, admission_fp = _split_runs(ir, plan, seed)
        digests.append(operator_fp.digest())
        for leg, split_fp in (("operator", operator_fp), ("admission", admission_fp)):
            diff = describe_difference(mono_fp, split_fp, view="outputs")
            if diff is not None:
                return OracleOutcome(
                    "split",
                    seed,
                    False,
                    f"{plan.num_parts}-part split diverged on the {leg} "
                    f"(budget yaml<={budget.max_yaml_bytes} "
                    f"steps<={budget.max_steps}): {diff}",
                    tuple(digests),
                )
    return OracleOutcome("split", seed, True, digests=tuple(digests))


def _split_runs(ir: WorkflowIR, plan: SplitPlan, seed: int) -> List[Fingerprint]:
    """Fingerprints of ``plan`` run by the split-part executor on one
    operator, each part an Argo manifest (so the CRD size check runs),
    and through an admission pipeline."""
    operator = _operator(seed)
    on_operator = run_parts(plan.num_parts, plan.cross_edges, manifest_submit(operator, plan))
    operator.run_to_completion()
    pipeline = AdmissionPipeline([_cluster()], seed=seed)
    through_admission = run_parts(
        plan.num_parts,
        plan.cross_edges,
        lambda index, results, done: pipeline.submit_at(
            pipeline.clock.now,
            plan.parts[index].to_executable(),
            on_complete=done,
            initial_results=results,
        ).record,
    )
    pipeline.run()
    return [
        fingerprint_record(ir, merge_part_records(ir.name, records))
        for records in (on_operator, through_admission)
    ]


def check_cache(ir: WorkflowIR, seed: int) -> OracleOutcome:
    """Cache-off ≡ cache-on outputs for every registered policy."""
    baseline = _execute(ir, seed)
    digests = [baseline.digest()]
    capacity = _cache_capacity(ir)
    configs = [(policy, policy, False) for policy in sorted(POLICY_REGISTRY)]
    configs.append(("couler+skip", "couler", True))
    for label, policy, skip_cached_steps in configs:
        cached_fp = _execute(
            ir, seed, skip_cached_steps=skip_cached_steps,
            cache_manager=CacheManager(policy=policy, capacity_bytes=capacity),
        )
        digests.append(cached_fp.digest())
        diff = describe_difference(baseline, cached_fp, view="outputs")
        if diff is not None:
            return OracleOutcome(
                "cache",
                seed,
                False,
                f"policy {label!r} changed outputs: {diff}",
                tuple(digests),
            )
    return OracleOutcome("cache", seed, True, digests=tuple(digests))


def _scored_run(ir: WorkflowIR, seed: int, scorer: str) -> Tuple[Fingerprint, dict]:
    """Execute ``ir`` under the Couler policy with the given scorer mode.

    Returns the output fingerprint plus a trace of everything the
    scoring path influenced: the structured admission decision log
    (admitted / evicted-in-order / newcomer score, floats as exact
    reprs), the final resident set, and a full post-run breakdown sweep
    of every known artifact against the live cache state.
    """
    manager = CacheManager(
        policy="couler",
        capacity_bytes=_cache_capacity(ir),
        scorer=scorer,
        record_decisions=True,
    )
    fingerprint = _execute(ir, seed, cache_manager=manager)
    sweep = {
        uid: {k: repr(v) for k, v in manager.scorer.breakdown(
            uid, manager.store.contains
        ).items()}
        for uid in sorted(manager.index.artifacts)
    }
    trace = {
        "decisions": manager.decisions,
        "resident": sorted(manager.store.uids()),
        "sweep": sweep,
    }
    return fingerprint, trace


def check_scores(ir: WorkflowIR, seed: int) -> OracleOutcome:
    """Incremental scorer ≡ from-scratch scorer, decision for decision."""
    naive_fp, naive_trace = _scored_run(ir, seed, "naive")
    incr_fp, incr_trace = _scored_run(ir, seed, "incremental")
    digests = (
        naive_fp.digest(),
        hashlib.sha256(repr(naive_trace).encode()).hexdigest(),
        incr_fp.digest(),
        hashlib.sha256(repr(incr_trace).encode()).hexdigest(),
    )
    for key in ("decisions", "resident", "sweep"):
        if naive_trace[key] != incr_trace[key]:
            return OracleOutcome(
                "scores",
                seed,
                False,
                f"incremental scorer diverged from from-scratch on {key}: "
                f"naive={naive_trace[key]!r} incremental={incr_trace[key]!r}"[:2000],
                digests,
            )
    diff = describe_difference(naive_fp, incr_fp, view="outputs")
    if diff is not None:
        return OracleOutcome(
            "scores", seed, False, f"outputs diverged: {diff}", digests
        )
    return OracleOutcome("scores", seed, True, digests=digests)


def check_replay(ir: WorkflowIR, seed: int) -> OracleOutcome:
    """Same seed, same engine, twice — identical full fingerprints."""
    first = _execute(ir, seed)
    second = _execute(ir, seed)
    digests = (first.digest(), second.digest())
    diff = describe_difference(first, second, view="full")
    if diff is not None:
        return OracleOutcome(
            "replay", seed, False, f"replay diverged: {diff}", digests
        )
    return OracleOutcome("replay", seed, True, digests=digests)


# ------------------------------------------------------- contended scenario
#
# The fairness, engine_fast and journal oracles share one scenario: the
# candidate plus generated co-tenants queueing on one small node.


def _co_tenants(ir: WorkflowIR, seed: int, offset: int, count: int) -> List[WorkflowIR]:
    """The candidate plus ``count`` generated co-tenants.

    Each oracle draws from its own seed block (fairness 101+,
    engine_fast 301+, journal 501+), far outside the sweep range, so
    fleet members never collide with the candidate's own name
    (``verify-<seed>``).
    """
    return [ir] + [
        generate_ir(seed * 1000 + offset + index, DETERMINISTIC_CONFIG)
        for index in range(count)
    ]


def _contended_cluster(name: str) -> Cluster:
    """One node sized so any one workflow fits but two rarely do.

    Each oracle keeps its own ``name``: it is part of the admission log
    the engine_fast oracle digests.
    """
    return Cluster.uniform(
        name, num_nodes=1, cpu_per_node=24.0, memory_per_node=16 * _GB, gpu_per_node=6
    )


def _contended_run(
    fleet: List[WorkflowIR], seed: int, cluster: str, **pipeline_kwargs
) -> Tuple[AdmissionPipeline, List[Tuple[WorkflowIR, AdmissionRecord]]]:
    """Run ``fleet`` through one pipeline on the contended ``cluster``.

    Arrivals are staggered and tenants alternate SLO lanes, priorities
    and fleetgen's fairness weights, so policies genuinely reorder (and,
    with preemption, evict) work.  Returns the finished pipeline and
    each member's admission, in submission order.
    """
    pipeline = AdmissionPipeline(
        [_contended_cluster(cluster)],
        seed=seed,
        aging_rate=0.01,
        tenant_weights=dict(FLEET_TENANTS),
        **pipeline_kwargs,
    )
    admissions = []
    for index, member in enumerate(fleet):
        admission = pipeline.submit_at(
            index * 2.0,
            member.to_executable(),
            user=f"t{index % 4}",
            priority=(index * 3) % 7,
            slo_class="serving" if index % 2 else "batch",
        )
        admissions.append((member, admission))
    pipeline.run()
    return pipeline, admissions


def _digests(
    admissions: List[Tuple[WorkflowIR, AdmissionRecord]], view: str
) -> List[Tuple[str, str]]:
    """(workflow name, ``view`` digest | rejection marker) per admission."""
    outcomes: List[Tuple[str, str]] = []
    for member, admission in admissions:
        if admission.record is None:
            outcomes.append((member.name, f"rejected:{admission.reject_reason}"))
            continue
        fingerprint = fingerprint_record(member, admission.record)
        digest = fingerprint.digest if view == "full" else fingerprint.outputs_digest
        outcomes.append((member.name, digest()))
    return outcomes


def _fairness_run(
    fleet: List[WorkflowIR], seed: int, fairness: str, preemption: bool
) -> List[Tuple[str, str]]:
    """Sorted (workflow name, outputs digest | rejection marker) pairs
    of one fairness policy's contended run."""
    _, admissions = _contended_run(
        fleet, seed, "fair-verify", fairness=fairness, preemption=preemption
    )
    return sorted(_digests(admissions, "outputs"))


def check_fairness(ir: WorkflowIR, seed: int) -> OracleOutcome:
    """Fairness policies reorder scheduling, never results.

    Every policy (and DRF with preemption — checkpoint/resume included)
    must produce the same outputs-view fingerprint per workflow as the
    strict-priority baseline, and the preempting configuration must
    replay deterministically under the same seed.
    """
    fleet = _co_tenants(ir, seed, 101, 7)
    configs = [
        ("strict-priority", False),
        ("weighted-fair", False),
        ("drf", False),
        ("drf", True),
    ]
    results = {
        (fairness, preemption): _fairness_run(fleet, seed, fairness, preemption)
        for fairness, preemption in configs
    }
    digests = tuple(
        hashlib.sha256(repr(results[key]).encode()).hexdigest() for key in configs
    )
    baseline = results[("strict-priority", False)]
    for fairness, preemption in configs[1:]:
        candidate = results[(fairness, preemption)]
        if candidate != baseline:
            first = _first_difference(baseline, candidate)
            return OracleOutcome(
                "fairness", seed, False,
                f"policy {fairness!r} (preemption={preemption}) changed "
                f"outputs: strict={first[0]!r} vs {first[1]!r}",
                digests,
            )
    replay = _fairness_run(fleet, seed, "drf", True)
    if replay != results[("drf", True)]:
        return OracleOutcome(
            "fairness", seed, False,
            "drf+preemption run is not same-seed deterministic", digests,
        )
    return OracleOutcome("fairness", seed, True, digests=digests)


def _engine_mode_run(
    fleet: List[WorkflowIR], seed: int, fast: bool, preemption: bool
) -> Tuple[List[tuple], List[str], List[Tuple[str, str]], float]:
    """One contended fleet run in the given engine mode.

    Returns everything the fast paths could plausibly perturb: the
    structured admission log (every :class:`AdmissionRecord` field,
    including deferral counts — the parked-candidate index backfills
    these in bulk, so they must still match the naive per-pass
    increments exactly), the journal stream in its own line format
    (:meth:`JournalRecord.to_json`, keys sorted), the per-workflow full
    fingerprints, and the virtual-clock makespan.
    """
    pipeline, admissions = _contended_run(
        fleet,
        seed,
        "engine-verify",
        fairness="drf" if preemption else "weighted-fair",
        preemption=preemption,
        fast=fast,
        journal=Journal(),
    )
    admission_log = [
        (
            admission.workflow_name,
            admission.user,
            admission.priority,
            admission.arrival_time,
            admission.admitted,
            admission.reject_reason,
            admission.admit_time,
            admission.place_time,
            admission.finish_time,
            admission.cluster_name,
            admission.deferrals,
            admission.slo_class,
            admission.preemptions,
            admission.restored_at,
        )
        for _, admission in admissions
    ]
    journal_log = [record.to_json() for record in pipeline.journal.records()]
    return (
        admission_log, journal_log, _digests(admissions, "full"), pipeline.clock.now
    )


def check_engine_fast(ir: WorkflowIR, seed: int) -> OracleOutcome:
    """Fast engine hot paths ≡ the straight-line naive reference.

    ``fast=True`` (parked-candidate admission indexes, coalesced waitq
    drains with dirty-version skip-scans) and ``fast=False`` must be
    observationally identical on a contended multi-tenant fleet:
    admission logs field-for-field (deferral crediting included),
    journal streams record-for-record, full per-workflow fingerprints,
    and makespans — with and without checkpoint preemption.  A
    single-operator run is diffed the same way.
    """
    fleet = _co_tenants(ir, seed, 301, 7)
    digests: List[str] = []
    parts = ("admission log", "journal stream", "fingerprints", "makespan")
    for preemption in (False, True):
        fast_run = _engine_mode_run(fleet, seed, fast=True, preemption=preemption)
        naive_run = _engine_mode_run(fleet, seed, fast=False, preemption=preemption)
        digests.append(hashlib.sha256(repr(fast_run).encode()).hexdigest())
        digests.append(hashlib.sha256(repr(naive_run).encode()).hexdigest())
        for part, fast_side, naive_side in zip(parts, fast_run, naive_run):
            if fast_side != naive_side:
                first = _first_difference(naive_side, fast_side)
                return OracleOutcome(
                    "engine_fast",
                    seed,
                    False,
                    f"fast engine diverged from naive on {part} "
                    f"(preemption={preemption}): {first!r}"[:2000],
                    tuple(digests),
                )
    naive_fp = _execute(ir, seed, fast=False)
    fast_fp = _execute(ir, seed)
    digests += [naive_fp.digest(), fast_fp.digest()]
    diff = describe_difference(naive_fp, fast_fp, view="full")
    if diff is not None:
        return OracleOutcome(
            "engine_fast", seed, False,
            f"single-operator fast run diverged: {diff}", tuple(digests),
        )
    return OracleOutcome("engine_fast", seed, True, digests=tuple(digests))


def _fleet_outputs(
    fleet: List[WorkflowIR], seed: int, replicas: int
) -> Tuple[List[Tuple[str, str]], Journal]:
    """Per-workflow outputs digests from an N-replica sharded run."""
    journal = Journal()
    sharded = ShardedOperatorFleet(
        SimClock(), _contended_cluster("journal-verify"), replicas=replicas,
        journal=journal, seed=seed,
    )
    submissions = [(member, sharded.submit(member.to_executable())) for member in fleet]
    sharded.run_to_completion()
    outcomes = sorted(
        (member.name, fingerprint_record(member, record).outputs_digest())
        for member, record in submissions
    )
    return outcomes, journal


def check_journal(ir: WorkflowIR, seed: int) -> OracleOutcome:
    """Journal-backed ≡ in-memory, single-replica and sharded."""
    # 1. Attaching a journal must not perturb execution at all: the
    #    full fingerprint (makespan, attempts, cache counters included)
    #    is bit-identical to the journal-free run.
    baseline = _execute(ir, seed)
    journal = Journal()
    journaled = _execute(ir, seed, journal=journal)
    digests = [baseline.digest(), journaled.digest()]
    diff = describe_difference(baseline, journaled, view="full")
    if diff is not None:
        return OracleOutcome(
            "journal", seed, False,
            f"attaching a journal changed execution: {diff}", tuple(digests),
        )
    # 2. Replaying the stream reproduces the live record exactly.
    materialized = journal.materialize(ir.name)
    if materialized is None:
        return OracleOutcome(
            "journal", seed, False,
            f"journal holds no stream for {ir.name!r}", tuple(digests),
        )
    replayed = fingerprint_record(ir, materialized)
    digests.append(replayed.digest())
    diff = describe_difference(journaled, replayed, view="full")
    if diff is not None:
        return OracleOutcome(
            "journal", seed, False,
            f"journal replay diverged from the live record: {diff}",
            tuple(digests),
        )
    # 3. N stateless shard-assigned replicas over one shared journal ≡
    #    one in-memory operator, on a contended single-node cluster
    #    (this also proves cross-replica wakeups: without them, queued
    #    steps starve and the fleet never finishes).
    fleet = _co_tenants(ir, seed, 501, 3)
    single, _ = _fleet_outputs(fleet, seed, replicas=1)
    sharded, shard_journal = _fleet_outputs(fleet, seed, replicas=3)
    digests.append(hashlib.sha256(repr(sharded).encode()).hexdigest())
    if sharded != single:
        first = _first_difference(single, sharded)
        return OracleOutcome(
            "journal", seed, False,
            f"sharded fleet diverged from single operator: "
            f"single={first[0]!r} vs sharded={first[1]!r}",
            tuple(digests),
        )
    # 4. Every quartile prefix of the shard journal materializes to a
    #    resumable state (the property tests sweep every prefix).
    violations = prefix_violations(shard_journal)
    if violations:
        return OracleOutcome(
            "journal", seed, False, "; ".join(violations), tuple(digests)
        )
    return OracleOutcome("journal", seed, True, digests=tuple(digests))


def _policy_pipeline_outcome(
    ir: WorkflowIR, seed: int, config: EngineConfig
) -> Tuple[str, Optional[Fingerprint]]:
    """Run ``ir`` through a pipeline built from ``config``.

    Returns ``("ok", fingerprint)`` or ``("rejected:<reason>", None)`` —
    a rejection is only an oracle failure if the two configs disagree.
    """
    pipeline = AdmissionPipeline(
        [_cluster()], seed=seed, **config.pipeline_kwargs()
    )
    try:
        record = AdmissionSubmitter(pipeline=pipeline).submit(ir)
    except AdmissionError as exc:
        return f"rejected:{exc}", None
    return "ok", fingerprint_record(ir, record)


@lru_cache(maxsize=8)
def _adaptive_tune_digests(bucket: int) -> Tuple[str, str, bool]:
    """Two independent tiny controller tunes for one seed bucket.

    Returns (first digest, JSON-roundtripped digest, replay verdict).
    The tune is deliberately small — size-6 corpus, population 4, one
    halving round — because the property under test is determinism of
    the search, not the quality of the winner; the cache amortizes it
    across the 16 verify seeds that share a bucket.
    """
    from ..control.controller import AdaptationLog, Controller

    kwargs = dict(
        seed=bucket, corpus_size=6, population=4, rounds=1, cache_gb=0.25
    )
    first = Controller(**kwargs).tune()
    roundtrip = AdaptationLog.from_json(first.log.to_json())
    replayed = Controller(**kwargs).replay(roundtrip)
    return first.log.digest(), roundtrip.digest(), replayed


def check_adaptive(ir: WorkflowIR, seed: int) -> OracleOutcome:
    """Controller-off ≡ static defaults; controller-on deterministic.

    1. ``CacheManager(weights=PolicyConfig().score_weights())`` is
       bit-identical (full fingerprint: outputs, timings, cache
       counters) to the plain manager — the default knob bundle changes
       nothing.
    2. ``EngineConfig(policy=PolicyConfig())`` builds a pipeline whose
       run is bit-identical to the policy-free ``EngineConfig()`` one.
    3. A tiny controller tune re-run from the same seed produces a
       byte-identical :class:`AdaptationLog` (checked through a JSON
       round-trip), and ``Controller.replay`` re-derives it.
    """
    capacity = _cache_capacity(ir)
    plain = _execute(
        ir, seed,
        cache_manager=CacheManager(policy="couler", capacity_bytes=capacity),
    )
    defaulted = _execute(
        ir, seed,
        cache_manager=CacheManager(
            policy="couler",
            capacity_bytes=capacity,
            weights=PolicyConfig().score_weights(),
        ),
    )
    digests = [plain.digest(), defaulted.digest()]
    diff = describe_difference(plain, defaulted, view="full")
    if diff is not None:
        return OracleOutcome(
            "adaptive", seed, False,
            f"default PolicyConfig changed the cache manager run: {diff}",
            tuple(digests),
        )
    bare_status, bare_fp = _policy_pipeline_outcome(ir, seed, EngineConfig())
    pol_status, pol_fp = _policy_pipeline_outcome(
        ir, seed, EngineConfig(policy=PolicyConfig())
    )
    if bare_status != pol_status:
        return OracleOutcome(
            "adaptive", seed, False,
            f"default PolicyConfig changed the admission verdict: "
            f"{bare_status!r} != {pol_status!r}",
            tuple(digests),
        )
    if bare_fp is not None and pol_fp is not None:
        digests += [bare_fp.digest(), pol_fp.digest()]
        diff = describe_difference(bare_fp, pol_fp, view="full")
        if diff is not None:
            return OracleOutcome(
                "adaptive", seed, False,
                f"default PolicyConfig changed the pipeline run: {diff}",
                tuple(digests),
            )
    first, second, replayed = _adaptive_tune_digests(seed // 16)
    digests += [first, second]
    if first != second:
        return OracleOutcome(
            "adaptive", seed, False,
            f"controller tune is not deterministic: {first[:16]} != "
            f"{second[:16]} (seed bucket {seed // 16})",
            tuple(digests),
        )
    if not replayed:
        return OracleOutcome(
            "adaptive", seed, False,
            f"AdaptationLog replay failed to re-derive the log "
            f"(seed bucket {seed // 16})",
            tuple(digests),
        )
    return OracleOutcome("adaptive", seed, True, digests=tuple(digests))


def check_backends(ir: WorkflowIR, seed: int) -> OracleOutcome:
    """Structural conformance of all compiled backends + IR roundtrip."""
    problems = conformance_problems(ir)
    if problems:
        return OracleOutcome(
            "backends", seed, False, "; ".join(problems[:5]),
            digests=(hashlib.sha256("\n".join(problems).encode()).hexdigest(),),
        )
    digest = hashlib.sha256(
        repr(ir_to_dict(ir)).encode()
    ).hexdigest()
    return OracleOutcome("backends", seed, True, digests=(digest,))


ORACLES: Dict[str, Oracle] = {
    "submitters": Oracle("submitters", DETERMINISTIC_CONFIG, check_submitters),
    "split": Oracle("split", DETERMINISTIC_CONFIG, check_split),
    "cache": Oracle("cache", DETERMINISTIC_CONFIG, check_cache),
    "replay": Oracle("replay", STOCHASTIC_CONFIG, check_replay),
    "backends": Oracle("backends", DETERMINISTIC_CONFIG, check_backends),
    "scores": Oracle("scores", DETERMINISTIC_CONFIG, check_scores),
    "fairness": Oracle("fairness", DETERMINISTIC_CONFIG, check_fairness),
    "journal": Oracle("journal", DETERMINISTIC_CONFIG, check_journal),
    "engine_fast": Oracle("engine_fast", DETERMINISTIC_CONFIG, check_engine_fast),
    "adaptive": Oracle("adaptive", DETERMINISTIC_CONFIG, check_adaptive),
}


# ------------------------------------------------------------ corpus source

#: Default oracle set for corpus-drawn workflows: every row whose
#: generator config is deterministic.  That leaves out ``replay``, which
#: targets the fuzzer's stochastic mode (failure injection) that corpus
#: workflows, carrying no failure profiles, never exercise.
CORPUS_ORACLES: Tuple[str, ...] = tuple(
    sorted(name for name, oracle in ORACLES.items() if oracle.config.deterministic)
)


@lru_cache(maxsize=8)
def _corpus_pool(corpus_seed: int) -> Tuple[WorkflowIR, ...]:
    from ..workloads.corpus import CorpusSpec, build_corpus

    corpus = build_corpus(CorpusSpec(seed=corpus_seed, size=6))
    return tuple(ir for _entry, ir in corpus.workflows())


def corpus_ir(seed: int) -> WorkflowIR:
    """The corpus-drawn workflow a verify seed maps to.

    Seeds index into small scenario corpora (16 seeds share one corpus
    build, which the cache keeps warm), so a ``--source corpus`` sweep
    exercises frontend-compiled SQLFlow and NL workflows instead of the
    synthetic generator's.
    """
    pool = _corpus_pool(seed // 16)
    return pool[seed % len(pool)]


def select_oracles(names: Optional[Sequence[str]], source: str) -> List[str]:
    """Validate an oracle selection for a workflow ``source``.

    ``names`` defaults to every oracle the source can run: the whole
    table for ``"synthetic"``, :data:`CORPUS_ORACLES` for ``"corpus"``.
    Raises :class:`ValueError` on an unknown source or oracle, or on an
    oracle the source cannot run.
    """
    if source not in ("synthetic", "corpus"):
        raise ValueError(f"unknown source {source!r}; use 'synthetic' or 'corpus'")
    valid = sorted(ORACLES) if source == "synthetic" else list(CORPUS_ORACLES)
    for name in names or ():
        if name not in ORACLES:
            raise ValueError(f"unknown oracle {name!r}; choose from {valid}")
        if name not in valid:
            raise ValueError(
                f"oracle {name!r} cannot run on corpus workflows; choose from {valid}"
            )
    return list(names) if names else valid


# -------------------------------------------------------------------- suite


@dataclass
class VerifyReport:
    """Aggregate result of a seed sweep."""

    outcomes: List[OracleOutcome] = field(default_factory=list)

    @property
    def failures(self) -> List[OracleOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def aggregate_digest(self) -> str:
        """One digest over every oracle's fingerprints, in sweep order.

        Two runs of the same sweep must print the same digest — the CI
        gate runs the sweep twice and compares exactly this line.
        """
        hasher = hashlib.sha256()
        for outcome in self.outcomes:
            hasher.update(
                f"{outcome.oracle}:{outcome.seed}:{outcome.ok}".encode()
            )
            for digest in outcome.digests:
                hasher.update(digest.encode())
        return hasher.hexdigest()

    def counts(self) -> Dict[str, Tuple[int, int]]:
        """oracle name -> (passed, total)."""
        table: Dict[str, Tuple[int, int]] = {}
        for outcome in self.outcomes:
            passed, total = table.get(outcome.oracle, (0, 0))
            table[outcome.oracle] = (passed + (1 if outcome.ok else 0), total + 1)
        return table


def run_seed(
    seed: int,
    oracle_names: Optional[Sequence[str]] = None,
    source: str = "synthetic",
) -> List[OracleOutcome]:
    """Run the selected oracles (see :func:`select_oracles`) against one seed.

    ``source="synthetic"`` generates the seed's workflow with the
    fuzzer; ``source="corpus"`` draws a frontend-compiled workflow from
    the scenario corpus.
    """
    names = select_oracles(oracle_names, source)
    if source == "corpus":
        ir = corpus_ir(seed)
        return [ORACLES[name].check(ir, seed) for name in names]
    return [ORACLES[name].run(seed) for name in names]


def run_suite(
    seeds: Sequence[int],
    oracle_names: Optional[Sequence[str]] = None,
    fail_fast: bool = False,
    source: str = "synthetic",
) -> VerifyReport:
    """Sweep ``seeds`` through the oracles; returns the full report."""
    report = VerifyReport()
    for seed in seeds:
        outcomes = run_seed(seed, oracle_names, source=source)
        report.outcomes.extend(outcomes)
        if fail_fast and any(not outcome.ok for outcome in outcomes):
            break
    return report
