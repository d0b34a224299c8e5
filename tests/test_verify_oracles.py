"""Differential oracles: all green on healthy code, sharp on broken code."""

import pytest

from repro.parallelism.splitter import WorkflowSplitter
from repro.verify.generator import generate_ir
from repro.verify.oracles import (
    DETERMINISTIC_CONFIG,
    ORACLES,
    run_seed,
    run_suite,
)


def test_oracle_registry_is_complete():
    assert set(ORACLES) == {
        "submitters",
        "split",
        "cache",
        "replay",
        "backends",
        "scores",
        "fairness",
        "journal",
        "engine_fast",
        "adaptive",
    }


@pytest.mark.slow
def test_all_oracles_pass_on_sample_seeds():
    for seed in (0, 7, 13):
        for outcome in run_seed(seed):
            assert outcome.ok, f"{outcome.oracle} seed={seed}: {outcome.detail}"


def test_run_seed_fails_when_the_generator_is_not_seed_deterministic(monkeypatch):
    from repro.verify import oracles as oracles_mod

    real = oracles_mod.generate_ir
    calls = []

    def drifting(seed, config):
        calls.append(seed)
        return real(seed + len(calls), config)

    monkeypatch.setattr(oracles_mod, "generate_ir", drifting)
    outcomes = run_seed(0, ["replay", "backends"])
    assert [o.oracle for o in outcomes] == ["replay", "backends"]
    for outcome in outcomes:
        assert not outcome.ok
        assert "not seed-deterministic" in outcome.detail


def test_run_seed_rejects_unknown_oracle():
    with pytest.raises(ValueError, match="unknown oracle"):
        run_seed(0, ["split", "nope"])


def test_run_seed_subset_runs_only_requested():
    outcomes = run_seed(1, ["backends"])
    assert [outcome.oracle for outcome in outcomes] == ["backends"]


def test_split_oracle_actually_splits():
    """The budget heuristic must force multi-part plans on real seeds —
    a split oracle that never splits verifies nothing."""
    from repro.verify.oracles import _split_budgets

    multi_part = 0
    for seed in range(10):
        ir = generate_ir(seed, DETERMINISTIC_CONFIG)
        for budget in _split_budgets(ir):
            try:
                plan = WorkflowSplitter(budget).split(ir)
            except Exception:
                continue
            if plan.num_parts >= 2:
                multi_part += 1
    assert multi_part >= 5


def test_split_oracle_budgets_by_bounds_and_by_rendering():
    """The steps-only budget is decided by byte bounds, so the oracle
    compares its plan with the rendering path's; the byte budgets bind
    on the YAML size, so only a render decides them."""
    from repro.verify.oracles import _split_budgets

    for seed in range(10):
        ir = generate_ir(seed, DETERMINISTIC_CONFIG)
        decided = [
            WorkflowSplitter(budget).split_by_bounds(ir) is not None
            for budget in _split_budgets(ir)
        ]
        assert decided == [False, False, True], seed


def test_split_oracle_fails_when_a_plan_by_bounds_differs(monkeypatch):
    import dataclasses

    from repro.verify.oracles import check_split

    split_rendering = WorkflowSplitter.split_rendering

    def off_by_one(self, ir):
        plan = split_rendering(self, ir)
        plan.costs = [
            dataclasses.replace(cost, yaml_bytes=cost.yaml_bytes + 1) for cost in plan.costs
        ]
        return plan

    ir = generate_ir(3, DETERMINISTIC_CONFIG)
    assert check_split(ir, 3).ok
    monkeypatch.setattr(WorkflowSplitter, "split_rendering", off_by_one)
    outcome = check_split(ir, 3)
    assert not outcome.ok
    assert "differs from the rendering path's in its costs" in outcome.detail


def test_split_oracle_fails_on_a_refusal_it_cannot_excuse(monkeypatch):
    from repro.parallelism.splitter import SplitError
    from repro.verify.oracles import check_split

    def refuse(self, ir):
        raise SplitError("refused")

    monkeypatch.setattr(WorkflowSplitter, "split", refuse)
    outcome = check_split(generate_ir(3, DETERMINISTIC_CONFIG), 3)
    assert not outcome.ok
    assert "refused a splittable workflow" in outcome.detail


def test_split_oracle_runs_the_parts_through_admission(monkeypatch):
    """The admission leg is live: a pipeline that drops the results
    forwarded to a part fails the oracle where a guard reads a step in
    an earlier part, though the operator leg still forwards them."""
    from repro.engine.admission import AdmissionPipeline
    from repro.verify.oracles import check_split

    ir = generate_ir(3, DETERMINISTIC_CONFIG)
    assert check_split(ir, 3).ok
    submit_at = AdmissionPipeline.submit_at

    def forgetful(self, at, workflow, *args, initial_results=None, **kwargs):
        return submit_at(self, at, workflow, *args, **kwargs)

    monkeypatch.setattr(AdmissionPipeline, "submit_at", forgetful)
    outcome = check_split(ir, 3)
    assert not outcome.ok
    assert "diverged on the admission" in outcome.detail


def test_split_oracle_skips_a_budget_no_split_can_meet():
    from repro.verify.oracles import _split_budgets, check_split, corpus_ir

    # Corpus seed 0's "predict" node alone exceeds 35% of the workflow.
    ir = corpus_ir(0)
    tight = _split_budgets(ir)[1]
    assert not WorkflowSplitter(tight).fits_alone(ir, "predict")
    outcome = check_split(ir, 0)
    assert outcome.ok, outcome.detail
    # The monolithic run plus the two budgets that do split.
    assert len(outcome.digests) == 3


@pytest.mark.slow
def test_suite_report_aggregates_and_digest_is_stable():
    first = run_suite(range(3))
    second = run_suite(range(3))
    assert first.ok and second.ok
    assert first.aggregate_digest() == second.aggregate_digest()
    counts = first.counts()
    assert set(counts) == set(ORACLES)
    assert all(passed == total == 3 for passed, total in counts.values())


@pytest.mark.slow
def test_scores_oracle_sweep():
    """Tentpole acceptance: incremental ≡ from-scratch scorer over a
    wide fuzzer-seed sweep (decision logs, resident sets, breakdown
    sweeps and output fingerprints all identical)."""
    for seed in range(25):
        outcome = ORACLES["scores"].run(seed)
        assert outcome.ok, f"scores seed={seed}: {outcome.detail}"


@pytest.mark.slow
def test_fairness_oracle_sweep():
    """Tentpole acceptance: every fairness policy (and DRF with
    checkpoint preemption) is output-transparent across a wide
    fuzzer-seed sweep — scheduling reorders, results never change."""
    for seed in range(25):
        outcome = ORACLES["fairness"].run(seed)
        assert outcome.ok, f"fairness seed={seed}: {outcome.detail}"


def test_fairness_oracle_scenario_actually_contends():
    """An uncontended fleet verifies nothing: the oracle's scenario
    must produce real deferrals and (with preemption on) evictions."""
    from repro.verify.oracles import _co_tenants, _contended_run

    deferrals = preemptions = 0.0
    for seed in range(5):
        fleet = _co_tenants(generate_ir(seed, DETERMINISTIC_CONFIG), seed, 101, 7)
        pipeline, _ = _contended_run(
            fleet, seed, "fair-verify", fairness="drf", preemption=True
        )
        events = pipeline.metrics.get("admission_events_total")
        deferrals += events.value(event="deferral")
        preemptions += events.value(event="preemption")
    assert deferrals > 0
    assert preemptions > 0


def test_fairness_oracle_detects_output_divergence(monkeypatch):
    """The oracle must discriminate: make one policy's run lose a
    workflow's outputs and the check has to fail."""
    from repro.verify import oracles as oracles_mod
    from repro.verify.oracles import check_fairness

    original = oracles_mod._fairness_run

    def lossy(fleet, seed, fairness, preemption):
        outcomes = original(fleet, seed, fairness, preemption)
        if fairness == "drf" and not preemption:
            outcomes = [(name, "corrupted") for name, _ in outcomes[:1]] + outcomes[1:]
        return outcomes

    monkeypatch.setattr(oracles_mod, "_fairness_run", lossy)
    ir = generate_ir(0, DETERMINISTIC_CONFIG)
    outcome = check_fairness(ir, 0)
    assert not outcome.ok
    assert "drf" in outcome.detail


def test_scores_oracle_detects_divergent_scorer(monkeypatch):
    """The oracle must actually discriminate: skew the incremental
    scorer's importance and the check has to fail."""
    from repro.caching.score import IncrementalArtifactScorer
    from repro.verify.oracles import check_scores

    original = IncrementalArtifactScorer.importance

    def skewed(self, uid, is_cached=None):
        return original(self, uid, is_cached) + 1e-9

    monkeypatch.setattr(IncrementalArtifactScorer, "importance", skewed)
    ir = generate_ir(0, DETERMINISTIC_CONFIG)
    assert not check_scores(ir, 0).ok


def test_suite_fail_fast_stops_early(monkeypatch):
    from repro.verify import oracles as oracles_mod

    calls = []

    def always_fail(ir, seed):
        calls.append(seed)
        return oracles_mod.OracleOutcome("backends", seed, False, "boom")

    monkeypatch.setitem(
        oracles_mod.ORACLES,
        "backends",
        oracles_mod.Oracle("backends", DETERMINISTIC_CONFIG, always_fail),
    )
    report = run_suite(range(5), ["backends"], fail_fast=True)
    assert calls == [0]
    assert not report.ok
    assert report.failures[0].detail == "boom"


@pytest.mark.slow
def test_adaptive_oracle_sweep():
    """Tentpole acceptance: default PolicyConfig is bit-identical to no
    policy at all, and controller tunes are deterministic per seed —
    over fuzzer-generated and corpus-compiled workflows."""
    from repro.verify.oracles import check_adaptive, corpus_ir

    for seed in range(8):
        outcome = ORACLES["adaptive"].run(seed)
        assert outcome.ok, f"adaptive seed={seed}: {outcome.detail}"
    for seed in (0, 3, 17):
        outcome = check_adaptive(corpus_ir(seed), seed)
        assert outcome.ok, f"adaptive corpus seed={seed}: {outcome.detail}"


def test_adaptive_oracle_catches_semantic_policy_drift():
    """A non-default knob bundle must NOT pass the bit-identity leg —
    otherwise the oracle is vacuous.  Zeroing the Eq. 6 score weights
    reorders eviction decisions, so the fingerprint's cache counters
    move on at least one fuzzer seed."""
    from repro.caching.manager import CacheManager
    from repro.control.policy import PolicyConfig
    from repro.verify.oracles import _cache_capacity, _execute

    diverged = 0
    for seed in range(10):
        ir = generate_ir(seed, DETERMINISTIC_CONFIG)
        capacity = _cache_capacity(ir)
        plain = _execute(
            ir, seed,
            cache_manager=CacheManager(policy="couler", capacity_bytes=capacity),
        )
        skewed = _execute(
            ir, seed,
            cache_manager=CacheManager(
                policy="couler",
                capacity_bytes=capacity,
                weights=PolicyConfig(score_alpha=0.0, score_beta=0.0).score_weights(),
            ),
        )
        if plain.data != skewed.data:
            diverged += 1
    assert diverged > 0, (
        "zeroed score weights changed nothing on 10 seeds — the "
        "adaptive oracle's bit-identity leg would never catch drift"
    )
