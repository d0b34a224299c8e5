"""Fault injection & recovery tests (the chaos subsystem)."""

import pytest

from repro.caching.manager import CacheManager
from repro.chaos import (
    CacheOutage,
    ChaosInjector,
    ChaosPlan,
    ChaosPlanError,
    NodeCrash,
    OperatorRestart,
    PodEviction,
    check_cluster,
    check_read_accounting,
    full_check,
)
from repro.engine.admission import AdmissionPipeline
from repro.engine.config import EngineConfig
from repro.engine.operator import WorkflowOperator
from repro.engine.queue import UserQuota
from repro.engine.retry import RetryPolicy
from repro.engine.simclock import SimClock
from repro.engine.spec import (
    ArtifactSpec,
    ExecutableStep,
    ExecutableWorkflow,
    FailureProfile,
)
from repro.engine.status import StepStatus, WorkflowPhase, WorkflowRecord
from repro.k8s.cluster import Cluster
from repro.k8s.resources import ResourceQuantity
from repro.parallelism.budget import BudgetModel
from repro.parallelism.splitter import WorkflowSplitter
from repro.workloads.corpus import CorpusSpec, build_corpus, submit_chain
from repro.workloads.fleetgen import build_pipeline

pytestmark = pytest.mark.chaos

GB = 2**30


def _operator(num_nodes: int = 2, cpu: float = 8.0, **kwargs) -> WorkflowOperator:
    clock = SimClock()
    cluster = Cluster.uniform(
        "chaos", num_nodes, cpu_per_node=cpu, memory_per_node=32 * GB
    )
    return WorkflowOperator(clock, cluster, seed=0, **kwargs)


def _chain(name: str = "wf", steps: int = 2, duration: float = 60.0) -> ExecutableWorkflow:
    wf = ExecutableWorkflow(name=name)
    previous = None
    for index in range(steps):
        step_name = f"s{index}"
        wf.add_step(
            ExecutableStep(
                name=step_name,
                duration_s=duration,
                requests=ResourceQuantity(cpu=4, memory=GB),
                dependencies=[previous] if previous else [],
            )
        )
        previous = step_name
    return wf


class TestNodeCrashRecovery:
    def test_crash_requeues_without_charging_app_budget(self):
        operator = _operator(num_nodes=2)
        record = operator.submit(_chain(steps=1))
        operator.clock.run(until=10.0)
        node_name = operator.running_attempt_pods()[0].node_name
        displaced = operator.fail_node(node_name)
        assert len(displaced) == 1
        operator.clock.run()
        step = record.step("s0")
        assert record.phase == WorkflowPhase.SUCCEEDED
        assert step.attempts == 2
        assert step.infra_failures == 1  # the crash is not an app failure
        assert check_cluster(operator.cluster) == []

    def test_single_node_outage_pends_until_recovery(self):
        operator = _operator(num_nodes=1)
        record = operator.submit(_chain(steps=1))
        operator.clock.run(until=10.0)
        operator.fail_node("chaos-node-0")
        # Recovery is a scheduled event, exactly as the injector arms it.
        operator.clock.schedule(
            90.0, lambda: operator.recover_node("chaos-node-0")
        )
        operator.clock.run()
        assert record.phase == WorkflowPhase.SUCCEEDED
        # Requeued at ~15s (flat infra backoff), bound again at 100s.
        assert record.step("s0").finish_time >= 100.0

    def test_recovered_node_is_schedulable_again(self):
        operator = _operator(num_nodes=1)
        operator.fail_node("chaos-node-0")
        assert operator.cluster.ready_nodes() == []
        operator.recover_node("chaos-node-0")
        assert len(operator.cluster.ready_nodes()) == 1


class TestEviction:
    def test_evicted_pod_requeues_and_completes(self):
        operator = _operator(num_nodes=2)
        record = operator.submit(_chain(steps=1))
        operator.clock.run(until=10.0)
        pod = operator.running_attempt_pods()[0]
        assert operator.evict_pod(pod)
        assert pod.reason == "Evicted"
        assert pod.node_name is None  # binding cleared at eviction time
        operator.clock.run()
        step = record.step("s0")
        assert record.phase == WorkflowPhase.SUCCEEDED
        assert step.attempts == 2
        assert step.infra_failures == 1

    def test_eviction_survives_zero_retry_policy(self):
        # The legacy no-retry policy must not turn an infra eviction
        # into a terminal workflow failure: infra requeues ride their
        # own budget.
        operator = _operator(num_nodes=2, retry_policy=RetryPolicy(limit=0))
        record = operator.submit(_chain(steps=1))
        operator.clock.run(until=10.0)
        operator.evict_pod(operator.running_attempt_pods()[0])
        operator.clock.run()
        assert record.phase == WorkflowPhase.SUCCEEDED

    def test_evicting_unknown_pod_is_refused(self):
        operator = _operator()
        from repro.k8s.objects import Pod

        assert not operator.evict_pod(Pod("stranger"))


class TestOperatorRestart:
    def test_restart_resumes_from_record_snapshot(self):
        operator = _operator(num_nodes=2)
        record = operator.submit(_chain(steps=2, duration=60.0))
        # Let s0 finish (t=60), interrupt s1 mid-flight.
        operator.clock.run(until=90.0)
        assert record.step("s0").status == StepStatus.SUCCEEDED
        resumed = operator.simulate_restart(downtime=30.0)
        assert resumed == ["wf"]
        assert record.step("s1").status == StepStatus.PENDING
        operator.clock.run()
        assert record.phase == WorkflowPhase.SUCCEEDED
        # s0 was not re-executed: the resumed controller skipped it.
        assert record.step("s0").attempts == 1
        assert record.step("s1").attempts == 2
        assert record.step("s1").infra_failures == 1
        # Downtime is real: nothing finished before restart + downtime.
        assert record.finish_time >= 120.0

    def test_restart_keeps_completion_callbacks(self):
        operator = _operator(num_nodes=2)
        seen = []
        operator.submit(_chain(steps=1), on_complete=seen.append)
        operator.clock.run(until=10.0)
        operator.simulate_restart(downtime=5.0)
        operator.clock.run()
        assert len(seen) == 1
        assert seen[0].phase == WorkflowPhase.SUCCEEDED

    def test_restart_refunds_partial_charges(self):
        operator = _operator(num_nodes=2)
        record = operator.submit(_chain(steps=1, duration=100.0))
        operator.clock.run(until=40.0)
        operator.simulate_restart()
        # Only the 40 elapsed seconds stay charged; the un-run tail of
        # the interrupted attempt is refunded.
        assert record.step("s0").compute_seconds == pytest.approx(40.0)
        operator.clock.run()
        assert record.step("s0").compute_seconds == pytest.approx(140.0)


class TestCacheOutage:
    def test_outage_times_out_then_recovers(self):
        operator = _operator(num_nodes=2)
        wf = ExecutableWorkflow(name="reader")
        wf.add_step(
            ExecutableStep(
                name="ingest",
                duration_s=20.0,
                requests=ResourceQuantity(cpu=2, memory=GB),
                inputs=[ArtifactSpec(uid="raw/table", size_bytes=GB)],
            )
        )
        record = operator.submit(wf)
        operator.set_cache_outage(until=50.0)
        operator.clock.run()
        step = record.step("ingest")
        assert record.phase == WorkflowPhase.SUCCEEDED
        assert step.infra_failures >= 1
        assert step.last_error == "CacheFetchTimeoutErr"
        assert record.finish_time > 50.0  # could not finish inside the outage

    def test_stepless_fetch_unaffected(self):
        operator = _operator(num_nodes=2)
        record = operator.submit(_chain(steps=1, duration=10.0))
        operator.set_cache_outage(until=50.0)  # no inputs: nothing to stall
        operator.clock.run()
        assert record.step("s0").infra_failures == 0
        assert record.finish_time == pytest.approx(10.0)


class TestChaosPlan:
    def test_generate_is_deterministic(self):
        nodes = [f"n{i}" for i in range(4)]
        first = ChaosPlan.generate(7, 600.0, nodes, operator_restarts=1)
        second = ChaosPlan.generate(7, 600.0, nodes, operator_restarts=1)
        assert first.ordered() == second.ordered()
        different = ChaosPlan.generate(8, 600.0, nodes, operator_restarts=1)
        assert first.ordered() != different.ordered()

    def test_rejects_bad_plans(self):
        with pytest.raises(ChaosPlanError):
            ChaosPlan([NodeCrash(at=-1.0, node="n")])
        with pytest.raises(ChaosPlanError):
            ChaosPlan([CacheOutage(at=0.0, duration=0.0)])
        with pytest.raises(ChaosPlanError):
            ChaosPlan.generate(0, 100.0, node_names=[], node_crashes=1)

    def test_injector_arms_once(self):
        operator = _operator()
        injector = ChaosInjector(operator, ChaosPlan(), seed=0)
        injector.arm()
        with pytest.raises(RuntimeError):
            injector.arm()


class TestAcceptanceStorm:
    def test_storm_is_deterministic_and_leak_free(self):
        from repro.experiments.robustness_runner import run

        results = run(seed=3, num_workflows=4)
        assert results["completed"] == results["total"]
        assert results["deterministic"]
        assert results["invariant_violations"] == []
        # The storm actually fired every fault kind.
        kinds = {entry["kind"] for entry in results["fault_log"]}
        assert kinds == {
            "node-crash",
            "pod-eviction",
            "cache-outage",
            "operator-restart",
        }

    def test_invariant_checker_detects_seeded_leak(self):
        operator = _operator()
        record = operator.submit(_chain(steps=1))
        operator.clock.run()
        assert record.phase == WorkflowPhase.SUCCEEDED
        assert full_check(operators=[operator]).ok
        # Corrupt the books the way a lost release would.
        operator.cluster.nodes[0].allocated = ResourceQuantity(cpu=1)
        report = full_check(operators=[operator])
        assert not report.ok
        assert any("allocated" in violation for violation in report.violations)

    def test_invariant_checker_flags_stranded_admitted_work(self):
        """An admitted workflow left unplaced at quiescence is a violation,
        even though no charge or reservation leaked."""
        pipeline = AdmissionPipeline(
            [Cluster.uniform("one", 1, cpu_per_node=8.0, memory_per_node=32 * GB)],
            quotas={"u": UserQuota(user="u", cpu_limit=16.0, memory_limit=64 * GB)},
        )
        pipeline.submit_at(0.0, _chain("w", steps=1), user="u")

        def shrink_grant():
            pipeline.queue.quotas["u"].cpu_limit = 1.0

        # Runs after the arrival admits "w", before the placement pass.
        pipeline.clock.schedule_at(0.0, shrink_grant)
        pipeline.run()
        assert pipeline.pending_workflows() == ["w"]
        report = full_check(operators=pipeline.operators.values(), pipeline=pipeline)
        assert not report.ok
        assert any("awaiting placement" in violation for violation in report.violations)


class TestReadAccounting:
    """Each input read counts once per record, however often a fault
    interrupted and resumed its step."""

    def test_checker_flags_over_and_under_counted_steps(self):
        shared = ArtifactSpec(uid="in/a", size_bytes=GB)
        wf = ExecutableWorkflow(name="wf")
        wf.add_step(
            ExecutableStep(
                name="read",
                duration_s=1.0,
                inputs=[shared, ArtifactSpec(uid="in/b", size_bytes=GB), shared],
            )
        )
        record = WorkflowRecord(name="wf")
        step = record.step("read")

        def violations(status, hits, misses):
            step.status, step.cache_hits, step.cache_misses = status, hits, misses
            return check_read_accounting([record], [wf])

        # Two distinct inputs: a Succeeded step counts exactly two reads.
        assert violations(StepStatus.SUCCEEDED, 1, 1) == []
        assert violations(StepStatus.SUCCEEDED, 1, 0) != []
        assert violations(StepStatus.SUCCEEDED, 2, 1) == [
            "wf/read (Succeeded) counted 3 reads for 2 distinct inputs"
        ]
        # A step that stopped early may count fewer, never more.
        assert violations(StepStatus.FAILED, 0, 1) == []
        assert violations(StepStatus.FAILED, 0, 3) != []
        # Records of other workflows are not checked against this spec.
        assert check_read_accounting([WorkflowRecord(name="other")], [wf]) == []

    def test_ci_storm_counts_each_read_once(self):
        # The storm CI runs restarts the controller while three `train`
        # steps compute after their read; resumed from their records,
        # they must not count that read again.
        from repro.experiments.robustness_runner import run

        results = run(seed=0, num_workflows=6)
        assert results["invariant_violations"] == []

    def test_journal_gate_requires_read_accounting(self, monkeypatch):
        from repro.experiments import robustness_runner

        monkeypatch.setattr(
            robustness_runner,
            "check_read_accounting",
            lambda records, workflows: ["wf-0/train counted 2 reads"],
        )
        results = robustness_runner.run_journal(seed=3, num_workflows=4, replicas=2)
        assert results["read_violations"] == ["wf-0/train counted 2 reads"]
        assert not robustness_runner.journal_ok(results)
        assert "wf-0/train counted 2 reads" in robustness_runner.report_journal(
            results
        )


class TestAcceptanceJournal:
    def test_journal_gate_passes_and_is_deterministic(self):
        from repro.experiments.robustness_runner import (
            journal_ok,
            report_journal,
            run_journal,
        )

        results = run_journal(seed=3, num_workflows=4, replicas=2)
        assert journal_ok(results), report_journal(results)
        assert results["completed"] == results["total"] == 4
        assert results["kills"]  # the storm actually killed replicas
        again = run_journal(seed=3, num_workflows=4, replicas=2)
        assert again["digest"] == results["digest"]
        # The human-readable report reflects the green gates.
        report = report_journal(results)
        assert "stable" in report and "identical" in report

    def test_journal_gate_compares_whole_records(self, monkeypatch):
        """A replay that drifts only in charged fetch seconds must fail
        the full-replay check, not just one that moves a status."""
        from repro.engine.journal import Journal
        from repro.experiments.robustness_runner import journal_ok, run_journal

        materialize = Journal.materialize

        def drifting(self, stream, upto_seq=None):
            record = materialize(self, stream, upto_seq=upto_seq)
            if record is not None and record.phase.is_terminal():
                record.step("extract").fetch_seconds += 1.0
            return record

        monkeypatch.setattr(Journal, "materialize", drifting)
        results = run_journal(seed=3, num_workflows=4, replicas=2)
        assert results["completed"] == results["total"] == 4
        assert sorted(results["replay_mismatches"]) == [f"wf-{i}" for i in range(4)]
        assert not journal_ok(results)


class TestCorpusChainChaos:
    """Split corpus parts chain through admission callbacks; a storm of
    operator restarts, evictions and a cache outage must not drop,
    repeat or fail any part of any entry, and a part that fails stops
    the rest of its chain."""

    SPLIT_MAX_STEPS = 6

    def _run(self, seed: int, config: EngineConfig, fail_first_split: bool = False):
        """Run the storm; with ``fail_first_split``, part 0 of the first
        split plan always fails.  Returns the pipeline and that part's
        name (None when nothing was forced to fail)."""
        corpus = build_corpus(CorpusSpec(seed=seed, size=64))
        # Two clusters of five 8-CPU nodes: enough contention that
        # parts queue, so faults hit work in every lifecycle stage.
        clusters = [
            Cluster.uniform(
                f"mix-c{index}",
                5,
                cpu_per_node=8.0,
                memory_per_node=32 * GB,
                gpu_per_node=2 if index == 0 else 0,
            )
            for index in range(2)
        ]
        pipeline = build_pipeline(
            corpus.to_fleet_spec(clusters=clusters),
            config,
            cache_manager=CacheManager(policy="couler", capacity_bytes=2 * GB),
            skip_cached_steps=True,
        )
        splitter = WorkflowSplitter(BudgetModel(max_steps=self.SPLIT_MAX_STEPS))
        records = []
        chains = []
        failing = None
        splits = 0
        for entry in corpus.entries:
            executables = []
            for ir in entry.irs:
                if len(ir) > self.SPLIT_MAX_STEPS:
                    plan = splitter.split(ir)
                    splits += 1
                    parts = [
                        plan.parts[index].to_executable()
                        for index in plan.topological_part_order()
                    ]
                    if fail_first_split and failing is None:
                        failing = parts[0].name
                        for step in parts[0].steps.values():
                            step.failure = FailureProfile(rate=1.0, pattern="PodCrashErr")
                            step.retry_limit = 0
                    executables.extend(parts)
                else:
                    executables.append(ir.to_executable())
            chains.append([executable.name for executable in executables])
            submit_chain(pipeline, entry, executables, records, chain=True)
        assert splits > 0
        storm = ChaosPlan(
            [
                *(OperatorRestart(at=at, downtime=7.0) for at in (200.0, 900.0, 2500.0)),
                *(PodEviction(at=at, count=3) for at in (400.0, 1500.0, 3500.0)),
                CacheOutage(at=700.0, duration=60.0),
            ]
        )
        for operator in pipeline.operators.values():
            ChaosInjector(operator, storm, seed=seed).arm()
        pipeline.run()

        # A chain runs up to and including its failed part, if any.
        expected = sorted(
            name
            for chain in chains
            for name in (chain[: chain.index(failing) + 1] if failing in chain else chain)
        )
        # A part completing twice would submit its successor twice.
        assert sorted(record.workflow_name for record in records) == expected
        finished = sorted(
            record.name
            for operator in pipeline.operators.values()
            for record in operator.completed
        )
        assert finished == expected
        by_name = {record.workflow_name: record for record in records}
        for chain in chains:
            started = [by_name[name] for name in chain if name in by_name]
            # No part starts before the part it depends on has succeeded.
            for before, after in zip(started, started[1:]):
                assert before.record.phase == WorkflowPhase.SUCCEEDED
                assert after.arrival_time >= before.finish_time
        assert all(
            (record.record.phase == WorkflowPhase.FAILED) == (record.workflow_name == failing)
            for record in records
        )
        assert pipeline.pending_workflows() == []
        report = full_check(operators=pipeline.operators.values(), pipeline=pipeline)
        assert report.ok, report.violations
        infra = pipeline.metrics.counter("engine_infra_retries_total")
        for pattern in ("OperatorRestartErr", "PodEvictedErr", "CacheFetchTimeoutErr"):
            assert infra.value(pattern=pattern) > 0, pattern
        return pipeline, failing

    @pytest.mark.parametrize("seed", [1, 7, 33])
    def test_chain_survives_restarts_evictions_and_outage(self, seed):
        assert self._run(seed, EngineConfig())[1] is None

    def test_chain_survives_storm_with_preemption(self):
        pipeline, _ = self._run(3, EngineConfig(fairness="drf", preemption=True))
        events = pipeline.metrics.get("admission_events_total")
        assert events.value(event="preemption") >= 1

    def test_a_failed_part_stops_its_chain_under_the_storm(self):
        pipeline, failing = self._run(1, EngineConfig(), fail_first_split=True)
        assert failing is not None
        phases = pipeline.metrics.get("engine_workflows_total")
        assert phases.value(phase="Failed") == 1
