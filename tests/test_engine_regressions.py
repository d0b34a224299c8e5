"""Regression tests for engine bugs fixed alongside the obs layer.

Covers: cache-stat double counting across retries and resumptions
(restart, checkpoint, journal replay), the pod-name
attempt off-by-one, sampler event leaks in the sim clock, silently
satisfied unparseable `when` clauses, retry-backoff jitter, and steps
aborted mid-backoff missing from ``engine_steps_total``.
"""

import random

import pytest

from repro.engine.journal import Journal
from repro.engine.metrics import UtilizationRecorder
from repro.engine.operator import WorkflowOperator, validate_when_expr
from repro.engine.retry import FailureInjector, RetryPolicy
from repro.engine.simclock import SimClock
from repro.engine.spec import (
    ArtifactSpec,
    ExecutableStep,
    ExecutableWorkflow,
    FailureProfile,
    SpecError,
)
from repro.engine.status import StepStatus, WorkflowPhase
from repro.k8s.apiserver import APIServer
from repro.k8s.cluster import Cluster

GB = 2**30


class ScriptedInjector:
    """Fails the first ``failures`` attempts with a retryable pattern."""

    def __init__(self, failures: int = 1, pattern: str = "NetworkTimeoutErr"):
        self.failures = failures
        self.pattern = pattern
        self.calls = 0
        self.injected = {}

    def sample(self, step_name, rate, own_pattern):
        self.calls += 1
        if self.calls <= self.failures:
            self.injected[self.pattern] = self.injected.get(self.pattern, 0) + 1
            return self.pattern
        return None


class ScriptedCache:
    """Fixed fetch time; miss on first read of a uid, hit afterwards."""

    def __init__(self, fetch_seconds: float):
        self.fetch_seconds = fetch_seconds
        self.seen = set()
        self.fetch_calls = 0

    def register_workflow(self, workflow):
        return None

    def fetch(self, artifact, now=0.0):
        self.fetch_calls += 1
        hit = artifact.uid in self.seen
        self.seen.add(artifact.uid)
        return self.fetch_seconds, hit

    def on_artifact_produced(self, artifact, now):
        return None


def _single_input_workflow(duration_s: float) -> ExecutableWorkflow:
    wf = ExecutableWorkflow(name="wf")
    wf.add_step(
        ExecutableStep(
            name="s",
            duration_s=duration_s,
            inputs=[ArtifactSpec(uid="raw/in", size_bytes=1 * GB)],
        )
    )
    return wf


def _operator(cache, injector, **kwargs):
    clock = SimClock()
    cluster = Cluster.uniform("t", 2, cpu_per_node=8.0, memory_per_node=32 * GB)
    return WorkflowOperator(
        clock,
        cluster,
        cache_manager=cache,
        failure_injector=injector,
        retry_policy=RetryPolicy(limit=5),
        **kwargs,
    )


class TestCacheStatDoubleCounting:
    """A retried step must count each input fetch exactly once."""

    def test_retry_does_not_recount_completed_fetch(self):
        # Fetch (1s) completes well before any mid-attempt failure point
        # of the 100s timeline, so the first (failed) attempt counts the
        # miss; the successful retry re-reads the input but must not add
        # a second count.  The old per-attempt accounting reported
        # hits=1, misses=1 for this single input.
        cache = ScriptedCache(fetch_seconds=1.0)
        operator = _operator(cache, ScriptedInjector(failures=1))
        record = operator.submit(_single_input_workflow(duration_s=99.0))
        operator.run_to_completion()
        step = record.steps["s"]
        assert record.phase == WorkflowPhase.SUCCEEDED
        assert step.attempts == 2
        assert cache.fetch_calls == 2
        assert step.cache_misses == 1
        assert step.cache_hits == 0
        assert step.cache_hits + step.cache_misses == 1  # one input, one count

    def test_aborted_fetch_not_counted_until_it_completes(self):
        # The attempt dies mid-fetch (failure fraction < 1 of a pure
        # 100s fetch), so the aborted read counts nothing; the retry
        # completes the fetch and contributes the single count.
        cache = ScriptedCache(fetch_seconds=100.0)
        operator = _operator(cache, ScriptedInjector(failures=1))
        record = operator.submit(_single_input_workflow(duration_s=0.0))
        operator.run_to_completion()
        step = record.steps["s"]
        assert record.phase == WorkflowPhase.SUCCEEDED
        assert step.attempts == 2
        assert step.cache_hits + step.cache_misses == 1
        # The scripted cache served the retry from "cache", so the one
        # counted fetch is the completed hit, not the aborted miss.
        assert step.cache_hits == 1
        assert step.cache_misses == 0

    # A resumed step gets a fresh run state; what its record has counted
    # must still stop the resumed attempt from counting the input again.

    def test_restart_does_not_recount_completed_fetch(self):
        cache = ScriptedCache(fetch_seconds=1.0)
        operator = _operator(cache, ScriptedInjector(failures=0))
        record = operator.submit(_single_input_workflow(duration_s=99.0))
        operator.clock.run(until=50.0)  # the read finished, compute runs
        operator.simulate_restart()
        operator.run_to_completion()
        step = record.steps["s"]
        assert record.phase == WorkflowPhase.SUCCEEDED
        assert (step.attempts, step.infra_failures) == (2, 1)
        assert cache.fetch_calls == 2
        assert step.cache_hits + step.cache_misses == 1

    def test_checkpoint_resubmission_does_not_recount_completed_fetch(self):
        cache = ScriptedCache(fetch_seconds=1.0)
        operator = _operator(cache, ScriptedInjector(failures=0))
        workflow = _single_input_workflow(duration_s=99.0)
        operator.submit(workflow)
        operator.clock.run(until=50.0)
        record = operator.checkpoint_workflow("wf")
        assert record.steps["s"].cache_misses == 1
        operator.submit(workflow, record=record)
        operator.run_to_completion()
        step = record.steps["s"]
        assert record.phase == WorkflowPhase.SUCCEEDED
        assert step.attempts == 2
        assert step.cache_hits + step.cache_misses == 1

    def test_journal_resume_does_not_recount_completed_fetch(self):
        # Attempt 1 reads the input and fails; the replica dies during the
        # retry; a fresh replica resumes from the journal and runs a third
        # attempt, which reads the input once more.
        cache = ScriptedCache(fetch_seconds=1.0)
        journal = Journal()
        first = _operator(cache, ScriptedInjector(failures=1), journal=journal)
        first.submit(_single_input_workflow(duration_s=99.0))
        # Attempt 1 fails by t=75 and its retry starts by t=85, for 100s.
        first.clock.run(until=100.0)
        assert first.hard_kill() == ["wf"]
        fresh = WorkflowOperator(
            first.clock,
            first.cluster,
            cache_manager=cache,
            failure_injector=ScriptedInjector(failures=0),
            retry_policy=RetryPolicy(limit=5),
            journal=journal,
        )
        assert fresh.resume_from_journal() == ["wf"]
        fresh.run_to_completion()
        record = fresh.completed[0]
        step = record.steps["s"]
        assert record.phase == WorkflowPhase.SUCCEEDED
        assert (step.attempts, step.infra_failures) == (3, 1)
        assert cache.fetch_calls == 3
        assert step.cache_hits + step.cache_misses == 1
        assert journal.materialize("wf") == record

    def test_failed_attempt_charges_fetch_then_compute(self):
        # Sequential charging: a mid-fetch death charges only fetch time.
        cache = ScriptedCache(fetch_seconds=100.0)
        operator = _operator(cache, ScriptedInjector(failures=1))
        record = operator.submit(_single_input_workflow(duration_s=0.0))
        operator.run_to_completion()
        step = record.steps["s"]
        # Both attempts were pure fetch; no compute was ever charged.
        assert step.compute_seconds == pytest.approx(0.0)
        assert step.fetch_seconds > 100.0  # aborted partial + full retry


class TestPodAttemptNumbering:
    def test_pod_names_carry_one_based_attempt_numbers(self):
        clock = SimClock()
        cluster = Cluster.uniform("t", 2, cpu_per_node=8.0, memory_per_node=32 * GB)
        api = APIServer()
        operator = WorkflowOperator(
            clock,
            cluster,
            api_server=api,
            track_pods=True,
            failure_injector=ScriptedInjector(failures=1),
            retry_policy=RetryPolicy(limit=5),
        )
        wf = ExecutableWorkflow(name="wf")
        wf.add_step(ExecutableStep(name="s", duration_s=10))
        record = operator.submit(wf)
        operator.run_to_completion()
        assert record.phase == WorkflowPhase.SUCCEEDED
        assert record.steps["s"].attempts == 2
        names = sorted(pod.metadata.name for pod in api.list("Pod"))
        # Attempt 1 runs in pod --1 (it used to run in --0: the pod name
        # embedded the attempt counter before its increment).
        assert names == ["wf--s--1", "wf--s--2"]


class TestSamplerEventLeaks:
    def _recorder(self, interval_s=10.0):
        clock = SimClock()
        cluster = Cluster.uniform("t", 1, cpu_per_node=8.0, memory_per_node=32 * GB)
        return clock, UtilizationRecorder(clock, cluster, interval_s=interval_s)

    def test_stop_cancels_pending_sample(self):
        clock, recorder = self._recorder()
        recorder.start()
        clock.run(until=12)
        recorder.stop()
        clock.run(until=100)
        assert [s.time for s in recorder.samples] == [0.0, 10.0]
        assert clock.pending() == 0  # nothing armed in the heap

    def test_double_start_does_not_double_sample(self):
        clock, recorder = self._recorder()
        recorder.start()
        recorder.start()
        clock.run(until=20)
        times = [s.time for s in recorder.samples]
        assert times == [0.0, 10.0, 20.0]
        assert len(times) == len(set(times))

    def test_run_without_until_terminates_with_active_recorder(self):
        clock, recorder = self._recorder()
        recorder.start()
        fired = []
        clock.schedule(5.0, lambda: fired.append(clock.now))
        # A self-re-arming sampler used to spin run() to the 10M-event
        # backstop; daemon events must not keep the loop alive.
        end = clock.run()
        assert fired == [5.0]
        assert end == 5.0
        assert clock.pending_work() == 0
        assert [s.time for s in recorder.samples] == [0.0]

    def test_run_with_horizon_still_samples_to_it(self):
        clock, recorder = self._recorder()
        recorder.start()
        end = clock.run(until=35)
        assert end == 35.0
        assert [s.time for s in recorder.samples] == [0.0, 10.0, 20.0, 30.0]


class TestWhenClauseValidation:
    def _wf_with_when(self, expr) -> ExecutableWorkflow:
        wf = ExecutableWorkflow(name="cond")
        wf.add_step(
            ExecutableStep(name="flip", duration_s=1, result_options=("heads", "tails"))
        )
        wf.add_step(
            ExecutableStep(
                name="guarded", duration_s=1, dependencies=["flip"], when_expr=expr
            )
        )
        return wf

    def test_unparseable_when_rejected_at_submit(self, operator):
        with pytest.raises(SpecError, match="guarded"):
            operator.submit(self._wf_with_when("flip.result == heads"))

    def test_bad_clause_in_conjunction_rejected(self, operator):
        expr = "{{flip.result}} == heads && garbage"
        with pytest.raises(SpecError, match="garbage"):
            operator.submit(self._wf_with_when(expr))

    def test_valid_expression_still_runs(self, operator):
        record = operator.submit(
            self._wf_with_when("{{flip.result}} == heads")
        )
        operator.run_to_completion()
        assert record.phase == WorkflowPhase.SUCCEEDED

    def test_validate_when_expr_accepts_all_operators(self):
        for op in ("==", "!=", ">", "<", ">=", "<="):
            validate_when_expr(f"{{{{s.result}}}} {op} 3")

    def test_validate_when_expr_names_the_step(self):
        with pytest.raises(SpecError, match="mystep"):
            validate_when_expr("nonsense", step_name="mystep")


class TestBackoffJitter:
    def test_deterministic_without_rng(self):
        policy = RetryPolicy()
        assert policy.backoff(1) == 10.0
        assert policy.backoff(2) == 20.0

    def test_jitter_bounded_and_seeded(self):
        policy = RetryPolicy(jitter=0.1)
        delays = [policy.backoff(1, rng=random.Random(7)) for _ in range(3)]
        # Same fresh seed -> same delay: jitter is reproducible.
        assert delays[0] == delays[1] == delays[2]
        assert 9.0 <= delays[0] <= 11.0
        assert delays[0] != 10.0

    def test_jitter_spreads_consecutive_draws(self):
        policy = RetryPolicy(jitter=0.1)
        rng = random.Random(7)
        draws = {policy.backoff(1, rng=rng) for _ in range(10)}
        assert len(draws) == 10
        assert all(9.0 <= d <= 11.0 for d in draws)

    def test_zero_jitter_ignores_rng(self):
        policy = RetryPolicy(jitter=0.0)
        assert policy.backoff(1, rng=random.Random(7)) == 10.0

    def test_cap_applies_before_jitter(self):
        policy = RetryPolicy(backoff_cap=100.0, jitter=0.1)
        delay = policy.backoff(10, rng=random.Random(0))
        assert delay <= 110.0


class TestRestartRetryTimerRace:
    """A restart racing a pending retry timer must not double-drive.

    Attempt 1 fails retryably, the backoff timer is pending, and the
    operator restarts before it fires.  The resumed incarnation
    re-enqueues the step itself; if the stale timer also fired (the
    pre-``_is_live`` behaviour), the step would run a third attempt and
    the retry budget would be double-charged.
    """

    def _flaky(self) -> ExecutableWorkflow:
        wf = ExecutableWorkflow(name="racy")
        wf.add_step(ExecutableStep(name="bad", duration_s=30.0))
        return wf

    def _run(self, downtime: float) -> WorkflowOperator:
        clock = SimClock()
        cluster = Cluster.uniform("race", 1, cpu_per_node=4.0,
                                  memory_per_node=16 * GB)
        operator = WorkflowOperator(
            clock,
            cluster,
            retry_policy=RetryPolicy(limit=2, backoff_base=5.0),
            failure_injector=ScriptedInjector(failures=1),
        )
        operator.submit(self._flaky())
        # Attempt 1 fails at t=10; its retry timer is pending for t=15.
        clock.run(until=12.0)
        operator.simulate_restart(downtime=downtime)
        operator.run_to_completion()
        return operator

    @pytest.mark.parametrize("downtime", [1.0, 10.0])
    def test_no_double_charge_across_restart(self, downtime):
        # downtime=1: resume happens *before* the stale timer's due time.
        # downtime=10: the stale timer's due time passes mid-downtime.
        operator = self._run(downtime)
        record = operator.completed[0]
        assert record.phase == WorkflowPhase.SUCCEEDED
        step = record.steps["bad"]
        # Exactly two attempts: the failed one and the resumed retry —
        # a fired stale timer would have driven a third.
        assert step.attempts == 2
        # The failure happened in backoff, not in flight: no infra loss.
        assert step.infra_failures == 0


class TestRestartForwardedResults:
    """Forwarded results survive a mid-flight restart.

    A split-part submission receives upstream results via
    ``initial_results`` for steps that live in *another* part.  Those
    names have no step record, so the pre-fix snapshot dropped them on
    restart and the resumed ``when`` guard mis-evaluated to False.
    """

    def _gated(self) -> ExecutableWorkflow:
        wf = ExecutableWorkflow(name="part-2")
        wf.add_step(ExecutableStep(name="long", duration_s=50.0))
        wf.add_step(
            ExecutableStep(
                name="gated",
                duration_s=5.0,
                dependencies=["long"],
                when_expr="{{upstream.result}} == go",
            )
        )
        return wf

    def test_results_forwarded_across_split_boundary_survive_restart(self):
        clock = SimClock()
        cluster = Cluster.uniform("fwd", 1, cpu_per_node=4.0,
                                  memory_per_node=16 * GB)
        operator = WorkflowOperator(clock, cluster)
        record = operator.submit(
            self._gated(), initial_results={"upstream": "go"}
        )
        clock.run(until=20.0)  # "long" is mid-flight
        operator.simulate_restart(downtime=2.0)
        operator.run_to_completion()
        assert record.phase == WorkflowPhase.SUCCEEDED
        # The guard saw the forwarded result after the restart...
        assert record.steps["gated"].status.value == "Succeeded"
        # ...because it now lives on the record, not just the dead state.
        assert record.results["upstream"] == "go"


class TestAbortDuringBackoffIsCounted:
    """A step aborted while backing off still counts as a terminal step.

    ``b`` fails retryably and waits out its backoff; meanwhile ``a``
    fails fatally, and the workflow's teardown aborts ``b``.  Teardown
    used to journal that abort without counting it, so
    ``engine_steps_total`` reported one terminal step for two.
    """

    def test_teardown_abort_counts_in_engine_steps_total(self):
        wf = ExecutableWorkflow(name="wf")
        wf.add_step(
            ExecutableStep(
                name="a", duration_s=10.0, failure=FailureProfile(1.0, "PodCrashErr")
            )
        )
        wf.add_step(
            ExecutableStep(
                name="b",
                duration_s=1.0,
                failure=FailureProfile(1.0, "NetworkTimeoutErr"),
            )
        )
        clock = SimClock()
        cluster = Cluster.uniform("t", 2, cpu_per_node=8.0, memory_per_node=32 * GB)
        operator = WorkflowOperator(
            clock,
            cluster,
            failure_injector=FailureInjector(seed=1, retryable_fraction=0.0),
        )
        record = operator.submit(wf)
        operator.run_to_completion()
        assert record.phase == WorkflowPhase.FAILED
        assert record.steps["a"].last_error == "PodCrashErr"
        assert record.steps["b"].last_error == "NetworkTimeoutErr"
        assert record.steps["b"].attempts == 1  # aborted in its backoff
        assert [s.status for s in record.steps.values()] == [StepStatus.FAILED] * 2
        steps = operator.metrics.counter("engine_steps_total")
        assert steps.value(status="Failed") == 2.0
