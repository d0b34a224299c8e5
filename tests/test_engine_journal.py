"""Journal-backed engine: append semantics, replay, and equivalence.

The properties the journal exists to provide:

1. Idempotent appends (outbox semantics) — duplicate delivery of an
   ``event_id`` cannot double-apply an event.
2. Prefix consistency — materializing from any prefix equals
   materializing the full stream capped at that sequence number, and
   every prefix yields a resumable record (no step left Running).
3. Journaled ≡ in-memory — attaching a journal to the operator changes
   nothing about execution (fingerprints identical over the fuzzer
   corpus), and a fresh operator recovers purely by replay.
4. One charging rule — an attempt charges its record when it settles,
   as the journal does, so at every checkpoint and restart the live
   record equals the journal's fold, floats included.
"""

import dataclasses
import random

import pytest

from repro.caching.manager import CacheManager
from repro.engine.journal import (
    REPLICA_LOST_ERR,
    Journal,
    JournalRecord,
    demote_running_steps,
    prefix_violations,
)
from repro.engine.operator import WorkflowOperator
from repro.engine.retry import INFRA_PATTERNS, FailureInjector, RetryPolicy
from repro.engine.simclock import SimClock
from repro.engine.spec import (
    ArtifactSpec,
    ExecutableStep,
    ExecutableWorkflow,
    FailureProfile,
    executable_from_dict,
    executable_to_dict,
)
from repro.engine.status import StepStatus, WorkflowPhase, WorkflowRecord
from repro.k8s.cluster import Cluster
from repro.obs.metrics import MetricsRegistry
from repro.verify.generator import generate_ir
from repro.verify.oracles import STOCHASTIC_CONFIG, _execute

GB = 2**30


def _fp(record):
    """Full record fingerprint (ir-independent): everything replay must
    reproduce, charge floats included — the live record and the fold
    charge the same settled amounts in the same order."""
    return (
        record.name,
        record.phase.value,
        record.submit_time,
        record.finish_time,
        tuple(sorted(record.results.items())),
        tuple(
            (
                name,
                step.status.value,
                step.attempts,
                step.infra_failures,
                step.start_time,
                step.finish_time,
                step.fetch_seconds,
                step.compute_seconds,
                step.cache_hits,
                step.cache_misses,
                step.last_error,
            )
            for name, step in sorted(record.steps.items())
        ),
    )


def _pipeline(name: str = "pipe", steps: int = 3, flaky: bool = False):
    wf = ExecutableWorkflow(name=name)
    previous = None
    for index in range(steps):
        wf.add_step(
            ExecutableStep(
                name=f"s{index}",
                duration_s=20.0,
                dependencies=[] if previous is None else [previous],
                failure=FailureProfile(rate=0.5 if flaky and index == 1 else 0.0,
                                       pattern="NetworkTimeoutErr"),
            )
        )
        previous = f"s{index}"
    return wf


def _journaled_operator(journal=None, seed=0, **kwargs):
    clock = SimClock()
    cluster = Cluster.uniform("jrnl", 2, cpu_per_node=8.0, memory_per_node=32 * GB)
    operator = WorkflowOperator(
        clock, cluster, seed=seed, journal=journal, **kwargs
    )
    return clock, operator


class TestAppend:
    def test_seq_is_contiguous_and_ordered(self):
        journal = Journal()
        for index in range(5):
            journal.append("wf", "submitted", float(index))
        assert [r.seq for r in journal.records()] == list(range(5))

    def test_duplicate_event_id_is_dropped(self):
        journal = Journal()
        first = journal.append("wf", "attempt-started", 1.0, event_id="wf:start:a:1")
        dup = journal.append("wf", "attempt-started", 1.0, event_id="wf:start:a:1")
        assert first is not None
        assert dup is None
        assert len(journal) == 1

    def test_duplicate_delivery_does_not_change_materialization(self):
        """Outbox semantics end-to-end: redeliver every event, same record."""
        wf = _pipeline()
        journal = Journal()
        clock, operator = _journaled_operator(journal=journal)
        operator.submit(wf)
        operator.run_to_completion()
        before = _fp(journal.materialize(wf.name))
        for record in journal.records():
            if record.event_id is not None:
                assert journal.append(
                    record.stream, record.kind, record.at,
                    dict(record.payload), event_id=record.event_id,
                ) is None
        assert _fp(journal.materialize(wf.name)) == before

    def test_records_are_immutable(self):
        journal = Journal()
        record = journal.append("wf", "submitted", 0.0)
        with pytest.raises(AttributeError):
            record.kind = "mutated"

    def test_metrics_count_appends_by_kind(self):
        metrics = MetricsRegistry()
        journal = Journal(metrics=metrics)
        journal.append("wf", "submitted", 0.0)
        journal.append("wf", "attempt-started", 1.0)
        counter = metrics.get("journal_records_total")
        assert counter.value(kind="submitted") == 1
        assert counter.value(kind="attempt-started") == 1


class TestSerialization:
    def test_record_json_roundtrip(self):
        record = JournalRecord(
            seq=3, stream="wf", kind="attempt-failed", at=12.5,
            payload={"step": "a", "infra": True}, event_id="wf:fail:a:1",
        )
        assert JournalRecord.from_json(record.to_json()) == record

    def test_jsonl_dump_load_roundtrip(self, tmp_path):
        wf = _pipeline()
        journal = Journal()
        clock, operator = _journaled_operator(journal=journal)
        operator.submit(wf)
        operator.run_to_completion()
        path = tmp_path / "journal.jsonl"
        count = journal.dump(str(path))
        reloaded = Journal.load(str(path))
        assert count == len(journal) == len(reloaded)
        assert reloaded.records() == journal.records()
        assert (
            _fp(reloaded.materialize(wf.name))
            == _fp(journal.materialize(wf.name))
        )

    def test_spec_embedded_in_first_submission(self):
        wf = _pipeline()
        journal = Journal()
        clock, operator = _journaled_operator(journal=journal)
        operator.submit(wf)
        operator.run_to_completion()
        rebuilt = journal.workflow_spec(wf.name)
        assert executable_to_dict(rebuilt) == executable_to_dict(wf)

    def test_spec_dict_roundtrip_is_exact(self):
        ir = generate_ir(11, STOCHASTIC_CONFIG)
        wf = ir.to_executable()
        assert executable_to_dict(
            executable_from_dict(executable_to_dict(wf))
        ) == executable_to_dict(wf)


class TestMaterialize:
    def test_unknown_stream_is_none(self):
        assert Journal().materialize("ghost") is None

    def test_stream_without_submission_is_none(self):
        journal = Journal()
        journal.append("wf", "admission-admitted", 0.0, {"user": "u"})
        assert journal.materialize("wf") is None

    def test_admission_markers_carry_no_record_state(self):
        wf = _pipeline()
        journal = Journal()
        clock, operator = _journaled_operator(journal=journal)
        operator.submit(wf)
        operator.run_to_completion()
        plain = _fp(journal.materialize(wf.name))
        journal.append(wf.name, "admission-preempted", 999.0, {"user": "u"})
        journal.append(wf.name, "checkpointed", 999.0, {"reason": "noop"})
        assert _fp(journal.materialize(wf.name)) == plain

    def test_unsettled_attempt_folds_as_lost(self):
        """attempt-started with no settle record = hard-killed replica."""
        wf = _pipeline(steps=1)
        journal = Journal()
        journal.append(
            wf.name, "submitted", 0.0, {"spec": executable_to_dict(wf)}
        )
        journal.append(wf.name, "attempt-started", 1.0, {"step": "s0", "attempt": 1})
        record = journal.materialize(wf.name)
        step = record.steps["s0"]
        assert step.status == StepStatus.PENDING  # demoted, resumable
        assert step.attempts == 1  # the attempt happened
        assert step.infra_failures == 1  # budget-free loss
        assert step.last_error == REPLICA_LOST_ERR
        assert step.fetch_seconds == 0.0 and step.compute_seconds == 0.0

    def test_replica_lost_is_an_infra_pattern(self):
        assert REPLICA_LOST_ERR in INFRA_PATTERNS

    def test_demote_running_steps_centralizes_the_invariant(self):
        record = WorkflowRecord(name="wf")
        record.step("a").status = StepStatus.RUNNING
        record.step("b").status = StepStatus.SUCCEEDED
        assert demote_running_steps(record) == ["a"]
        assert record.steps["a"].status == StepStatus.PENDING
        assert record.steps["b"].status == StepStatus.SUCCEEDED


class TestResubmission:
    def test_a_reset_step_keeps_no_finish_time(self):
        """begin_run resets a not-done step to Pending with no error and
        no finish time: a Pending step has no duration."""
        wf = ExecutableWorkflow(name="doomed")
        wf.add_step(
            ExecutableStep(
                name="s0",
                duration_s=20.0,
                failure=FailureProfile(rate=1.0, pattern="PodCrashErr"),
            )
        )
        _, operator = _journaled_operator(retry_policy=RetryPolicy(limit=0))
        record = operator.submit(wf)
        operator.run_to_completion()
        assert record.steps["s0"].status == StepStatus.FAILED
        assert record.steps["s0"].finish_time is not None

        operator.submit(wf, record=record)
        step = record.steps["s0"]
        assert step.status == StepStatus.PENDING
        assert step.finish_time is None and step.duration is None
        assert step.last_error is None


class TestPrefixReplay:
    def _stormy_journal(self, seed: int = 3):
        """A journal with failures, a restart, and a completion in it."""
        wf = _pipeline(name=f"storm-{seed}", steps=4, flaky=True)
        journal = Journal()
        clock, operator = _journaled_operator(
            journal=journal,
            seed=seed,
            retry_policy=RetryPolicy(limit=6),
            failure_injector=FailureInjector(seed=seed, retryable_fraction=1.0),
        )
        record = operator.submit(wf)
        clock.run(until=30.0)
        operator.simulate_restart(downtime=5.0)
        operator.run_to_completion()
        assert record.phase == WorkflowPhase.SUCCEEDED
        return wf, journal, record

    def test_every_prefix_is_consistent_and_resumable(self):
        """prefix(n) ≡ upto_seq=n-1, and no prefix leaves a step Running."""
        wf, journal, _ = self._stormy_journal()
        for n in range(len(journal) + 1):
            via_prefix = journal.prefix(n).materialize(wf.name)
            via_cap = journal.materialize(wf.name, upto_seq=n - 1) if n else None
            if via_prefix is None:
                assert via_cap is None
                continue
            assert (
                _fp(via_prefix)
                == _fp(via_cap)
            )
            assert not any(
                step.status == StepStatus.RUNNING
                for step in via_prefix.steps.values()
            )

    def test_full_replay_matches_live_record(self):
        wf, journal, live = self._stormy_journal()
        replayed = journal.materialize(wf.name)
        assert _fp(replayed) == _fp(live)

    def test_prefix_violations_empty_on_a_storm(self):
        _, journal, _ = self._stormy_journal()
        assert prefix_violations(journal) == []

    def test_prefix_violations_name_prefix_and_stream(self, monkeypatch):
        wf, journal, _ = self._stormy_journal()
        materialize = Journal.materialize

        def leaves_s1_running(self, stream, upto_seq=None):
            record = materialize(self, stream, upto_seq=upto_seq)
            if record is not None:
                record.step("s1").status = StepStatus.RUNNING
            return record

        monkeypatch.setattr(Journal, "materialize", leaves_s1_running)
        total = len(journal)
        assert prefix_violations(journal) == [
            f"prefix {n}: stream {wf.name!r} left Running steps ['s1']"
            for n in sorted({total // 4, total // 2, (3 * total) // 4, total})
        ]

    def test_attempt_counts_are_monotonic_over_prefixes(self):
        wf, journal, _ = self._stormy_journal()
        last = {}
        for n in range(1, len(journal) + 1):
            record = journal.prefix(n).materialize(wf.name)
            if record is None:
                continue
            for name, step in record.steps.items():
                assert step.attempts >= last.get(name, 0)
                last[name] = step.attempts


class TestJournaledEqualsInMemory:
    @pytest.mark.parametrize("seed", range(25))
    def test_fingerprints_identical_over_fuzzer_corpus(self, seed):
        """The journal is pure observation: attaching it changes nothing."""
        ir = generate_ir(seed, STOCHASTIC_CONFIG)
        plain = _execute(ir, seed)
        journaled = _execute(ir, seed, journal=Journal())
        assert journaled.data == plain.data

    def test_default_off_means_no_journal(self):
        clock, operator = _journaled_operator()
        assert operator.journal is None
        operator.submit(_pipeline())
        operator.run_to_completion()  # nothing to append to, nothing raised


class TestOneChargingRule:
    """Checkpoint, migrate and restart a workflow that reads through the
    cache, with and without a journal: both keep the same record."""

    @staticmethod
    def _reader_workflow(rng: random.Random) -> ExecutableWorkflow:
        raw = ArtifactSpec(uid="raw/events", size_bytes=rng.randint(1, 16) * GB // 4)
        side = ArtifactSpec(uid="raw/labels", size_bytes=rng.randint(1, 16) * GB // 8)
        feat = ArtifactSpec(uid="twin/prep/out", size_bytes=rng.randint(1, 8) * GB // 4)
        model = ArtifactSpec(
            uid="twin/train/out", size_bytes=rng.randint(1, 8) * GB // 8
        )
        wf = ExecutableWorkflow(name="twin")
        for name, deps, inputs, outputs in (
            ("prep", [], [raw], [feat]),
            ("stats", [], [raw, side], []),
            ("train", ["prep"], [feat, side], [model]),
            ("eval", ["train", "stats"], [feat, model], []),
        ):
            wf.add_step(
                ExecutableStep(
                    name=name,
                    duration_s=rng.uniform(5.0, 40.0),
                    dependencies=deps,
                    inputs=inputs,
                    outputs=outputs,
                )
            )
        return wf

    def _run(self, seed: int, journaled: bool):
        """Checkpoint mid-attempt, resume on a second operator sharing the
        clock, cluster and cache, restart that one 17 s later.  Returns
        the final record and, when journaled, (live, fold) pairs taken
        right after the checkpoint and right after the restart."""
        rng = random.Random(seed)
        wf = self._reader_workflow(rng)
        clock = SimClock()
        cluster = Cluster.uniform("twin", 2, cpu_per_node=8.0, memory_per_node=32 * GB)
        cache = CacheManager(policy="all", capacity_bytes=None)
        journal = Journal() if journaled else None
        first = WorkflowOperator(
            clock, cluster, cache_manager=cache, seed=seed, journal=journal
        )
        first.submit(wf)
        clock.run(until=rng.uniform(1.0, 60.0))
        assert first.running_attempt_pods()
        record = first.checkpoint_workflow(wf.name)
        pairs = []

        def snapshot():
            if journaled:
                fold = journal.materialize(wf.name)
                pairs.append((dataclasses.asdict(record), dataclasses.asdict(fold)))

        snapshot()
        second = WorkflowOperator(
            clock, cluster, cache_manager=cache, seed=seed, journal=journal
        )
        second.submit(wf, record=record)
        clock.run(until=clock.now + 17.0)
        second.simulate_restart(downtime=3.0)
        snapshot()
        second.run_to_completion()
        assert record.phase == WorkflowPhase.SUCCEEDED
        return record, pairs

    @pytest.mark.parametrize("seed", range(40))
    def test_journaled_and_plain_records_are_identical(self, seed):
        plain, _ = self._run(seed, journaled=False)
        journaled, _ = self._run(seed, journaled=True)
        assert dataclasses.asdict(journaled) == dataclasses.asdict(plain)

    @pytest.mark.parametrize("seed", range(10))
    def test_live_record_equals_fold_at_every_detach(self, seed):
        _, pairs = self._run(seed, journaled=True)
        assert len(pairs) == 2
        for live, fold in pairs:
            assert live == fold

    def test_stormy_restart_leaves_live_equal_to_fold(self):
        wf = _pipeline(name="storm", steps=4, flaky=True)
        journal = Journal()
        clock, operator = _journaled_operator(
            journal=journal,
            seed=3,
            retry_policy=RetryPolicy(limit=6),
            failure_injector=FailureInjector(seed=3, retryable_fraction=1.0),
        )
        record = operator.submit(wf)
        for at in (15.0, 35.0, 70.0):
            clock.run(until=at)
            operator.simulate_restart(downtime=2.0)
            assert _fp(record) == _fp(journal.materialize(wf.name))
        operator.run_to_completion()
        assert _fp(record) == _fp(journal.materialize(wf.name))


class TestResumeFromJournal:
    def test_fresh_operator_resumes_from_journal_alone(self):
        """Kill the engine hard; a replica that never saw the submission
        finishes the workflow from the journal."""
        wf = _pipeline(steps=4)
        journal = Journal()
        clock, operator = _journaled_operator(journal=journal)
        operator.submit(wf)
        clock.run(until=30.0)  # mid-flight: s1 running
        killed = operator.hard_kill()
        assert killed == [wf.name]
        # Same clock and cluster, brand-new operator: no shared state.
        replacement = WorkflowOperator(
            clock, operator.cluster, seed=0, journal=journal
        )
        resumed = replacement.resume_from_journal()
        assert resumed == [wf.name]
        replacement.run_to_completion()
        record = journal.materialize(wf.name)
        assert record.phase == WorkflowPhase.SUCCEEDED
        # The attempt lost to the kill is visible in the accounting.
        assert sum(s.infra_failures for s in record.steps.values()) >= 1

    def test_resume_requires_a_journal(self):
        clock, operator = _journaled_operator()
        with pytest.raises(ValueError):
            operator.resume_from_journal()

    def test_terminal_streams_are_not_resumed(self):
        wf = _pipeline()
        journal = Journal()
        clock, operator = _journaled_operator(journal=journal)
        operator.submit(wf)
        operator.run_to_completion()
        replacement = WorkflowOperator(
            clock, operator.cluster, seed=0, journal=journal
        )
        assert replacement.resume_from_journal() == []
