"""Tests for the span/event tracer and its Chrome export."""

import json

import pytest

from repro.engine.operator import WorkflowOperator
from repro.engine.retry import FailureInjector, RetryPolicy
from repro.engine.simclock import SimClock
from repro.engine.spec import ExecutableStep, ExecutableWorkflow, FailureProfile
from repro.engine.status import WorkflowPhase
from repro.k8s.cluster import Cluster
from repro.k8s.resources import ResourceQuantity
from repro.obs.trace import NullTracer, TraceError, Tracer

GB = 2**30


class TestTracerBasics:
    def test_begin_end_records_interval(self):
        tracer = Tracer()
        span = tracer.begin("wf", "workflow", 5.0)
        assert span.end is None and span.duration is None
        tracer.end(span, 17.5, phase="Succeeded")
        assert span.duration == pytest.approx(12.5)
        assert span.args["phase"] == "Succeeded"

    def test_end_is_idempotent(self):
        tracer = Tracer()
        span = tracer.begin("s", "step", 0.0)
        tracer.end(span, 10.0, status="first")
        tracer.end(span, 99.0, status="second")
        assert span.end == 10.0
        assert span.args["status"] == "first"

    def test_end_of_none_is_safe(self):
        Tracer().end(None, 1.0)  # must not raise

    def test_end_before_start_raises(self):
        tracer = Tracer()
        span = tracer.begin("s", "step", 10.0)
        with pytest.raises(TraceError):
            tracer.end(span, 5.0)

    def test_add_span_validates_extent(self):
        tracer = Tracer()
        with pytest.raises(TraceError):
            tracer.add_span("bad", "step", 10.0, 5.0)

    def test_parentage_and_queries(self):
        tracer = Tracer()
        root = tracer.begin("wf", "workflow", 0.0)
        child = tracer.add_span("a", "step", 0.0, 10.0, parent=root)
        grand = tracer.add_span("compute", "compute", 0.0, 10.0, parent=child)
        tracer.end(root, 10.0)
        assert tracer.roots() == [root]
        assert tracer.children(root) == [child]
        assert tracer.children(child) == [grand]
        assert tracer.find("a", cat="step") is child
        assert tracer.find("a", cat="workflow") is None
        assert tracer.spans(cat="compute") == [grand]
        assert len(tracer) == 3
        assert root.contains(child) and child.contains(grand)

    def test_instant_events(self):
        tracer = Tracer()
        step = tracer.begin("s", "step", 0.0)
        event = tracer.instant("retry", "retry", 4.0, parent=step, pattern="X")
        assert tracer.events(cat="retry") == [event]
        assert event.parent_id == step.span_id

    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        span = tracer.begin("wf", "workflow", 0.0)
        assert span is None
        tracer.end(span, 1.0)
        assert tracer.add_span("a", "step", 0.0, 1.0) is None
        assert tracer.instant("i", "retry", 0.0) is None
        assert tracer.spans() == [] and tracer.events() == []
        assert tracer.roots() == [] and len(tracer) == 0


class TestChromeExport:
    def _nested_trace(self) -> Tracer:
        tracer = Tracer()
        wf = tracer.begin("wf", "workflow", 0.0)
        a = tracer.add_span("a", "step", 0.0, 10.0, parent=wf)
        b = tracer.add_span("b", "step", 0.0, 12.0, parent=wf)
        tracer.add_span("compute", "compute", 0.0, 10.0, parent=a)
        tracer.add_span("compute", "compute", 0.0, 12.0, parent=b)
        tracer.end(wf, 12.0)
        return tracer

    def test_layout_separates_concurrent_steps(self):
        doc = self._nested_trace().to_chrome()
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        by_name = {}
        for event in complete:
            by_name.setdefault(event["name"], []).append(event)
        # Both steps share the workflow's pid but get distinct tids.
        (a_ev,), (b_ev,) = by_name["a"], by_name["b"]
        assert a_ev["pid"] == b_ev["pid"]
        assert a_ev["tid"] != b_ev["tid"]
        # Phase sub-spans ride on their step's thread.
        tids = sorted(e["tid"] for e in by_name["compute"])
        assert tids == sorted([a_ev["tid"], b_ev["tid"]])

    def test_times_are_microseconds(self):
        doc = self._nested_trace().to_chrome()
        wf = next(e for e in doc["traceEvents"] if e["name"] == "wf")
        assert wf["ts"] == 0.0
        assert wf["dur"] == pytest.approx(12.0 * 1e6)

    def test_metadata_names_processes_and_threads(self):
        doc = self._nested_trace().to_chrome()
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert "workflow:wf" in names
        assert {"step:a", "step:b"} <= names

    def test_write_chrome_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        self._nested_trace().write_chrome(str(path))
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in doc["traceEvents"])


class TestOperatorIntegration:
    def _run_diamond(self, tracer, **operator_kwargs):
        clock = SimClock()
        cluster = Cluster.uniform(
            "t", 4, cpu_per_node=8.0, memory_per_node=32 * GB
        )
        operator = WorkflowOperator(clock, cluster, tracer=tracer, **operator_kwargs)
        wf = ExecutableWorkflow(name="diamond")
        wf.add_step(ExecutableStep(name="a", duration_s=10))
        wf.add_step(ExecutableStep(name="b", duration_s=10, dependencies=["a"]))
        wf.add_step(ExecutableStep(name="c", duration_s=10, dependencies=["a"]))
        wf.add_step(
            ExecutableStep(name="d", duration_s=10, dependencies=["b", "c"])
        )
        record = operator.submit(wf)
        operator.run_to_completion()
        return record

    def test_spans_nest_workflow_step_attempt_compute(self):
        tracer = Tracer()
        record = self._run_diamond(tracer)
        assert record.phase == WorkflowPhase.SUCCEEDED

        wf_span = tracer.find("diamond", cat="workflow")
        assert wf_span is not None and wf_span.args["phase"] == "Succeeded"
        assert wf_span.duration == pytest.approx(record.makespan)

        steps = {s.name: s for s in tracer.children(wf_span)}
        assert set(steps) == {"a", "b", "c", "d"}
        for name, step_span in steps.items():
            assert wf_span.contains(step_span)
            attempts = [
                c for c in tracer.children(step_span) if c.cat == "attempt"
            ]
            assert len(attempts) == 1
            assert step_span.contains(attempts[0])
            computes = [
                c for c in tracer.children(attempts[0]) if c.cat == "compute"
            ]
            assert len(computes) == 1
            assert computes[0].duration == pytest.approx(10.0)

    def test_step_spans_record_dependencies(self):
        tracer = Tracer()
        self._run_diamond(tracer)
        d_span = tracer.find("d", cat="step")
        assert sorted(d_span.args["deps"]) == ["b", "c"]

    def test_queue_wait_span_under_contention(self):
        tracer = Tracer()
        clock = SimClock()
        cluster = Cluster.uniform("tiny", 1, cpu_per_node=1.0, memory_per_node=4 * GB)
        operator = WorkflowOperator(clock, cluster, tracer=tracer)
        wf = ExecutableWorkflow(name="serial")
        for index in range(2):
            wf.add_step(
                ExecutableStep(
                    name=f"s{index}",
                    duration_s=10,
                    requests=ResourceQuantity(cpu=1.0),
                )
            )
        operator.submit(wf)
        operator.run_to_completion()
        queue_spans = tracer.spans(cat="queue")
        # The second step waits 10s for the single core.
        assert any(s.duration == pytest.approx(10.0) for s in queue_spans)

    def test_retry_emits_instant_and_backoff_span(self):
        tracer = Tracer()
        record = self._run_diamond_with_failures(tracer)
        retried = [s for r in [record] for s in r.steps.values() if s.attempts > 1]
        assert retried, "seed must produce at least one retry"
        assert tracer.events(cat="retry")
        backoffs = tracer.spans(cat="backoff")
        assert backoffs and all(s.duration > 0 for s in backoffs)

    def _run_diamond_with_failures(self, tracer):
        clock = SimClock()
        cluster = Cluster.uniform("t", 4, cpu_per_node=8.0, memory_per_node=32 * GB)
        operator = WorkflowOperator(
            clock,
            cluster,
            tracer=tracer,
            retry_policy=RetryPolicy(limit=10),
            failure_injector=FailureInjector(seed=3, retryable_fraction=1.0),
        )
        wf = ExecutableWorkflow(name="flaky")
        wf.add_step(
            ExecutableStep(
                name="bad",
                duration_s=10,
                failure=FailureProfile(rate=0.7, pattern="PodCrashErr"),
            )
        )
        record = operator.submit(wf)
        operator.run_to_completion()
        return record

    def test_untraced_operator_records_nothing(self):
        tracer = NullTracer()
        record = self._run_diamond(tracer)
        assert record.phase == WorkflowPhase.SUCCEEDED
        assert len(tracer) == 0


class TestJournalToTracer:
    def test_journal_renders_as_spans(self):
        from repro.engine.journal import Journal
        from repro.engine.spec import executable_to_dict, ExecutableStep, ExecutableWorkflow
        from repro.obs.trace import journal_to_tracer

        wf = ExecutableWorkflow(name="traced")
        wf.add_step(ExecutableStep(name="a", duration_s=5.0))
        journal = Journal()
        journal.append("traced", "admission-admitted", 0.0, {"user": "u"})
        journal.append("traced", "submitted", 1.0, {"spec": executable_to_dict(wf)})
        journal.append("traced", "attempt-started", 1.0, {"step": "a", "attempt": 1})
        journal.append("traced", "attempt-succeeded", 6.0,
                       {"step": "a", "result": None, "fetch": 0.0,
                        "compute": 5.0, "hits": 0, "misses": 0})
        journal.append("traced", "workflow-finished", 6.0, {"phase": "Succeeded"})
        tracer = journal_to_tracer(journal)
        root = tracer.find("traced", "journal")
        assert root.start == 1.0 and root.end == 6.0
        attempt = tracer.find("traced/a", "journal-attempt")
        assert attempt.start == 1.0 and attempt.end == 6.0
        assert attempt.args["outcome"] == "succeeded"
        assert tracer.events("journal")  # the admission decision instant
        assert tracer.to_chrome()["traceEvents"]

    def test_rejected_duplicate_is_not_drawn_inside_the_running_copy(self):
        """A duplicate-name rejection is journaled into the stream of the
        running copy, but the rejected arrival never ran: its instant
        must not sit under that copy's span."""
        from repro.engine.config import EngineConfig
        from repro.engine.journal import Journal
        from repro.obs.trace import journal_to_tracer
        from repro.workloads.fleetgen import build_fleet, build_pipeline

        spec = build_fleet(3, seed=1)
        journal = Journal()
        pipeline = build_pipeline(spec, EngineConfig(), journal=journal)
        workflow = spec.arrivals[0][1]
        pipeline.submit_at(0.0, workflow, user="t0")
        duplicate = pipeline.submit_at(1.0, workflow, user="t1")
        pipeline.run()
        assert not duplicate.admitted
        tracer = journal_to_tracer(journal)
        running = tracer.find(workflow.name, "journal")
        assert running.start == 0.0 and running.end > 1.0
        (rejected,) = [
            event for event in tracer.events("journal")
            if event.name == f"{workflow.name}:admission-rejected"
        ]
        assert rejected.args["user"] == "t1"
        assert rejected.parent_id is None

    def test_unfinished_streams_close_at_last_event(self):
        from repro.engine.journal import Journal
        from repro.obs.trace import journal_to_tracer

        journal = Journal()
        journal.append("wf", "submitted", 0.0, {})
        journal.append("wf", "attempt-started", 2.0, {"step": "a", "attempt": 1})
        tracer = journal_to_tracer(journal)
        root = tracer.find("wf", "journal")
        assert root.end == 2.0
        assert root.args["phase"] == "unfinished"
