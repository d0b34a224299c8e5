"""Tests for the labeled metrics registry and its integrations."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching.artifact_store import ArtifactStore
from repro.caching.manager import CacheManager
from repro.engine.admission import AdmissionPipeline
from repro.engine.operator import WorkflowOperator
from repro.engine.simclock import SimClock
from repro.engine.spec import ArtifactSpec, ExecutableStep, ExecutableWorkflow
from repro.engine.status import StepStatus
from repro.k8s.cluster import Cluster
from repro.k8s.resources import ResourceQuantity
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)

GB = 2**30


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("hits_total")
        counter.inc()
        counter.inc(2.0)
        assert counter.value() == 3.0
        assert counter.total() == 3.0

    def test_labels_are_independent_series(self):
        counter = Counter("retries_total")
        counter.inc(pattern="OOM")
        counter.inc(pattern="OOM")
        counter.inc(pattern="Timeout")
        assert counter.value(pattern="OOM") == 2.0
        assert counter.value(pattern="Timeout") == 1.0
        assert counter.value(pattern="Other") == 0.0
        assert counter.total() == 3.0

    def test_label_order_does_not_matter(self):
        counter = Counter("c")
        counter.inc(a="1", b="2")
        assert counter.value(b="2", a="1") == 1.0

    def test_negative_increment_raises(self):
        counter = Counter("c")
        with pytest.raises(MetricError):
            counter.inc(-1.0)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("depth")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value() == 6.0

    def test_negative_values_allowed(self):
        gauge = Gauge("delta")
        gauge.dec(3)
        assert gauge.value() == -3.0


class TestHistogram:
    def test_observe_counts_and_sum(self):
        histogram = Histogram("latency", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            histogram.observe(value)
        assert histogram.count() == 4
        assert histogram.sum() == pytest.approx(555.5)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(MetricError):
            Histogram("h", buckets=(10.0, 1.0))

    def test_render_has_cumulative_buckets(self):
        histogram = Histogram("h", buckets=(1.0, 10.0))
        histogram.observe(0.5)
        histogram.observe(5.0)
        text = "\n".join(histogram._render())
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="10"} 2' in text
        assert 'h_bucket{le="+Inf"} 2' in text
        assert "h_count 2" in text


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("c", "help text")
        second = registry.counter("c")
        assert first is second

    def test_type_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricError):
            registry.gauge("x")

    def test_reset_zeroes_in_place(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(5)
        registry.reset()
        assert counter.value() == 0.0
        # The cached reference still feeds the registry after reset.
        counter.inc()
        assert registry.counter("c").value() == 1.0

    def test_snapshot_text_format(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", "Cache hits").inc(3, tier="local")
        registry.gauge("depth").set(7)
        text = registry.snapshot()
        assert "# HELP hits_total Cache hits" in text
        assert "# TYPE hits_total counter" in text
        assert 'hits_total{tier="local"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 7" in text

    def test_collect_machine_readable(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2, kind="a")
        dump = registry.collect()
        assert dump["c"]["kind"] == "counter"
        assert dump["c"]["series"] == {'{kind="a"}': 2.0}


class TestLabelKeys:
    #: Equal as dict keys (equal values, equal hashes), rendered apart.
    EQUAL_VALUES = (1, 1.0, True, StepStatus.FAILED, "Failed")

    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
    def test_equal_values_keep_their_own_series(self, order):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        values = self.EQUAL_VALUES[::order]
        for _ in range(2):
            for amount, value in enumerate(values, start=1):
                counter.inc(amount, v=value)
        assert len(counter.series()) == len(values)
        for amount, value in enumerate(values, start=1):
            assert counter.value(v=value) == 2 * amount
        lines = registry.snapshot().splitlines()
        for amount, value in enumerate(values, start=1):
            assert f'c{{v="{value!s}"}} {2 * amount}' in lines

    def test_label_order_does_not_split_a_series(self):
        gauge = Gauge("g")
        gauge.set(1, a="x", b="y")
        gauge.inc(2, b="y", a="x")
        assert gauge.series() == {(("a", "x"), ("b", "y")): 3.0}

    def test_values_are_escaped_in_the_exposition(self):
        """A tenant name with a quote, a backslash and a newline renders
        as one line the text format can parse."""
        tenant = 'team "a"\\b\nc'
        cluster = Cluster.uniform("c", 1, cpu_per_node=8.0, memory_per_node=32 * GB)
        workflow = ExecutableWorkflow(name="wf")
        workflow.add_step(
            ExecutableStep(name="s0", duration_s=5.0, requests=ResourceQuantity(cpu=1))
        )
        pipeline = AdmissionPipeline([cluster])
        pipeline.submit_at(0.0, workflow, user=tenant)
        pipeline.run()
        text = pipeline.metrics.snapshot()
        assert (
            'admission_tenant_dominant_share{tenant="team \\"a\\"\\\\b\\nc"} 0'
            in text.splitlines()
        )
        for line in text.splitlines():
            assert line.startswith("#") or _SAMPLE.fullmatch(line), line
        series = pipeline.metrics.collect()["admission_tenant_dominant_share"]["series"]
        assert list(series) == ['{tenant="team \\"a\\"\\\\b\\nc"}']

    def test_plain_values_render_unescaped(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(kind="a-b_c.d/e f")
        assert 'c{kind="a-b_c.d/e f"} 1' in registry.snapshot().splitlines()


#: One sample line of the text exposition format: a label value is a
#: quoted string in which only ``\\``, ``\"`` and ``\n`` are escapes.
_SAMPLE = re.compile(
    r'[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(?:\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*")*\})?'
    r' \S+'
)


#: Label sets for the handle property: plain, reordered, values that are
#: equal dict keys yet render apart, and one the exposition must escape.
_LABEL_SETS = (
    {},
    {"a": "x"},
    {"a": "x", "b": "y"},
    {"b": "y", "a": "x"},
    {"v": 1},
    {"v": 1.0},
    {"v": True},
    {"v": StepStatus.FAILED},
    {"v": "Failed"},
    {"tenant": 'q"\\\n'},
)

_WRITES = st.tuples(
    st.sampled_from(
        ["counter.inc", "gauge.set", "gauge.inc", "gauge.dec", "histogram.observe", "reset"]
    ),
    st.integers(0, len(_LABEL_SETS) - 1),
    st.one_of(st.integers(-3, 50), st.floats(-3.0, 700.0, allow_nan=False)),
    st.booleans(),
)


def _raised(write, *args, **labels):
    """``MetricError`` when ``write`` raises it, else None."""
    try:
        write(*args, **labels)
    except MetricError:
        return MetricError
    return None


def _metrics(registry):
    return {
        "counter": registry.counter("c_total", "a counter"),
        "gauge": registry.gauge("g"),
        "histogram": registry.histogram("h", buckets=(0.5, 1.0, 50.0)),
    }


class TestBoundSeries:
    @given(writes=st.lists(_WRITES, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_handles_write_what_keyword_labels_write(self, writes):
        """Property: any sequence of writes, through a handle bound once
        (or bound anew) and through keyword labels, with ``reset()``
        midway, gives the same snapshot and collect()."""
        by_keyword, by_handle = MetricsRegistry(), MetricsRegistry()
        keyword_metrics, handle_metrics = _metrics(by_keyword), _metrics(by_handle)
        handles = {}
        for op, label_index, amount, rebind in writes:
            if op == "reset":
                by_keyword.reset()
                by_handle.reset()
                continue
            kind, method = op.split(".")
            labels = _LABEL_SETS[label_index]
            key = (kind, label_index)
            if rebind or key not in handles:
                handles[key] = handle_metrics[kind].labels(**labels)
            raised = _raised(getattr(keyword_metrics[kind], method), amount, **labels)
            assert _raised(getattr(handles[key], method), amount) is raised
            if op == "counter.inc":
                assert (raised is MetricError) == (amount < 0)
        assert by_handle.snapshot() == by_keyword.snapshot()
        assert by_handle.collect() == by_keyword.collect()
        assert list(by_handle.collect()["c_total"]["series"]) == list(
            by_keyword.collect()["c_total"]["series"]
        )

    def test_binding_records_nothing(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        handle = counter.labels(status="Failed")
        assert counter.series() == {}
        assert registry.snapshot() == "# TYPE c_total counter\n"
        handle.inc()
        assert counter.value(status="Failed") == 1.0

    def test_negative_increment_raises_and_records_nothing(self):
        counter = Counter("c_total")
        handle = counter.labels(kind="a")
        with pytest.raises(MetricError):
            handle.inc(-1)
        assert counter.series() == {}

    def test_handle_survives_reset(self):
        registry = MetricsRegistry()
        handle = registry.histogram("h", buckets=(1.0,)).labels(lane="batch")
        handle.observe(0.5)
        registry.reset()
        handle.observe(2.0)
        histogram = registry.get("h")
        assert histogram.count(lane="batch") == 1
        assert histogram.sum(lane="batch") == 2.0


class TestStoreSingleSource:
    """The registry is the single source for cache accounting."""

    def test_stats_delegate_to_registry_counters(self):
        store = ArtifactStore(capacity_bytes=10 * GB)
        store.put("a", 1 * GB)
        store.record_hit("a", now=1.0)
        store.record_miss()
        store.record_rejection()
        store.evict("a")
        registry = store.metrics
        assert registry.counter("cache_hits_total").total() == store.stats.hits == 1
        assert registry.counter("cache_misses_total").total() == store.stats.misses == 1
        assert registry.counter("cache_rejected_total").total() == store.stats.rejected == 1
        assert registry.counter("cache_evictions_total").total() == store.stats.evictions == 1
        assert registry.counter("cache_insertions_total").total() == store.stats.insertions == 1
        assert (
            registry.counter("cache_bytes_evicted_total").total()
            == store.stats.bytes_evicted
            == 1 * GB
        )

    def test_occupancy_gauges_track_put_and_evict(self):
        store = ArtifactStore(capacity_bytes=10 * GB)
        store.put("a", 2 * GB)
        store.put("b", 3 * GB)
        assert store.metrics.gauge("cache_used_bytes").value() == 5 * GB
        assert store.metrics.gauge("cache_entries").value() == 2
        store.evict("a")
        assert store.metrics.gauge("cache_used_bytes").value() == 3 * GB
        assert store.metrics.gauge("cache_entries").value() == 1

    def test_shared_registry_spans_manager_and_engine(self):
        registry = MetricsRegistry()
        manager = CacheManager(policy="lru", capacity_bytes=10 * GB, metrics=registry)
        assert manager.metrics is registry
        assert manager.store.metrics is registry


class TestOperatorCounters:
    def _run(self, registry):
        clock = SimClock()
        cluster = Cluster.uniform("t", 4, cpu_per_node=8.0, memory_per_node=32 * GB)
        operator = WorkflowOperator(clock, cluster, metrics=registry)
        wf = ExecutableWorkflow(name="wf")
        wf.add_step(ExecutableStep(name="a", duration_s=10))
        wf.add_step(
            ExecutableStep(
                name="b",
                duration_s=10,
                dependencies=["a"],
                inputs=[ArtifactSpec(uid="wf/a/out", size_bytes=1 * GB)],
            )
        )
        operator.submit(wf)
        operator.run_to_completion()
        return operator

    def test_engine_counters_after_clean_run(self):
        registry = MetricsRegistry()
        self._run(registry)
        assert registry.counter("engine_attempts_total").value(outcome="success") == 2
        assert registry.counter("engine_steps_total").value(status="Succeeded") == 2
        assert registry.counter("engine_workflows_total").value(phase="Succeeded") == 1
        assert registry.counter("engine_retries_total").total() == 0
        assert registry.gauge("scheduler_waitq_depth").value() == 0

    def test_private_registry_when_none_shared(self):
        operator = self._run(None)
        assert operator.metrics.counter("engine_workflows_total").total() == 1
