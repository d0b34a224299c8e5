"""Labeled Counter / Gauge / Histogram registry with a text exporter.

One :class:`MetricsRegistry` is the single source of truth for a
simulation's accounting: the engine's retry/attempt counters, the
scheduler's wait-queue depth, and the artifact store's hit/miss/eviction
numbers all live here (the legacy stat fields delegate to it).  The
:meth:`MetricsRegistry.snapshot` text format follows the Prometheus
exposition style so the numbers read the way an SRE expects.

A hot path binds a fixed label set once, ``metric.labels(**labels)``, as
the Prometheus client does, and writes through the returned handle: no
keyword dict is built and no label key looked up per write.  Holders of
one shared registry bind once between them with
:meth:`MetricsRegistry.shared`.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

LabelKey = Tuple[Tuple[str, str], ...]
_Built = TypeVar("_Built")

#: Default histogram buckets (seconds-flavoured, exponential-ish).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0, 600.0, 3600.0,
)

#: Fraction-of-fleet buckets for tenant share distributions (a tenant's
#: dominant share is a ratio in [0, 1], so second-flavoured buckets
#: would collapse everything into the first bin).
SHARE_BUCKETS: Tuple[float, ...] = (
    0.01, 0.02, 0.05, 0.1, 0.15, 0.25, 0.4, 0.6, 0.8, 1.0,
)


class MetricError(ValueError):
    """Raised on metric misuse (type clash, negative counter delta)."""


def _label_key(items: Iterable[Tuple[str, object]]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in items))


def _escape(value: str) -> str:
    """A label value as the text exposition format quotes it."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{_escape(value)}"' for name, value in key)
    return "{" + inner + "}"


class _Metric:
    kind = "untyped"
    #: The handle :meth:`labels` returns.
    _series_class: type

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        #: Each label set's series key, as :meth:`_key` keeps it.
        self._keys: Dict[LabelKey, LabelKey] = {}

    def _key(self, labels: Dict[str, object]) -> LabelKey:
        """The series key of ``labels``, sorted and stringified once.

        Only label sets whose values are all exact ``str`` are kept:
        ``1``, ``1.0`` and ``True`` (or a ``str`` enum member and its
        value) are equal dict keys yet render differently, so each must
        stay its own series.
        """
        items = tuple(labels.items())
        for _, value in items:
            if type(value) is not str:
                return _label_key(items)
        key = self._keys.get(items)
        if key is None:
            key = self._keys[items] = _label_key(items)
        return key

    def labels(self, **labels: object) -> "_Series":
        """A handle bound to the series of ``labels``.

        Binding records nothing: the series appears on the handle's
        first write, as a write with keyword labels would make it, so
        :meth:`MetricsRegistry.snapshot` and
        :meth:`MetricsRegistry.collect` cannot tell the two apart.  A
        handle stays valid across :meth:`MetricsRegistry.reset`.
        """
        return self._series_class(self, labels)

    def _reset(self) -> None:
        raise NotImplementedError

    def _render(self) -> List[str]:
        raise NotImplementedError

    def _header(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class _Series:
    """One label set's series of a metric, bound by :meth:`_Metric.labels`.

    Its label key is looked up on the first write and kept, so a bound
    series that is never written renders no label set.
    """

    __slots__ = ("_metric", "_labels", "_key")

    def __init__(self, metric: _Metric, labels: Dict[str, object]) -> None:
        self._metric = metric
        self._labels = labels
        self._key: Optional[LabelKey] = None

    def _bind(self) -> LabelKey:
        self._key = self._metric._key(self._labels)
        return self._key


class CounterSeries(_Series):
    """A bound :class:`Counter` series."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        metric = self._metric
        if amount < 0:
            raise MetricError(f"counter {metric.name}: negative increment {amount}")
        key = self._key
        if key is None:
            key = self._bind()
        series = metric._series
        series[key] = series.get(key, 0.0) + amount


class GaugeSeries(_Series):
    """A bound :class:`Gauge` series."""

    __slots__ = ()

    def set(self, value: float) -> None:
        key = self._key
        if key is None:
            key = self._bind()
        self._metric._series[key] = float(value)

    def inc(self, amount: float = 1.0) -> None:
        key = self._key
        if key is None:
            key = self._bind()
        series = self._metric._series
        series[key] = series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class HistogramSeries(_Series):
    """A bound :class:`Histogram` series."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        key = self._key
        if key is None:
            key = self._bind()
        self._metric._observe(key, value)


class Counter(_Metric):
    """A monotonically increasing value, optionally labeled."""

    kind = "counter"
    _series_class = CounterSeries

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._series: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name}: negative increment {amount}")
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._series.get(self._key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        return sum(self._series.values())

    def series(self) -> Dict[LabelKey, float]:
        return dict(self._series)

    def _reset(self) -> None:
        self._series.clear()

    def _render(self) -> List[str]:
        lines = self._header()
        for key in sorted(self._series):
            lines.append(f"{self.name}{_render_labels(key)} {self._series[key]:g}")
        return lines


class Gauge(_Metric):
    """A value that goes up and down (occupancy, queue depth)."""

    kind = "gauge"
    _series_class = GaugeSeries

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._series: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._series[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        return self._series.get(self._key(labels), 0.0)

    def series(self) -> Dict[LabelKey, float]:
        return dict(self._series)

    def _reset(self) -> None:
        self._series.clear()

    def _render(self) -> List[str]:
        lines = self._header()
        for key in sorted(self._series):
            lines.append(f"{self.name}{_render_labels(key)} {self._series[key]:g}")
        return lines


class Histogram(_Metric):
    """Bucketed distribution (e.g. span durations)."""

    kind = "histogram"
    _series_class = HistogramSeries

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        if list(buckets) != sorted(buckets):
            raise MetricError(f"histogram {name}: buckets must be sorted")
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self._series: Dict[LabelKey, dict] = {}

    def _state(self, key: LabelKey) -> dict:
        state = self._series.get(key)
        if state is None:
            state = {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}
            self._series[key] = state
        return state

    def observe(self, value: float, **labels: object) -> None:
        self._observe(self._key(labels), value)

    def _observe(self, key: LabelKey, value: float) -> None:
        state = self._state(key)
        state["sum"] += value
        state["count"] += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                state["counts"][index] += 1

    def count(self, **labels: object) -> int:
        state = self._series.get(self._key(labels))
        return state["count"] if state else 0

    def sum(self, **labels: object) -> float:
        state = self._series.get(self._key(labels))
        return state["sum"] if state else 0.0

    def _reset(self) -> None:
        self._series.clear()

    def _render(self) -> List[str]:
        lines = self._header()
        for key in sorted(self._series):
            state = self._series[key]
            for bound, cumulative in zip(self.buckets, state["counts"]):
                bucket_key = key + (("le", f"{bound:g}"),)
                lines.append(
                    f"{self.name}_bucket{_render_labels(bucket_key)} {cumulative}"
                )
            inf_key = key + (("le", "+Inf"),)
            lines.append(f"{self.name}_bucket{_render_labels(inf_key)} {state['count']}")
            lines.append(f"{self.name}_sum{_render_labels(key)} {state['sum']:g}")
            lines.append(f"{self.name}_count{_render_labels(key)} {state['count']}")
        return lines


class MetricsRegistry:
    """Get-or-create home for a simulation's metrics.

    Metric objects are cached by name; asking for an existing name with
    a different type raises :class:`MetricError` (silent type morphing
    is how double accounting starts).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        #: What :meth:`shared` built, by builder.
        self._shared: Dict[Callable, object] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise MetricError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def shared(self, build: Callable[["MetricsRegistry"], _Built]) -> _Built:
        """``build(self)``, built on the first call and kept after.

        The holders of one shared registry, such as the operators of a
        multi-cluster pipeline, get their metrics and bind their series
        once this way, not once each.
        """
        built = self._shared.get(build)
        if built is None:
            built = self._shared[build] = build(self)
        return built

    def counters_with_prefix(self, prefix: str) -> Dict[str, float]:
        """Totals of every counter whose name starts with ``prefix``.

        Handy for reporting a subsystem's footprint at a glance, e.g.
        ``counters_with_prefix("chaos_")`` after a fault-injected run.
        """
        return {
            name: metric.total()
            for name, metric in sorted(self._metrics.items())
            if name.startswith(prefix) and isinstance(metric, Counter)
        }

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def reset(self) -> None:
        """Zero every series in place (metric objects stay valid, so
        cached references keep working)."""
        for metric in self._metrics.values():
            metric._reset()

    def snapshot(self) -> str:
        """Text exposition of every metric, Prometheus style."""
        lines: List[str] = []
        for name in self.names():
            lines.extend(self._metrics[name]._render())
        return "\n".join(lines) + ("\n" if lines else "")

    def collect(self) -> dict:
        """Machine-readable dump: ``{name: {"kind", "help", "series"}}``."""
        out: Dict[str, dict] = {}
        for name in self.names():
            metric = self._metrics[name]
            series = {
                _render_labels(key) or "": value
                for key, value in metric._series.items()
            }
            out[name] = {"kind": metric.kind, "help": metric.help, "series": series}
        return out
