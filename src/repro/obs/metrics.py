"""Labeled Counter / Gauge / Histogram registry with a text exporter.

One :class:`MetricsRegistry` is the single source of truth for a
simulation's accounting: the engine's retry/attempt counters, the
scheduler's wait-queue depth, and the artifact store's hit/miss/eviction
numbers all live here (the legacy stat fields delegate to it).  The
:meth:`MetricsRegistry.snapshot` text format follows the Prometheus
exposition style so the numbers read the way an SRE expects.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

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


class Counter(_Metric):
    """A monotonically increasing value, optionally labeled."""

    kind = "counter"

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
        state = self._state(self._key(labels))
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
        cached references keep working — used by snapshot restores)."""
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
