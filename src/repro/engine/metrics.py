"""Utilization sampling for the evaluation figures.

Figures 7 and 11–16 plot CPU/GPU utilization over time per caching
strategy.  :class:`UtilizationRecorder` samples a cluster at a fixed
virtual-time interval while a simulation runs and exposes the resulting
series plus summary statistics.

Samples are scheduled as *daemon* events: an active recorder never
keeps :meth:`SimClock.run` spinning on its own, and :meth:`stop`
cancels the pending sample instead of leaving it armed in the heap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..k8s.cluster import Cluster
from .simclock import EventHandle, SimClock


@dataclass
class UtilizationSample:
    time: float
    cpu: float
    memory: float
    gpu: float
    running_pods: int


@dataclass
class UtilizationRecorder:
    """Periodic sampler of a cluster's utilization.

    Call :meth:`start` before running the clock; sampling re-arms itself
    until :meth:`stop` is called or the clock drains.  ``start`` on an
    already-active recorder is a no-op (the sampler never double-arms),
    and ``stop`` cancels the pending sample event so nothing leaks into
    the heap.
    """

    clock: SimClock
    cluster: Cluster
    interval_s: float = 30.0
    samples: List[UtilizationSample] = field(default_factory=list)
    _active: bool = False
    _handle: Optional[EventHandle] = field(default=None, repr=False)

    def start(self) -> None:
        if self._active:
            return
        self._active = True
        self._sample()

    def stop(self) -> None:
        self._active = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _sample(self) -> None:
        if not self._active:
            return
        util = self.cluster.utilization()
        self.samples.append(
            UtilizationSample(
                time=self.clock.now,
                cpu=util["cpu"],
                memory=util["memory"],
                gpu=util["gpu"],
                running_pods=len(self.cluster.running_pods()),
            )
        )
        self._handle = self.clock.schedule(self.interval_s, self._sample, daemon=True)

    # ------------------------------------------------------------ summaries

    def mean_cpu(self, until: Optional[float] = None) -> float:
        return self._mean("cpu", until)

    def mean_gpu(self, until: Optional[float] = None) -> float:
        return self._mean("gpu", until)

    def _mean(self, attr: str, until: Optional[float]) -> float:
        values = [
            getattr(s, attr)
            for s in self.samples
            if until is None or s.time <= until
        ]
        return sum(values) / len(values) if values else 0.0

    def series(self, attr: str = "cpu") -> List[tuple]:
        """Return ``[(time, value), ...]`` for plotting."""
        return [(s.time, getattr(s, attr)) for s in self.samples]
