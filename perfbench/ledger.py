"""In-memory span ledger: per-layer host self time, measured from outside.

The benchmark never edits the program to trace it.  It times the calls
it makes into each layer (frontend compiles, IR lowering, splits) and
wraps methods on the collaborator instances it builds and passes in
(cache manager, journal, queue, the ``SimClock`` given as ``clock=``).
Wrapping ``SimClock.schedule`` puts every event callback inside a span
named after the module that defined it, so admission and operator work
is attributed where it runs and SimClock's own self time is ``run()``
minus its callbacks.

A span's self time is its duration minus the durations of the spans
nested directly inside it.  Time inside the traced window that no span
covers is ``other``; :meth:`Ledger.layer_self_s` reports it so the
layers plus ``other`` add up to the traced wall time exactly.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Layers the ledger attributes time to, named after the program's modules.
LAYERS: Tuple[str, ...] = (
    "sqlflow",
    "nl2wf",
    "ir",
    "parallelism",
    "caching",
    "admission",
    "queue",
    "operator",
    "simclock",
    "journal",
)

#: Spans kept for the Chrome trace; later spans are still timed, not kept.
MAX_KEPT_SPANS = 100_000

#: The benchmark's host clock: this process's CPU time.  The program is
#: single-threaded, so on an idle host it equals wall time; on a shared
#: VM it leaves out the time the hypervisor runs other guests, which
#: otherwise swings run-to-run figures by tens of percent.
HOST_CLOCK = time.process_time


class Ledger:
    """Nested host-time spans, self time per layer and event counts."""

    def __init__(self, clock: Callable[[], float] = HOST_CLOCK) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        #: Total (inclusive) seconds per span name.
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: Seconds inside :meth:`window` blocks (the traced wall time).
        self.wall_s = 0.0
        #: Seconds covered by outermost spans.
        self.top_s = 0.0
        #: ``(name, layer, start_s, duration_s)`` for the trace file.
        self.spans: List[tuple] = []
        self.dropped_spans = 0
        self._origin: Optional[float] = None
        #: One entry per open span: seconds spent in its child spans.
        self._children: List[float] = []

    # ----------------------------------------------------------- recording

    @contextmanager
    def window(self) -> Iterator[None]:
        """Bracket one traced run; its duration adds to ``wall_s``."""
        start = self.clock()
        if self._origin is None:
            self._origin = start
        try:
            yield
        finally:
            self.wall_s += self.clock() - start

    def call(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer`` and return its result."""
        children = self._children
        children.append(0.0)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - start
            self.self_s[layer] += duration - children.pop()
            if children:
                children[-1] += duration
            else:
                self.top_s += duration
            self.total_s[name] += duration
            self.counts[name] += 1
            if len(self.spans) < MAX_KEPT_SPANS:
                self.spans.append((name, layer, start, duration))
            else:
                self.dropped_spans += 1

    # ------------------------------------------------------------- reading

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer plus ``other`` (wall not under any span)."""
        out = dict(self.self_s)
        out["other"] = self.wall_s - self.top_s
        return out

    def write_chrome_trace(self, path: str) -> int:
        """Write kept spans as Chrome ``trace_event`` JSON; returns count."""
        origin = self._origin or 0.0
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": duration * 1e6,
                "pid": 1,
                "tid": 1,
            }
            for name, layer, start, duration in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": {"dropped_spans": self.dropped_spans},
                },
                handle,
            )
        return len(events)


# ---------------------------------------------------------------------------
# Instrumenting collaborator instances.
# ---------------------------------------------------------------------------


def wrap_method(ledger: Ledger, obj: object, method: str, layer: str) -> None:
    """Replace ``obj.method`` with a version timed as a ``layer`` span."""
    original = getattr(obj, method)
    name = f"{layer}.{method}"
    call = ledger.call

    def traced(*args, **kwargs):
        return call(layer, name, original, *args, **kwargs)

    setattr(obj, method, traced)


def module_layer(module: Optional[str]) -> str:
    """The layer a callback belongs to, from its defining module."""
    leaf = (module or "").rsplit(".", 1)[-1]
    if leaf not in LAYERS:
        raise ValueError(
            f"event callback from module {module!r} maps to no ledger layer"
        )
    return leaf


def instrument_clock(ledger: Ledger, clock: object) -> None:
    """Time ``clock.run`` as SimClock and each event callback as its layer."""
    schedule = clock.schedule
    layers: Dict[str, str] = {}
    call = ledger.call
    counts = ledger.counts

    def traced_schedule(delay, callback, daemon=False):
        module = getattr(callback, "__module__", None)
        layer = layers.get(module)
        if layer is None:
            layer = layers[module] = module_layer(module)
        name = f"{layer}.event"

        def fire():
            counts["simclock.events"] += 1
            call(layer, name, callback)

        return schedule(delay, fire, daemon=daemon)

    clock.schedule = traced_schedule
    wrap_method(ledger, clock, "run", "simclock")
