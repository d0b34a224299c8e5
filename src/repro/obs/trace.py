"""Span/event recorder keyed on the simulation's virtual time.

A :class:`Tracer` records nested :class:`Span` objects (workflow ->
step -> {queue-wait, cache-fetch, compute, retry-backoff}) plus instant
events, all timestamped in virtual seconds supplied by the caller (the
operator passes ``clock.now``), so the recorder itself has no clock
dependency.  :meth:`Tracer.to_chrome` exports the Chrome ``trace_event``
JSON format: each root span (a workflow) becomes a process, each of its
child spans (a step) a thread, so a run opens directly in
``about:tracing`` / Perfetto with correct visual nesting.

:class:`NullTracer` is the disabled-tracing stand-in: same API, no
recording, so instrumented code pays only a no-op method call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class TraceError(ValueError):
    """Raised on tracer misuse (e.g. a span ending before it starts)."""


@dataclass(slots=True)
class Span:
    """One recorded interval of virtual time."""

    span_id: int
    name: str
    cat: str
    start: float
    end: Optional[float] = None
    parent_id: Optional[int] = None
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def contains(self, other: "Span") -> bool:
        """Is ``other`` fully inside this span's time window?"""
        if self.end is None or other.end is None:
            return False
        return self.start <= other.start and other.end <= self.end


@dataclass(slots=True)
class InstantEvent:
    """A zero-duration marker (e.g. a retry decision)."""

    name: str
    cat: str
    time: float
    parent_id: Optional[int] = None
    args: Dict[str, object] = field(default_factory=dict)


class Tracer:
    """Records spans and instant events; exports Chrome trace JSON."""

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._events: List[InstantEvent] = []
        self._next_id = 0

    # ------------------------------------------------------------ recording

    def begin(
        self,
        name: str,
        cat: str,
        ts: float,
        parent: Optional[Span] = None,
        **args: object,
    ) -> Span:
        """Open a span at virtual time ``ts``; close it with :meth:`end`."""
        # ``args`` is this call's own kwargs dict — safe to adopt as-is.
        span = Span(
            span_id=self._next_id,
            name=name,
            cat=cat,
            start=ts,
            parent_id=parent.span_id if parent is not None else None,
            args=args,
        )
        self._next_id += 1
        self._spans.append(span)
        return span

    def end(self, span: Optional[Span], ts: float, **args: object) -> None:
        """Close an open span.  Idempotent: a second end is ignored, so
        teardown paths may end defensively."""
        if span is None or span.end is not None:
            return
        if ts < span.start:
            raise TraceError(f"span {span.name!r} ends at {ts} before start {span.start}")
        span.end = ts
        span.args.update(args)

    def add_span(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        parent: Optional[Span] = None,
        **args: object,
    ) -> Span:
        """Record a complete span whose extent is already known — the
        natural shape in a discrete-event simulation, where an attempt's
        timeline is decided the moment it is scheduled."""
        if end < start:
            raise TraceError(f"span {name!r}: end {end} precedes start {start}")
        span = Span(
            span_id=self._next_id,
            name=name,
            cat=cat,
            start=start,
            end=end,
            parent_id=parent.span_id if parent is not None else None,
            args=args,
        )
        self._next_id += 1
        self._spans.append(span)
        return span

    def instant(
        self,
        name: str,
        cat: str,
        ts: float,
        parent: Optional[Span] = None,
        **args: object,
    ) -> InstantEvent:
        event = InstantEvent(
            name=name,
            cat=cat,
            time=ts,
            parent_id=parent.span_id if parent is not None else None,
            args=args,
        )
        self._events.append(event)
        return event

    # ------------------------------------------------------------- queries

    def spans(self, cat: Optional[str] = None) -> List[Span]:
        if cat is None:
            return list(self._spans)
        return [s for s in self._spans if s.cat == cat]

    def events(self, cat: Optional[str] = None) -> List[InstantEvent]:
        if cat is None:
            return list(self._events)
        return [e for e in self._events if e.cat == cat]

    def children(self, span: Span) -> List[Span]:
        return [s for s in self._spans if s.parent_id == span.span_id]

    def roots(self) -> List[Span]:
        return [s for s in self._spans if s.parent_id is None]

    def find(self, name: str, cat: Optional[str] = None) -> Optional[Span]:
        for span in self._spans:
            if span.name == name and (cat is None or span.cat == cat):
                return span
        return None

    def __len__(self) -> int:
        return len(self._spans)

    # -------------------------------------------------------------- export

    def to_chrome(self) -> dict:
        """Export the Chrome ``trace_event`` JSON object format.

        Layout: every root span becomes a *process* (pid), every direct
        child of a root becomes a *thread* (tid) of that process, and
        deeper descendants inherit their step's thread.  Concurrent
        steps therefore never overlap on a shared track, and the phase
        sub-spans (fetch / compute / backoff) nest visually inside
        their step's row.  Times are exported in microseconds, as the
        format requires.
        """
        trace_events: List[dict] = []
        pid_of_span: Dict[int, int] = {}
        tid_of_span: Dict[int, int] = {}

        for pid, root in enumerate(self.roots(), start=1):
            trace_events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"{root.cat}:{root.name}"},
                }
            )
            pid_of_span[root.span_id] = pid
            tid_of_span[root.span_id] = 0
            next_tid = 1
            stack = [(child, None) for child in self.children(root)]
            while stack:
                span, inherited_tid = stack.pop()
                if inherited_tid is None:
                    tid = next_tid
                    next_tid += 1
                    trace_events.append(
                        {
                            "name": "thread_name",
                            "ph": "M",
                            "pid": pid,
                            "tid": tid,
                            "args": {"name": f"{span.cat}:{span.name}"},
                        }
                    )
                else:
                    tid = inherited_tid
                pid_of_span[span.span_id] = pid
                tid_of_span[span.span_id] = tid
                stack.extend((child, tid) for child in self.children(span))

        for span in self._spans:
            end = span.end if span.end is not None else span.start
            trace_events.append(
                {
                    "name": span.name,
                    "cat": span.cat,
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": (end - span.start) * 1e6,
                    "pid": pid_of_span.get(span.span_id, 0),
                    "tid": tid_of_span.get(span.span_id, 0),
                    "args": dict(span.args),
                }
            )
        for event in self._events:
            trace_events.append(
                {
                    "name": event.name,
                    "cat": event.cat,
                    "ph": "i",
                    "s": "t",
                    "ts": event.time * 1e6,
                    "pid": pid_of_span.get(event.parent_id, 0),
                    "tid": tid_of_span.get(event.parent_id, 0),
                    "args": dict(event.args),
                }
            )
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome(), handle, indent=1)


def journal_to_tracer(journal, tracer: Optional[Tracer] = None) -> Tracer:
    """Render a journal's event streams as trace spans, post-hoc.

    The journal-backed engine records what happened; this turns that
    record into the same Chrome-viewable shape live tracing produces —
    one span per workflow (``submitted`` → ``workflow-finished``), one
    per settled attempt, instants for everything else (admission
    decisions, checkpoints, attempts lost to a killed replica).  Works
    on any journal-shaped object (``records()`` yielding items with
    ``stream`` / ``kind`` / ``at`` / ``payload``), so it lives here
    without importing the engine.
    """
    tracer = tracer if tracer is not None else Tracer()
    #: stream -> (workflow span, {step: attempt-start record}).
    open_spans: dict = {}
    open_attempts: dict = {}
    last_at: dict = {}
    for record in journal.records():
        stream, kind, at = record.stream, record.kind, record.at
        payload = record.payload
        last_at[stream] = at
        if kind == "submitted":
            open_spans[stream] = tracer.begin(stream, "journal", at)
        elif kind == "workflow-finished":
            tracer.end(open_spans.pop(stream, None), at, phase=payload.get("phase"))
        elif kind == "attempt-started":
            open_attempts[(stream, payload["step"])] = record
        elif kind in ("attempt-succeeded", "attempt-failed", "attempt-interrupted"):
            started = open_attempts.pop((stream, payload["step"]), None)
            tracer.add_span(
                f"{stream}/{payload['step']}",
                "journal-attempt",
                started.at if started is not None else at,
                at,
                parent=open_spans.get(stream),
                outcome=kind.removeprefix("attempt-"),
            )
        else:
            # admission-* decisions, checkpointed, step-skipped/cached/aborted.
            # A rejected arrival never ran, so it has no parent: the open
            # span of its stream belongs to a running copy of that name.
            tracer.instant(
                f"{stream}:{kind}",
                "journal",
                at,
                parent=None if kind == "admission-rejected" else open_spans.get(stream),
                **{k: v for k, v in payload.items() if not isinstance(v, (dict, list))},
            )
    # Streams that never finished (mid-journal prefix): close at last event.
    for stream, span in open_spans.items():
        tracer.end(span, last_at[stream], phase="unfinished")
    for (stream, step), started in open_attempts.items():
        tracer.instant(
            f"{stream}/{step}:attempt-lost", "journal", started.at, step=step
        )
    return tracer


class NullTracer:
    """API-compatible no-op tracer (tracing disabled, near-zero cost)."""

    def begin(self, name, cat, ts, parent=None, **args):  # noqa: D102
        return None

    def end(self, span, ts, **args) -> None:
        return None

    def add_span(self, name, cat, start, end, parent=None, **args):
        return None

    def instant(self, name, cat, ts, parent=None, **args):
        return None

    def spans(self, cat=None):
        return []

    def events(self, cat=None):
        return []

    def roots(self):
        return []

    def __len__(self) -> int:
        return 0
