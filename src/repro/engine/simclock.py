"""Discrete-event simulation clock.

All engine-side time (pod start/finish, data fetches, utilization
sampling) advances through one :class:`SimClock`.  Events are callbacks
ordered by ``(time, sequence)`` so simultaneous events fire in
scheduling order, which keeps every simulation run deterministic for a
fixed seed.

Events come in two flavours: regular events drive the simulation, while
*daemon* events (periodic samplers, observability ticks) piggyback on
it — when only daemon events remain and no ``until`` horizon was given,
:meth:`SimClock.run` stops instead of letting a self-re-arming sampler
spin the loop forever.  Daemon events already *due* at the drain
boundary still fire before :meth:`SimClock.run` returns, so a sampler
whose interval lands exactly on the makespan is not silently dropped,
and a daemon registered against an already-drained clock fires on the
next ``run()`` instead of never.

Hot-path layout: at 100k-workflow fleets the clock processes tens of
millions of events, so each event is one ``__slots__`` record, the
:class:`EventHandle` :meth:`SimClock.schedule` returns, and heap entries
are bare ``(time, seq, handle)`` tuples (no dataclass ``__lt__`` per
comparison).  Cancelled entries stay in the heap until they surface.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised on clock misuse (e.g. scheduling in the past)."""


class EventHandle:
    """One scheduled event: the heap's record and the caller's handle.

    Firing drops the callback before calling it, so a handle kept after
    its event ran (the operator's ``pending_handles``) holds no closure.
    """

    __slots__ = ("time", "callback", "daemon", "cancelled", "fired", "clock")

    def __init__(
        self,
        time: float,
        callback: Callable[[], None],
        daemon: bool,
        clock: SimClock,
    ) -> None:
        self.time = time
        self.callback: Optional[Callable[[], None]] = callback
        self.daemon = daemon
        self.cancelled = False
        self.fired = False
        self.clock = clock

    def cancel(self) -> None:
        # Cancelling an event that already ran (or was already cancelled)
        # must be a no-op — a second live-count decrement here would make
        # the run loop believe work drained while events still pend.
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if not self.daemon:
            self.clock._live -= 1


class SimClock:
    """A heap-ordered event loop with virtual time in seconds."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = 0
        #: Count of pending non-daemon, non-cancelled events; the run
        #: loop keeps going only while work (not just sampling) remains.
        self._live = 0

    @property
    def now(self) -> float:
        return self._now

    def schedule(
        self, delay: float, callback: Callable[[], None], daemon: bool = False
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``daemon=True`` marks a background event (e.g. a utilization
        sample) that should not, by itself, keep :meth:`run` alive.
        """
        if not 0 <= delay < _INF:  # NaN fails every comparison
            raise SimulationError(f"delay must be finite and >= 0 (delay={delay})")
        when = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(when, callback, daemon, self)
        heapq.heappush(self._heap, (when, seq, handle))
        if not daemon:
            self._live += 1
        return handle

    def schedule_at(
        self, when: float, callback: Callable[[], None], daemon: bool = False
    ) -> EventHandle:
        """Schedule ``callback`` at absolute virtual time ``when``."""
        return self.schedule(when - self._now, callback, daemon=daemon)

    def step(self) -> bool:
        """Fire the next pending event; returns False when none remain."""
        heap = self._heap
        while heap:
            time_, _seq, event = heapq.heappop(heap)
            if event.cancelled:
                continue
            if not event.daemon:
                self._live -= 1
            event.fired = True
            self._now = time_
            callback = event.callback
            event.callback = None
            callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Run events until the work drains or virtual time passes ``until``.

        Without ``until``, the loop stops once only daemon events (if
        any) remain — a periodic sampler cannot spin the simulation
        forever.  Daemon events *due at the drain boundary* (their time
        is not after the final work event's) still fire before the loop
        stops; if one of them schedules fresh work, the loop resumes.
        With ``until``, daemon events fire up to the horizon, which is
        what utilization sampling over a fixed window wants.

        ``max_events`` is a runaway-loop backstop; exceeding it raises
        :class:`SimulationError` rather than hanging the caller, as does
        an ``until`` that is not finite or lies before :attr:`now`.
        """
        if until is not None and not self._now <= until < _INF:
            raise SimulationError(
                f"until must be finite and >= now (until={until}, now={self._now})"
            )
        fired = 0
        while self._heap:
            if until is None and self._live <= 0:
                # Work has drained.  Fire daemon events already due at
                # the boundary (head time <= now) — a sampler tick that
                # lands exactly on the makespan must not depend on heap
                # insertion order, and a daemon registered after a
                # previous drain must fire on this run, not never.
                if self._peek_time() > self._now:
                    break
                if not self.step():
                    break
            elif until is not None and self._peek_time() > until:
                self._now = until
                break
            elif not self.step():
                break
            fired += 1
            if fired > max_events:
                raise SimulationError(f"exceeded {max_events} events; likely a loop")
        if until is not None and self._now < until and not self._heap:
            self._now = until
        return self._now

    def _peek_time(self) -> float:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else _INF

    def pending(self) -> int:
        """Uncancelled events in the heap (a scan; tests and debugging)."""
        return sum(not event.cancelled for _time, _seq, event in self._heap)

    def pending_work(self) -> int:
        """Pending non-daemon events (what keeps :meth:`run` alive)."""
        return self._live
