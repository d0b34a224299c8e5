"""Unit tests for the discrete-event clock."""

import pytest

from repro.engine.simclock import SimClock, SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        clock = SimClock()
        fired = []
        clock.schedule(5, lambda: fired.append("b"))
        clock.schedule(1, lambda: fired.append("a"))
        clock.schedule(9, lambda: fired.append("c"))
        clock.run()
        assert fired == ["a", "b", "c"]
        assert clock.now == 9

    def test_simultaneous_events_fire_in_schedule_order(self):
        clock = SimClock()
        fired = []
        for index in range(5):
            clock.schedule(1.0, lambda i=index: fired.append(i))
        clock.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            SimClock().schedule(-1, lambda: None)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, delay):
        # Accepted, a NaN or inf event would move ``now`` there for
        # every later event on the clock.
        clock = SimClock()
        with pytest.raises(SimulationError):
            clock.schedule(delay, lambda: None)
        with pytest.raises(SimulationError):
            clock.schedule_at(delay, lambda: None)
        assert clock.run() == 0.0

    def test_schedule_at_absolute_time(self):
        clock = SimClock()
        seen = []
        clock.schedule_at(7.5, lambda: seen.append(clock.now))
        clock.run()
        assert seen == [7.5]


class TestRun:
    def test_run_until_stops_before_future_events(self):
        clock = SimClock()
        fired = []
        clock.schedule(10, lambda: fired.append("late"))
        clock.run(until=5)
        assert fired == []
        assert clock.now == 5
        clock.run()
        assert fired == ["late"]

    @pytest.mark.parametrize("until", [float("nan"), float("inf")])
    def test_non_finite_horizon_rejected(self, until):
        # Accepted, ``run(until=inf)`` on a drained clock moved ``now``
        # to inf, where every later event would land.
        clock = SimClock()
        clock.schedule(1.0, lambda: None)
        clock.run()
        with pytest.raises(SimulationError):
            clock.run(until=until)
        assert clock.now == 1.0
        assert clock.schedule(1.0, lambda: None).time == 2.0

    def test_horizon_before_now_rejected(self):
        # Accepted, ``run(until=3.0)`` at 6.0 moved the clock back to 3.0.
        clock = SimClock()
        clock.schedule(6.0, lambda: None)
        clock.run()
        with pytest.raises(SimulationError):
            clock.run(until=3.0)
        assert clock.now == 6.0
        assert clock.run(until=6.0) == 6.0
        assert clock.schedule(1.0, lambda: None).time == 7.0

    def test_events_scheduled_during_run_are_processed(self):
        clock = SimClock()
        fired = []

        def first():
            fired.append("first")
            clock.schedule(1, lambda: fired.append("second"))

        clock.schedule(0, first)
        clock.run()
        assert fired == ["first", "second"]

    def test_runaway_loop_guard(self):
        clock = SimClock()

        def forever():
            clock.schedule(1, forever)

        clock.schedule(0, forever)
        with pytest.raises(SimulationError):
            clock.run(max_events=100)


class TestDaemonDrainBoundary:
    """Regression: daemon events due at the drain boundary must fire.

    The old loop checked ``_live <= 0`` before popping anything, so a
    daemon event registered after a previous ``run()`` had drained the
    queue was silently never fired in a fresh drain cycle, and a sampler
    tick landing exactly on the makespan fired only if it happened to be
    scheduled with a lower sequence number than the final work event.
    """

    def test_daemon_registered_after_drain_fires_on_next_run(self):
        clock = SimClock()
        clock.schedule(1.0, lambda: None)
        clock.run()
        assert clock.now == 1.0
        fired = []
        clock.schedule(0.0, lambda: fired.append(clock.now), daemon=True)
        clock.run()
        assert fired == [1.0]

    def test_boundary_sample_fires_regardless_of_schedule_order(self):
        # A sampler re-arming every 1.0s alongside work that finishes at
        # exactly 3.0: the 3.0 tick must be recorded even though the
        # sampler's re-arm was scheduled after the final work event.
        clock = SimClock()
        samples = []

        def sample():
            samples.append(clock.now)
            clock.schedule(1.0, sample, daemon=True)

        clock.schedule(0.0, sample, daemon=True)
        clock.schedule(3.0, lambda: None)
        clock.run()
        assert samples == [0.0, 1.0, 2.0, 3.0]

    def test_daemon_past_the_boundary_still_does_not_fire(self):
        clock = SimClock()
        fired = []
        clock.schedule(2.0, lambda: None)
        clock.schedule(5.0, lambda: fired.append("late"), daemon=True)
        clock.run()
        assert fired == []
        assert clock.now == 2.0

    def test_boundary_daemon_scheduling_work_resumes_the_loop(self):
        clock = SimClock()
        fired = []

        def daemon():
            fired.append("daemon")
            clock.schedule(1.0, lambda: fired.append("work"))

        clock.schedule(1.0, lambda: fired.append("first"))
        clock.schedule(1.0, daemon, daemon=True)
        clock.run()
        assert fired == ["first", "daemon", "work"]
        assert clock.now == 2.0


class TestHandleRecycling:
    """Event records are pooled; handles must survive recycling."""

    def test_fired_handle_reports_fired_after_reuse(self):
        clock = SimClock()
        handle = clock.schedule(1.0, lambda: None)
        clock.run()
        # Churn the pool so the record is reused for new events.
        for _ in range(10):
            clock.schedule(1.0, lambda: None)
        clock.run()
        assert handle.fired is True
        assert handle.cancelled is False
        assert handle.time == 1.0

    def test_cancel_after_reuse_is_a_no_op(self):
        clock = SimClock()
        handle = clock.schedule(1.0, lambda: None)
        clock.run()
        live = clock.schedule(1.0, lambda: None)
        handle.cancel()  # must not cancel the new occupant
        assert live.cancelled is False
        assert clock.pending_work() == 1
        clock.run()

    def test_cancelled_handle_keeps_reporting_cancelled(self):
        clock = SimClock()
        handle = clock.schedule(1.0, lambda: None)
        handle.cancel()
        for _ in range(10):
            clock.schedule(0.5, lambda: None)
        clock.run()
        assert handle.cancelled is True
        assert handle.fired is False


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        clock = SimClock()
        fired = []
        handle = clock.schedule(1, lambda: fired.append("x"))
        handle.cancel()
        clock.run()
        assert fired == []

    def test_pending_counts_exclude_cancelled(self):
        clock = SimClock()
        keep = clock.schedule(1, lambda: None)
        drop = clock.schedule(2, lambda: None)
        drop.cancel()
        assert clock.pending() == 1
        assert keep.time == 1
