"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostspeed  # noqa: E402
from ledger import Ledger, instrument_clock, module_layer  # noqa: E402
from repro.engine.simclock import SimClock  # noqa: E402
from workloads import (  # noqa: E402
    digest,
    instrument_corpus,
    instrument_fleet,
    reference_corpus,
    reference_fleet,
    run_corpus,
    run_fleet,
    setup_corpus,
    setup_fleet,
)


class FakeClock:
    """Host clock that advances only when the test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_nested_call_self_time_and_layer():
    clock = FakeClock()
    ledger = Ledger(clock=clock)

    def inner():
        clock.now += 3.0

    def outer():
        clock.now += 2.0
        ledger.call("queue", "queue.try_place", inner)
        clock.now += 5.0

    with ledger.window():
        clock.now += 1.0
        ledger.call("admission", "admission.event", outer)
        clock.now += 4.0

    self_s = ledger.layer_self_s()
    assert self_s["admission"] == 7.0
    assert self_s["queue"] == 3.0
    assert self_s["other"] == 5.0
    assert ledger.wall_s == 15.0
    assert sum(self_s.values()) == ledger.wall_s
    assert ledger.total_s["admission.event"] == 10.0
    assert ledger.counts["queue.try_place"] == 1


def test_clock_callbacks_take_their_defining_module_as_layer():
    ledger = Ledger()
    clock = SimClock()
    instrument_clock(ledger, clock)
    fired = []

    def callback():
        fired.append(clock.now)

    callback.__module__ = "repro.engine.operator"
    clock.schedule_at(5.0, callback)
    with ledger.window():
        clock.run()
    assert fired == [5.0]
    assert ledger.counts["operator.event"] == 1
    assert ledger.counts["simclock.run"] == 1
    assert ledger.counts["simclock.events"] == 1
    assert module_layer("repro.engine.admission") == "admission"


def test_unknown_callback_module_is_an_error():
    with pytest.raises(ValueError):
        module_layer("repro.engine.metrics")


def test_host_speed_reading_is_the_mean_loop_time_and_scales_to_nominal():
    clock = FakeClock()

    def loop():
        clock.now += 0.02
        return 0

    assert hostspeed.reading(clock, loop) == pytest.approx(0.02)
    assert hostspeed.scale(0.02, 0.03) == pytest.approx(hostspeed.NOMINAL_S / 0.025)


def test_corpus_run_matches_sql_nl_pipeline_on_small_corpus():
    result = run_corpus(setup_corpus(3, size=16), check=True)
    assert result.problems == []
    assert result.completed == result.submitted
    assert digest(reference_corpus(3, size=16)) == digest(result.fingerprint)


def test_tracing_changes_no_virtual_outcome():
    plain = run_corpus(setup_corpus(5, size=16))
    part = setup_corpus(5, size=16)
    ledger = Ledger()
    instrument_corpus(ledger, part)
    with ledger.window():
        traced = run_corpus(part, ledger)
    assert traced.virtual() == plain.virtual()
    assert ledger.self_s["sqlflow"] + ledger.self_s["nl2wf"] > 0.0
    assert abs(sum(ledger.layer_self_s().values()) - ledger.wall_s) < 1e-9

    plain = run_fleet(setup_fleet(2, 200, burst=True, journaled=True))
    part = setup_fleet(2, 200, burst=True, journaled=True)
    ledger = Ledger()
    instrument_fleet(ledger, part)
    with ledger.window():
        traced = run_fleet(part, ledger)
    assert traced.virtual() == plain.virtual()
    assert ledger.counts["journal.append"] > 0
    assert digest(reference_fleet(2, 200, True, True)) == digest(traced.fingerprint)
