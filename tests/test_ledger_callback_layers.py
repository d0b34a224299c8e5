"""Every clock callback comes from a module the benchmark ledger can name.

``perfbench/ledger.py`` wraps a clock's ``schedule`` and times each event
callback as a span of the layer named by the callback's defining module;
its ``module_layer`` raises for a module whose last name is no ledger
layer.  Moving the attempt, backoff or drain callbacks out of
``engine/operator.py``, or the placement pass and arrivals out of
``engine/admission.py``, would break the traced benchmark.  These tests
catch that in the unit suite, on the runs the benchmark's workloads make.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.engine.config import EngineConfig
from repro.engine.journal import Journal
from repro.engine.simclock import SimClock
from repro.engine.status import WorkflowPhase
from repro.experiments import sql_nl_pipeline
from repro.workloads.fleetgen import build_fleet, build_pipeline, submit_fleet

ROOT = Path(__file__).resolve().parents[1]


def _ledger():
    spec = importlib.util.spec_from_file_location(
        "perfbench_ledger", ROOT / "perfbench" / "ledger.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def scheduled_modules(monkeypatch):
    """The defining module of every callback any clock schedules."""
    modules = set()
    schedule = SimClock.schedule

    def recording(self, delay, callback, daemon=False):
        modules.add(getattr(callback, "__module__", None))
        return schedule(self, delay, callback, daemon)

    monkeypatch.setattr(SimClock, "schedule", recording)
    return modules


def _run_fleet(burst: bool) -> None:
    spec = build_fleet(60, seed=1)
    if burst:
        spec.arrivals = [(0.0,) + arrival[1:] for arrival in spec.arrivals]
    pipeline = build_pipeline(
        spec,
        EngineConfig(fairness="weighted-fair"),
        journal=None if burst else Journal(),
    )
    records = submit_fleet(pipeline, spec)
    pipeline.run()
    assert all(r.record.phase is WorkflowPhase.SUCCEEDED for r in records)


def test_every_callback_module_maps_to_a_ledger_layer(scheduled_modules):
    _run_fleet(burst=False)
    _run_fleet(burst=True)
    assert sql_nl_pipeline.run(size=8).workflows_submitted > 0
    assert {"repro.engine.admission", "repro.engine.operator"} <= scheduled_modules
    module_layer = _ledger().module_layer
    for module in sorted(scheduled_modules, key=str):
        module_layer(module)  # raises for a module the ledger cannot name


def test_schedule_at_goes_through_the_instance_schedule():
    """The ledger wraps ``clock.schedule`` on the instance; an arrival
    scheduled with ``schedule_at`` must reach that wrapper."""
    clock = SimClock()
    seen = []
    schedule = clock.schedule

    def wrapped(delay, callback, daemon=False):
        seen.append(delay)
        return schedule(delay, callback, daemon=daemon)

    clock.schedule = wrapped
    clock.schedule_at(4.0, lambda: None)
    clock.run()
    assert seen == [4.0]
