"""Seeded fault injection and recovery verification for the simulator.

The chaos layer stresses the engine the way production stresses the
real system: nodes crash and recover, pods are evicted, the cache tier
blinks out, and the workflow controller itself restarts mid-run.  All
of it is seeded and driven by the simulation clock, so a storm is
perfectly replayable — and after it passes, the invariant checker
proves no resources, reservations, or quota charges leaked.
"""

from .faults import (
    CacheOutage,
    ChaosPlan,
    ChaosPlanError,
    Fault,
    NodeCrash,
    OperatorRestart,
    PodEviction,
)
from .injector import ChaosInjector
from .invariants import (
    InvariantError,
    InvariantReport,
    check_cluster,
    check_operator_idle,
    check_queue_drained,
    check_read_accounting,
    full_check,
)

__all__ = [
    "CacheOutage",
    "ChaosInjector",
    "ChaosPlan",
    "ChaosPlanError",
    "Fault",
    "InvariantError",
    "InvariantReport",
    "NodeCrash",
    "OperatorRestart",
    "PodEviction",
    "check_cluster",
    "check_operator_idle",
    "check_queue_drained",
    "check_read_accounting",
    "full_check",
]
