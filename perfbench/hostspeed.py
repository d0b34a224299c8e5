"""Host speed calibration: scale host times to one nominal CPU speed.

On a shared virtual machine the speed of one process swings by up to
2x, from one minute to the next and within seconds.  Process CPU time
does not hide that: the slowdown is in the work done per CPU second
(contention from neighbours for caches, memory and cores), not in time
taken from the process.

A fixed reference loop tracks most of it.  The loop allocates and frees
the way the program does (tuples, lists, strings, a dict, a heap), so it
slows down with it.  The benchmark reads the loop's time between parts
and multiplies each part's host times by ``NOMINAL_S`` over the mean of
the readings on either side: the time the part would have taken on a
host that runs the loop in ``NOMINAL_S``.  Parts last about a second, so
the readings follow the speed changes; a single reading is noisy, but a
pass pools many parts.  The loop lives here, not in the program, so no
change to the program moves it.
"""

from __future__ import annotations

import gc
import heapq
from typing import Callable

from ledger import HOST_CLOCK

#: Seconds the reference loop takes at the nominal speed.
NOMINAL_S = 0.01
#: Loop runs per reading; a reading is their mean.  A longer reading
#: averages over more of the host's sub-second speed changes: with 8
#: runs, scaling cut the run-to-run spread of one repeated corpus part
#: from 0.21-0.26 to 0.10-0.14 (coefficient of variation), with 3 runs
#: it did not.
REPEATS = 8
#: Items the loop handles per run.
ITEMS = 5000


def reference_loop(items: int = ITEMS) -> int:
    """Fixed allocation-heavy work: fill a dict and drain a heap."""
    table = {}
    heap: list = []
    for i in range(items):
        table[(i, i % 7)] = [i, str(i)]
        heapq.heappush(heap, (i * 7919 % 10007, i))
    while heap:
        heapq.heappop(heap)
    return len(table)


def reading(clock: Callable[[], float] = HOST_CLOCK, loop: Callable[[], int] = reference_loop) -> float:
    """Seconds the reference loop takes now (mean of ``REPEATS`` runs).

    The heap is collected first and the collector is off while the loop
    runs, so a collection of the program's heap never lands in a reading.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        for _ in range(REPEATS):
            loop()
        return (clock() - start) / REPEATS
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor from host seconds to nominal seconds for work between two readings."""
    return NOMINAL_S / ((before + after) / 2.0)
