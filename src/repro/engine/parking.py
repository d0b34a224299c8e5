"""Headroom-parked admission candidates, indexed by the room they need.

A candidate the admission pipeline parks on headroom fitted no eligible
cluster when a pass last tried it.  Admission headroom grows only when a
release returns a reservation, so it can fit again only on a cluster a
release freed since (:meth:`AdmissionPipeline._placement_pass
<repro.engine.admission.AdmissionPipeline._placement_pass>`).

:class:`HeadroomParking` keeps each parked candidate on one shelf per
cluster that :meth:`MultiClusterQueue.eligible
<repro.engine.queue.MultiClusterQueue.eligible>` admits it to, split by
SLO lane and sorted by ``(peak CPU, seq)``.  Asked which candidates of a
lane fit the freed clusters, it visits on each freed cluster's shelf
only the prefix whose CPU fits that cluster's headroom, runs the exact
:meth:`~repro.k8s.resources.ResourceQuantity.fits_within` test on it,
and answers each candidate once however many freed clusters it fits.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from itertools import islice
from typing import TYPE_CHECKING, Dict, List, Tuple, ValuesView

from ..k8s.cluster import Cluster
from .queue import MultiClusterQueue

if TYPE_CHECKING:
    from .admission import _Pending


class HeadroomParking:
    """The headroom-parked candidates of one admission pipeline."""

    def __init__(self, queue: MultiClusterQueue) -> None:
        self._queue = queue
        #: Every parked candidate by ``seq``.
        self._parked: Dict[int, "_Pending"] = {}
        #: ``(lane, cluster name)`` -> ``(peak cpu, seq, candidate)``
        #: entries in ascending order; ``seq`` is unique, so ordering
        #: never compares two candidates.
        self._shelves: Dict[Tuple[str, str], List[tuple]] = {}
        #: Shelf entries :meth:`fitting` has visited, summed over calls:
        #: the work a wake costs, which the burst bench gates.
        self.visits = 0

    def __contains__(self, seq: int) -> bool:
        return seq in self._parked

    def __len__(self) -> int:
        return len(self._parked)

    def values(self) -> ValuesView["_Pending"]:
        return self._parked.values()

    def _shelves_of(self, pending: "_Pending") -> List[List[tuple]]:
        queued = pending.queued
        lane = pending.admission.slo_class
        shelves = self._shelves
        return [
            shelves.setdefault((lane, cluster.name), [])
            for cluster in self._queue.clusters
            if self._queue.eligible(queued, cluster)
        ]

    def park(self, pending: "_Pending") -> None:
        self._parked[pending.seq] = pending
        entry = (pending.queued.peak_demand().cpu, pending.seq, pending)
        for shelf in self._shelves_of(pending):
            insort(shelf, entry)

    def unpark(self, pending: "_Pending") -> None:
        del self._parked[pending.seq]
        key = (pending.queued.peak_demand().cpu, pending.seq)
        for shelf in self._shelves_of(pending):
            del shelf[bisect_left(shelf, key)]

    def fitting(self, freed: List[Cluster], lane: str) -> List["_Pending"]:
        """The parked candidates of ``lane`` that fit a freed cluster now.

        Exactly those for which some cluster of ``freed`` is eligible
        and has admission headroom for the candidate's peak demand, in
        shelf order (callers sort them).  ``fits_within`` lets CPU
        exceed the room by up to ``1e-9``, so the shelf is cut past the
        last entry at most ``room.cpu + 1e-9``.
        """
        woken: Dict[int, "_Pending"] = {}
        headroom = self._queue.headroom
        for cluster in freed:
            shelf = self._shelves.get((lane, cluster.name))
            if not shelf:
                continue
            room = headroom(cluster)
            end = bisect_right(shelf, (room.cpu + 1e-9, math.inf))
            self.visits += end
            for _, seq, pending in islice(shelf, end):
                if seq not in woken and pending.queued.peak_demand().fits_within(room):
                    woken[seq] = pending
        return list(woken.values())
