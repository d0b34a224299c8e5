"""Capacity-bounded in-memory artifact store (the Alluxio stand-in).

The paper delegates intermediate artifact storage to a distributed
in-memory system (Apache Alluxio) with finite capacity; cache policies
decide what stays.  :class:`ArtifactStore` tracks entries, enforces the
byte capacity, and keeps the accounting (hits / misses / evictions /
bytes) that the evaluation figures summarize.

Accounting lives in a :class:`repro.obs.metrics.MetricsRegistry` — the
single source of truth shared with the engine when one registry is
wired through the whole simulation.  :class:`CacheStats` is a
read-only view over those counters (``store.stats.hits`` etc.); the
store itself increments the counters' bound series directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..obs.metrics import Counter, MetricsRegistry

#: Store event listener: called with ``(event, uid)`` where event is
#: ``"put"``, ``"evict"`` or ``"clear"`` (uid is ``""`` for clear).
StoreListener = Callable[[str, str], None]


class CacheError(RuntimeError):
    """Base class for artifact-store failures."""


class InsufficientSpaceError(CacheError):
    """Put attempted without enough free capacity."""


class ArtifactTooLargeError(CacheError):
    """Artifact is bigger than the whole store; it can never be cached."""


@dataclass
class CacheEntry:
    uid: str
    size_bytes: int
    kind: str = "data"
    cached_at: float = 0.0
    last_access: float = 0.0
    insert_seq: int = 0
    access_count: int = 0


def _counter_property(attr: str):
    """Read-only property over a backing counter's total."""

    def getter(self: "CacheStats") -> int:
        counter: Counter = getattr(self, attr)
        return int(counter.total())

    return property(getter)


class CacheStats:
    """Cache accounting, delegating to a metrics registry.

    Each field reads a registry counter (``cache_hits_total``,
    ``cache_misses_total``, ...), so a metrics snapshot and the
    experiment reports can never disagree.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics or MetricsRegistry()
        self._hits = self.metrics.counter(
            "cache_hits_total", "Input reads served from the cache"
        )
        self._misses = self.metrics.counter(
            "cache_misses_total", "Input reads that went to remote storage"
        )
        self._evictions = self.metrics.counter(
            "cache_evictions_total", "Artifacts evicted to make room"
        )
        self._insertions = self.metrics.counter(
            "cache_insertions_total", "Artifacts admitted into the store"
        )
        self._rejected = self.metrics.counter(
            "cache_rejected_total", "Artifacts the policy declined to admit"
        )
        self._bytes_evicted = self.metrics.counter(
            "cache_bytes_evicted_total", "Bytes reclaimed by evictions"
        )

    hits = _counter_property("_hits")
    misses = _counter_property("_misses")
    evictions = _counter_property("_evictions")
    insertions = _counter_property("_insertions")
    rejected = _counter_property("_rejected")
    bytes_evicted = _counter_property("_bytes_evicted")

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # keeps debugging output informative
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, insertions={self.insertions}, "
            f"rejected={self.rejected}, bytes_evicted={self.bytes_evicted})"
        )


class ArtifactStore:
    """A byte-capacity-bounded artifact cache.

    ``capacity_bytes=None`` models unbounded storage — used by the
    Cache-ALL baseline, whose point in the paper's scatter plots is
    "fast but resource-hungry".  Pass a shared ``metrics`` registry to
    surface the store's counters and occupancy gauges alongside the
    engine's.
    """

    def __init__(
        self,
        capacity_bytes: Optional[int],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity_bytes is not None and capacity_bytes < 0:
            raise CacheError(f"capacity must be >= 0: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._entries: Dict[str, CacheEntry] = {}
        self._used = 0
        self._seq = 0
        self.metrics = metrics or MetricsRegistry()
        self.stats = CacheStats(self.metrics)
        stats = self.stats
        self._m_hits = stats._hits.labels()
        self._m_misses = stats._misses.labels()
        self._m_evictions = stats._evictions.labels()
        self._m_insertions = stats._insertions.labels()
        self._m_rejected = stats._rejected.labels()
        self._m_bytes_evicted = stats._bytes_evicted.labels()
        self._used_gauge = self.metrics.gauge(
            "cache_used_bytes", "Bytes currently resident in the store"
        ).labels()
        self._entries_gauge = self.metrics.gauge(
            "cache_entries", "Artifacts currently resident in the store"
        ).labels()
        #: Peak bytes ever held — the "caching storage consumption"
        #: axis in Fig. 7's scatter plot.
        self.peak_bytes = 0
        self._listeners: List[StoreListener] = []

    def add_listener(self, listener: StoreListener) -> None:
        """Subscribe to residency changes (``put``/``evict``/``clear``).

        The incremental scorer uses these events to invalidate L(u)
        memos whose G_p truncation just changed; the Couler policy uses
        them to keep its eviction heap in lockstep with the store.
        """
        if listener not in self._listeners:
            self._listeners.append(listener)

    def _notify(self, event: str, uid: str) -> None:
        for listener in self._listeners:
            listener(event, uid)

    # --------------------------------------------------------------- queries

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> float:
        if self.capacity_bytes is None:
            return float("inf")
        return self.capacity_bytes - self._used

    def __len__(self) -> int:
        return len(self._entries)

    def contains(self, uid: str) -> bool:
        return uid in self._entries

    def entry(self, uid: str) -> Optional[CacheEntry]:
        return self._entries.get(uid)

    def entries(self) -> List[CacheEntry]:
        return list(self._entries.values())

    def uids(self) -> List[str]:
        return list(self._entries)

    # ------------------------------------------------------------- mutations

    def fits(self, size_bytes: int) -> bool:
        return size_bytes <= self.free_bytes

    def can_ever_fit(self, size_bytes: int) -> bool:
        return self.capacity_bytes is None or size_bytes <= self.capacity_bytes

    def _update_occupancy(self) -> None:
        self._used_gauge.set(self._used)
        self._entries_gauge.set(len(self._entries))

    def put(self, uid: str, size_bytes: int, kind: str = "data", now: float = 0.0) -> CacheEntry:
        """Insert an artifact; the caller must have made room first."""
        if uid in self._entries:
            entry = self._entries[uid]
            entry.last_access = now
            return entry
        if not self.can_ever_fit(size_bytes):
            raise ArtifactTooLargeError(
                f"{uid}: {size_bytes} bytes exceeds store capacity "
                f"{self.capacity_bytes}"
            )
        if not self.fits(size_bytes):
            raise InsufficientSpaceError(
                f"{uid}: needs {size_bytes} bytes, only {self.free_bytes} free"
            )
        self._seq += 1
        entry = CacheEntry(
            uid=uid,
            size_bytes=size_bytes,
            kind=kind,
            cached_at=now,
            last_access=now,
            insert_seq=self._seq,
        )
        self._entries[uid] = entry
        self._used += size_bytes
        self.peak_bytes = max(self.peak_bytes, self._used)
        self._m_insertions.inc()
        self._update_occupancy()
        self._notify("put", uid)
        return entry

    def evict(self, uid: str) -> CacheEntry:
        entry = self._entries.pop(uid, None)
        if entry is None:
            raise CacheError(f"evict of uncached artifact: {uid}")
        self._used -= entry.size_bytes
        self._m_evictions.inc()
        self._m_bytes_evicted.inc(entry.size_bytes)
        self._update_occupancy()
        self._notify("evict", uid)
        return entry

    def record_hit(self, uid: str, now: float) -> None:
        entry = self._entries.get(uid)
        if entry is None:
            raise CacheError(f"hit recorded for uncached artifact: {uid}")
        entry.last_access = now
        entry.access_count += 1
        self._m_hits.inc()

    def record_miss(self) -> None:
        self._m_misses.inc()

    def record_rejection(self) -> None:
        """A policy declined to admit an artifact."""
        self._m_rejected.inc()

    def clear(self) -> None:
        self._entries.clear()
        self._used = 0
        self._update_occupancy()
        self._notify("clear", "")
