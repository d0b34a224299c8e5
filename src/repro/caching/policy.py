"""Cache admission/eviction policies, including Algorithm 2.

A :class:`CachePolicy` decides, when a new artifact is produced, whether
it enters the store and what (if anything) is evicted to make room.
The policy API is a single method over a context object::

    class MyPolicy(CachePolicy):
        name = "mine"

        def decide(self, decision: CacheDecision) -> bool:
            ...

:class:`CacheDecision` carries the artifact, store, scorer, virtual
time and metrics registry, and collects the outcome (admitted flag,
evicted uids, the newcomer's last computed score) so callers stop
duck-typing positional tuples.  Policies may additionally override the
:meth:`CachePolicy.on_evict` / :meth:`CachePolicy.on_external_read`
hooks.  ``decide`` is the only entry point.

:class:`CoulerCachePolicy` implements the paper's Algorithm 2: admit
while space remains; under pressure, compare caching importance factors
(Eq. 6) and evict the minimum-scored artifacts while the newcomer still
beats them; give up on the newcomer the moment it is itself the minimum.
With an :class:`~repro.caching.score.IncrementalArtifactScorer` bound
to the store, the under-pressure loop runs over a lazy-invalidation
min-heap — each eviction costs O(dirty + log n) instead of a full
O(|store|) rescore.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..engine.spec import ArtifactSpec
from ..obs.metrics import MetricsRegistry
from .artifact_store import ArtifactStore
from .score import ArtifactScorer, IncrementalArtifactScorer


@dataclass
class CacheDecision:
    """Context (and outcome record) of one admission decision.

    Inputs are filled by the caller; ``admitted`` / ``evicted`` /
    ``score`` are written by the policy as the decision unfolds, so the
    cache manager's decision log and the verification oracles can
    replay exactly what happened.
    """

    artifact: ArtifactSpec
    store: ArtifactStore
    scorer: Optional[ArtifactScorer] = None
    now: float = 0.0
    metrics: Optional[MetricsRegistry] = None
    #: Outcome: whether the artifact ended up resident.
    admitted: Optional[bool] = None
    #: Outcome: uids this decision evicted, in eviction order.
    evicted: List[str] = field(default_factory=list)
    #: Outcome: the newcomer's most recent importance score (Couler
    #: policy only; recomputed after every eviction, since truncation
    #: of G_p changes it).
    score: Optional[float] = None

    def note_eviction(self, uid: str) -> None:
        self.evicted.append(uid)


class CachePolicy:
    """Strategy object consulted on every artifact production.

    Subclasses implement :meth:`decide`.
    """

    name: str = "abstract"

    def decide(self, decision: CacheDecision) -> bool:
        """Try to cache ``decision.artifact``; True if it was stored."""
        raise NotImplementedError(f"{type(self).__name__} must implement decide()")

    # ---------------------------------------------------------------- hooks

    def on_evict(self, uid: str) -> None:
        """An artifact left the store (any cause).  Default: no-op."""

    def on_external_read(self, decision: CacheDecision) -> bool:
        """A read missed the cache and went to remote storage.

        The default implements read-through admission (Alluxio
        semantics): offer the artifact via :meth:`decide` so later
        readers of the same data hit.  Policies that want different
        read-path behavior override this instead of duck-typing the
        manager.
        """
        return self.decide(decision)


class CoulerCachePolicy(CachePolicy):
    """Algorithm 2: importance-factor-driven dynamic caching.

    Lines 10–11 of the algorithm: while the store has room, every new
    artifact is cached.  Lines 16–31 (``NodeSelection``): under
    pressure, compute I for the newcomer and all cached artifacts, then
    repeatedly evict the global minimum — unless the minimum *is* the
    newcomer, in which case it is rejected and the cache is left
    intact.  After each eviction the affected scores (including the
    newcomer's, whose G_p truncation just changed) are recomputed, as
    the paper specifies.

    Two executions of the same semantics:

    * with a bound :class:`IncrementalArtifactScorer`, a persistent
      min-heap ordered by ``(score, uid)`` is kept in lockstep with the
      store; eviction-time invalidations arrive as dirty sets and only
      those entries are rescored and re-pushed, so each loop iteration
      is O(dirty + log n);
    * with any other scorer, the classic full rescan recomputes every
      resident score per iteration (the from-scratch reference the
      ``scores`` verify oracle compares against).
    """

    name = "couler"

    def __init__(self) -> None:
        self._heap: List[Tuple[float, str, int]] = []
        self._entry_version: Dict[str, int] = {}
        self._version_counter = 0
        self._dirty: Set[str] = set()
        self._store: Optional[ArtifactStore] = None
        self._scorer: Optional[IncrementalArtifactScorer] = None

    # ------------------------------------------------------ heap plumbing

    def note_dirty(self, uids: Set[str]) -> None:
        """Invalidation callback from the incremental scorer."""
        self._dirty.update(uids)

    def _push(self, uid: str, score: float) -> None:
        self._version_counter += 1
        self._entry_version[uid] = self._version_counter
        heapq.heappush(self._heap, (score, uid, self._version_counter))

    def _on_store_event(self, event: str, uid: str) -> None:
        if self._store is None or self._scorer is None:
            return
        if event == "put":
            self._push(uid, self._scorer.importance(uid, self._store.contains))
        elif event == "evict":
            self._entry_version.pop(uid, None)
        elif event == "clear":
            self._heap = []
            self._entry_version = {}
            self._dirty = set()

    def _bind(self, store: ArtifactStore, scorer: IncrementalArtifactScorer) -> None:
        if self._store is store and self._scorer is scorer:
            return
        self._store = store
        self._scorer = scorer
        self._heap = []
        self._entry_version = {}
        self._dirty = set()
        scorer.add_invalidation_listener(self.note_dirty)
        store.add_listener(self._on_store_event)
        for entry in sorted(store.entries(), key=lambda e: e.uid):
            self._push(entry.uid, scorer.importance(entry.uid, store.contains))

    def _flush_dirty(self) -> None:
        """Re-push current scores for invalidated resident uids.

        Heap invariant: after a flush, every resident uid's
        latest-version entry carries its *current* score, so the first
        non-superseded pop is the true ``(score, uid)`` minimum.
        """
        if not self._dirty:
            return
        store, scorer = self._store, self._scorer
        for uid in sorted(self._dirty):
            if store.contains(uid):
                self._push(uid, scorer.importance(uid, store.contains))
        self._dirty.clear()

    def _pop_min(self) -> Optional[Tuple[float, str]]:
        while self._heap:
            score, uid, version = heapq.heappop(self._heap)
            if self._entry_version.get(uid) != version:
                continue  # superseded or evicted — lazily discarded
            return score, uid
        return None

    # ----------------------------------------------------------- decision

    def decide(self, decision: CacheDecision) -> bool:
        artifact, store, scorer = decision.artifact, decision.store, decision.scorer
        if scorer is None:
            raise ValueError("CoulerCachePolicy requires an ArtifactScorer")
        if store.contains(artifact.uid):
            decision.admitted = True
            return True
        if not store.can_ever_fit(artifact.size_bytes):
            store.record_rejection()
            decision.admitted = False
            return False
        incremental = (
            isinstance(scorer, IncrementalArtifactScorer)
            and scorer.bound_store is store
        )
        if incremental:
            admitted = self._decide_heap(decision)
        else:
            admitted = self._decide_rescan(decision)
        decision.admitted = admitted
        return admitted

    def _decide_heap(self, decision: CacheDecision) -> bool:
        artifact, store = decision.artifact, decision.store
        scorer: IncrementalArtifactScorer = decision.scorer
        self._bind(store, scorer)
        while not store.fits(artifact.size_bytes):
            self._flush_dirty()
            new_score = scorer.importance(artifact.uid, store.contains)
            decision.score = new_score
            top = self._pop_min()
            if top is None:
                break
            score, uid = top
            if score >= new_score:
                # The newcomer is the weakest item; reject it (line 29)
                # and put the popped minimum back.
                self._push(uid, score)
                store.record_rejection()
                return False
            store.evict(uid)
            decision.note_eviction(uid)
            # The store event invalidated the dirty set (G_p truncation
            # changed for survivors and newcomer alike); the next
            # iteration flushes it and rescores only those entries.
        if store.fits(artifact.size_bytes):
            store.put(artifact.uid, artifact.size_bytes, artifact.kind, decision.now)
            return True
        store.record_rejection()
        return False

    def _decide_rescan(self, decision: CacheDecision) -> bool:
        artifact, store, scorer = decision.artifact, decision.store, decision.scorer
        is_cached = store.contains
        while not store.fits(artifact.size_bytes):
            new_score = scorer.importance(artifact.uid, is_cached)
            decision.score = new_score
            cached_scores = {
                entry.uid: scorer.importance(entry.uid, is_cached)
                for entry in store.entries()
            }
            if not cached_scores:
                break
            min_uid = min(cached_scores, key=lambda uid: (cached_scores[uid], uid))
            if cached_scores[min_uid] >= new_score:
                # The newcomer is the weakest item; reject it (line 29).
                store.record_rejection()
                return False
            store.evict(min_uid)
            decision.note_eviction(min_uid)
            # Eviction changes G_p truncation for the survivors and the
            # newcomer, so every score is recomputed next iteration.
        if store.fits(artifact.size_bytes):
            store.put(artifact.uid, artifact.size_bytes, artifact.kind, decision.now)
            return True
        store.record_rejection()
        return False


class NoCachePolicy(CachePolicy):
    """The "No" baseline: never cache anything."""

    name = "no"

    def decide(self, decision: CacheDecision) -> bool:
        decision.admitted = False
        return False


class CacheAllPolicy(CachePolicy):
    """The "ALL" baseline: cache every artifact, evicting nothing.

    Meant to run against an unbounded store; with a bounded store it
    simply stops admitting once full (no eviction), which models a
    naive operator filling Alluxio to the brim.
    """

    name = "all"

    def decide(self, decision: CacheDecision) -> bool:
        artifact, store = decision.artifact, decision.store
        if store.contains(artifact.uid):
            decision.admitted = True
            return True
        if not store.can_ever_fit(artifact.size_bytes) or not store.fits(
            artifact.size_bytes
        ):
            store.record_rejection()
            decision.admitted = False
            return False
        store.put(artifact.uid, artifact.size_bytes, artifact.kind, decision.now)
        decision.admitted = True
        return True


class FIFOCachePolicy(CachePolicy):
    """First-in-first-out eviction under pressure."""

    name = "fifo"

    def decide(self, decision: CacheDecision) -> bool:
        artifact, store = decision.artifact, decision.store
        if store.contains(artifact.uid):
            decision.admitted = True
            return True
        if not store.can_ever_fit(artifact.size_bytes):
            store.record_rejection()
            decision.admitted = False
            return False
        while not store.fits(artifact.size_bytes) and len(store):
            oldest = min(store.entries(), key=lambda e: e.insert_seq)
            store.evict(oldest.uid)
            decision.note_eviction(oldest.uid)
        store.put(artifact.uid, artifact.size_bytes, artifact.kind, decision.now)
        decision.admitted = True
        return True


class LRUCachePolicy(CachePolicy):
    """Least-recently-used eviction under pressure."""

    name = "lru"

    def decide(self, decision: CacheDecision) -> bool:
        artifact, store = decision.artifact, decision.store
        if store.contains(artifact.uid):
            decision.admitted = True
            return True
        if not store.can_ever_fit(artifact.size_bytes):
            store.record_rejection()
            decision.admitted = False
            return False
        while not store.fits(artifact.size_bytes) and len(store):
            stalest = min(
                store.entries(), key=lambda e: (e.last_access, e.insert_seq)
            )
            store.evict(stalest.uid)
            decision.note_eviction(stalest.uid)
        store.put(artifact.uid, artifact.size_bytes, artifact.kind, decision.now)
        decision.admitted = True
        return True


POLICY_REGISTRY = {
    "no": NoCachePolicy,
    "all": CacheAllPolicy,
    "couler": CoulerCachePolicy,
    "fifo": FIFOCachePolicy,
    "lru": LRUCachePolicy,
}


def make_policy(name: str) -> CachePolicy:
    """Instantiate a registered policy by its short name."""
    try:
        return POLICY_REGISTRY[name]()
    except KeyError:
        raise ValueError(
            f"unknown cache policy {name!r}; choose from {sorted(POLICY_REGISTRY)}"
        ) from None
