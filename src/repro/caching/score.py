"""Caching importance factor — Eqs. (3)–(6) of the paper.

For an artifact ``u`` produced by a workflow step, the *caching
importance factor* is

    I(u) = alpha * log(1 + L(u)) + beta * F(u)**2 - exp(-V(u))

with three determinants:

``L(u)`` (Eq. 3) — reconstruction cost over the predecessor subgraph
``G_p`` (the preceding ``n`` layers of jobs from u's producer, truncated
at any job whose artifact is already cached):
``L = sum_ij A_ij * (w_i + d_i * d_j)`` where ``A`` is the subgraph
adjacency matrix, ``w_i`` the resource consumption of job i, and ``d``
node degrees.

``F(u)`` (Eqs. 4–5) — reuse value over the successor subgraph ``G_s``:
``F = sum_i (r / kappa_ui) * (zeta_ui + 1)`` with ``kappa_ui`` the
distance from u's producer to job i, ``r`` a boolean marking whether a
reuse event occurs for u, and ``zeta = diag(d) - A`` (the graph
Laplacian).  The paper leaves ``zeta_ui``'s sign convention implicit;
``zeta`` entries off the diagonal are ``-A_ui``, which would zero out
direct successors, so we take the magnitude ``|zeta_ui|`` — direct
dependents weigh ``2/kappa`` and transitive ones ``1/kappa``.  This is
the one place the implementation interprets rather than transcribes.

``V(u)`` (cache cost) — u's memory consumption, normalized by a
configurable scale so ``exp(-V)`` spans a useful range.

Two scorers share those equations:

* :class:`ArtifactScorer` recomputes L/F/V from scratch on every call
  (the from-scratch reference the ``scores`` verify oracle trusts).
* :class:`IncrementalArtifactScorer` memoizes L and F per uid and
  invalidates only the *dirty set* — uids whose horizon-bounded
  G_p/G_s actually contains a changed node — on ``register`` /
  ``mark_done`` / cache-state changes.  Both walk the index's
  adjacency lists directly (no per-call subgraph construction), so a
  single score is O(|G_p| + |G_s|) and a memo hit is O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..engine.spec import ArtifactSpec, ExecutableWorkflow
from ..obs.metrics import MetricsRegistry


def _never_cached(_uid: str) -> bool:
    return False


@dataclass(frozen=True)
class ScoreWeights:
    """Weights of Eq. 6.  The paper's production choice is alpha=1.5, beta=1."""

    alpha: float = 1.5
    beta: float = 1.0
    #: Eviction pressure: multiplier on the ``exp(-V)`` cache-cost
    #: penalty.  1.0 is the paper's Eq. 6 exactly; the adaptive
    #: controller (:mod:`repro.control`) tunes it — >1 evicts large
    #: artifacts more aggressively, <1 retains them.
    cache_cost_weight: float = 1.0
    #: Byte scale for V(u); V is expressed in units of this many bytes.
    cache_cost_scale: float = float(2**30)
    #: Subgraph horizon n: how many layers of predecessors/successors
    #: are considered representative (paper property (a) of G_p).
    horizon: int = 3
    #: Ablation switches (DESIGN.md Section 5): drop individual terms.
    use_reconstruction: bool = True
    use_reuse: bool = True
    use_cache_cost: bool = True


class WorkflowGraphIndex:
    """A merged, queryable view of every registered workflow DAG.

    Nodes are ``"<workflow>/<step>"`` keys.  Edges come from explicit
    step dependencies and from artifact consumption (a step consuming an
    artifact produced elsewhere — including in another workflow — gets
    an edge from the producer).  The scorer walks this graph for the
    predecessor/successor subgraphs of Eqs. 3–4.

    The graph lives in plain-dict adjacency lists (:attr:`succ` /
    :attr:`pred`) and per-node aggregates, which the scorer's hot path
    walks directly.  Mutations are *idempotent*
    (re-registering a workflow after an operator restart or a
    split+stitch resubmit never duplicates consumer or output entries)
    and are broadcast to registered listeners as precise change sets so
    incremental scorers can invalidate only what actually moved.
    """

    def __init__(self) -> None:
        #: adjacency lists (insertion-ordered, duplicate-free) — the
        #: scorer's walk substrate.
        self.succ: Dict[str, List[str]] = {}
        self.pred: Dict[str, List[str]] = {}
        #: artifact uid -> producing node key
        self.producer: Dict[str, str] = {}
        #: artifact uid -> consuming node keys
        self.consumers: Dict[str, List[str]] = {}
        #: artifact uid -> ArtifactSpec
        self.artifacts: Dict[str, ArtifactSpec] = {}
        #: node key -> resource consumption w_i (cpu-cores x seconds)
        self.work: Dict[str, float] = {}
        #: node key -> total degree in the merged graph (aggregate kept
        #: in step with edge insertions).
        self.degree: Dict[str, int] = {}
        #: node key -> output artifact uids
        self.node_outputs: Dict[str, List[str]] = {}
        #: artifact uid -> node keys whose :attr:`node_outputs` list it:
        #: its producer, and any node that produced it before a rerun or
        #: a split part re-registered it.  A G_p walk truncates at each.
        self.listed_by: Dict[str, List[str]] = {}
        #: node keys whose step already finished — the "past usage"
        #: side of the paper's past/future analysis: a consumer that has
        #: already run contributes no future reuse value.
        self.done: Set[str] = set()
        self._edges: Set[Tuple[str, str]] = set()
        self._listeners: List[object] = []

    # ------------------------------------------------------------ listeners

    def add_listener(self, listener: object) -> None:
        """Subscribe to change events.  Listeners may implement
        ``on_graph_changed(nodes, artifacts)`` and ``on_done(node)``."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def _notify_graph_changed(self, nodes: Set[str], artifacts: Set[str]) -> None:
        for listener in self._listeners:
            hook = getattr(listener, "on_graph_changed", None)
            if hook is not None:
                hook(nodes, artifacts)

    # ------------------------------------------------------------ mutations

    def _ensure_node(self, node: str, changed: Set[str]) -> None:
        if node not in self.succ:
            self.succ[node] = []
            self.pred[node] = []
            self.degree[node] = 0
            changed.add(node)

    def _add_edge(self, src: str, dst: str, changed: Set[str]) -> None:
        self._ensure_node(src, changed)
        self._ensure_node(dst, changed)
        if (src, dst) in self._edges:
            return
        self._edges.add((src, dst))
        self.succ[src].append(dst)
        self.pred[dst].append(src)
        self.degree[src] += 1
        self.degree[dst] += 1
        changed.add(src)
        changed.add(dst)

    def mark_done(self, node_key: str) -> None:
        if node_key in self.done:
            return
        self.done.add(node_key)
        for listener in self._listeners:
            hook = getattr(listener, "on_done", None)
            if hook is not None:
                hook(node_key)

    def register(self, workflow: ExecutableWorkflow) -> None:
        changed_nodes: Set[str] = set()
        changed_artifacts: Set[str] = set()
        prefix = workflow.name
        for step in workflow.steps.values():
            node = f"{prefix}/{step.name}"
            self._ensure_node(node, changed_nodes)
            work = max(step.requests.cpu, 1.0) * step.duration_s
            if self.work.get(node) != work:
                self.work[node] = work
                changed_nodes.add(node)
            outputs = self.node_outputs.setdefault(node, [])
            for artifact in step.outputs:
                if self.producer.get(artifact.uid) != node:
                    self.producer[artifact.uid] = node
                    changed_nodes.add(node)
                    changed_artifacts.add(artifact.uid)
                previous = self.artifacts.get(artifact.uid)
                if previous is None or previous.size_bytes != artifact.size_bytes:
                    changed_artifacts.add(artifact.uid)
                self.artifacts[artifact.uid] = artifact
                if artifact.uid not in outputs:
                    outputs.append(artifact.uid)
                    self.listed_by.setdefault(artifact.uid, []).append(node)
                    # node's output set feeds the G_p truncation
                    # predicate, so walks through it must re-run.
                    changed_nodes.add(node)
                    changed_artifacts.add(artifact.uid)
        for step in workflow.steps.values():
            node = f"{prefix}/{step.name}"
            for dep in step.dependencies:
                self._add_edge(f"{prefix}/{dep}", node, changed_nodes)
            for artifact in step.inputs:
                self.artifacts.setdefault(artifact.uid, artifact)
                consumers = self.consumers.setdefault(artifact.uid, [])
                if node not in consumers:
                    consumers.append(node)
                    changed_artifacts.add(artifact.uid)
                producer = self.producer.get(artifact.uid)
                if producer is not None and producer != node:
                    self._add_edge(producer, node, changed_nodes)
        if changed_nodes or changed_artifacts:
            self._notify_graph_changed(changed_nodes, changed_artifacts)


@dataclass
class ArtifactScorer:
    """Computes L, F, V and I for artifacts over a graph index.

    This is the from-scratch reference: every call walks the index's
    adjacency lists anew.  ``metrics`` (optional) records score-compute
    counters.
    """

    index: WorkflowGraphIndex
    weights: ScoreWeights = field(default_factory=ScoreWeights)
    metrics: Optional[MetricsRegistry] = None

    def __post_init__(self) -> None:
        self._computes = (
            self.metrics.counter(
                "cache_score_computes_total",
                "From-scratch L/F determinant computations",
            ).labels()
            if self.metrics is not None
            else None
        )

    # ------------------------------------------------------------- subgraphs

    def _walk(
        self,
        start: str,
        forward: bool,
        truncate: Optional[Callable[[str], bool]] = None,
    ) -> Tuple[Dict[str, int], Set[str]]:
        """Bounded BFS over the index adjacency lists.

        Returns ``(distances, examined)``: nodes within ``horizon`` hops
        with their distance, plus every node whose state the walk
        *consulted* — including truncated nodes that were excluded from
        the subgraph.  The examined set is exactly the support an
        incremental scorer must watch for invalidation: any change
        outside it cannot alter the walk's outcome.

        ``truncate(node)`` cuts the walk at that node: a predecessor
        whose artifact is already cached is *excluded* (and nothing
        beyond it explored), because rebuilding u never needs to re-run
        it — the paper's property (b): G_p is cut at jobs whose artifact
        is cached.
        """
        adjacency = self.index.succ if forward else self.index.pred
        if start not in adjacency:
            return {}, {start}
        distances = {start: 0}
        examined = {start}
        frontier = [start]
        for depth in range(1, self.weights.horizon + 1):
            if not frontier:
                break
            next_frontier: List[str] = []
            for node in frontier:
                for nbr in adjacency.get(node, ()):
                    if nbr in distances:
                        continue
                    examined.add(nbr)
                    if truncate is not None and truncate(nbr):
                        continue
                    distances[nbr] = depth
                    next_frontier.append(nbr)
            frontier = next_frontier
        return distances, examined

    def _pred_walk(
        self, uid: str, is_cached: Callable[[str], bool]
    ) -> Tuple[Optional[str], Dict[str, int], Set[str]]:
        producer = self.index.producer.get(uid)
        if producer is None:
            return None, {}, set()

        node_outputs = self.index.node_outputs

        def truncate(node: str) -> bool:
            return any(
                is_cached(out) for out in node_outputs.get(node, ()) if out != uid
            )

        distances, examined = self._walk(producer, forward=False, truncate=truncate)
        return producer, distances, examined

    # ------------------------------------------------- determinant kernels

    def _compute_L(
        self, uid: str, is_cached: Callable[[str], bool]
    ) -> Tuple[float, Set[str]]:
        """L(u) per Eq. 3, plus the walk's support set."""
        producer, distances, examined = self._pred_walk(uid, is_cached)
        if producer is None:
            return 0.0, examined
        if len(distances) < 2:
            # A source artifact (raw data / single producer) still costs
            # its producer's own work to rebuild.
            return self.index.work.get(producer, 0.0), examined
        succ = self.index.succ
        pred = self.index.pred
        work = self.index.work
        nodes = sorted(distances)
        degree = {
            node: sum(1 for nbr in succ.get(node, ()) if nbr in distances)
            + sum(1 for nbr in pred.get(node, ()) if nbr in distances)
            for node in nodes
        }
        total = 0.0
        for i in nodes:
            w_i = work.get(i, 0.0)
            d_i = degree[i]
            for j in succ.get(i, ()):
                if j in distances:
                    total += w_i + d_i * degree[j]
        # Include the producer's own work so L never underestimates the
        # cost of the final re-computation itself.
        total += work.get(producer, 0.0)
        return total, examined

    def _compute_F(self, uid: str) -> Tuple[float, Set[str]]:
        """F(u) per Eqs. 4–5, plus the walk's support set.

        Consumers whose step has already executed are excluded: the
        paper's cache value analysis spans "past usage, future usage,
        and the cost-effectiveness of caching", and an artifact whose
        readers have all run has no remaining reuse value.
        """
        index = self.index
        producer = index.producer.get(uid)
        all_consumers = index.consumers.get(uid, [])
        if producer is None:
            distances: Dict[str, int] = {node: 1 for node in all_consumers}
            examined: Set[str] = set(all_consumers)
        else:
            distances, examined = self._walk(producer, forward=True)
            # The done-status of every consumer feeds the reuse-event
            # flag r, so consumers belong to the support set even when
            # outside the bounded walk.
            examined.update(all_consumers)
        consumers = {c for c in all_consumers if c not in index.done}
        if not consumers:
            return 0.0, examined
        producer_succ = set(index.succ.get(producer, ())) if producer else set()
        total = 0.0
        for node, kappa in distances.items():
            if node == producer or kappa == 0 or node in index.done:
                continue
            # zeta = diag(d) - A; off-diagonal magnitude is the edge
            # weight between the producer and node (1 if adjacent).
            if producer is not None and node in producer_succ:
                zeta = 1.0
            elif producer is None and node in consumers:
                zeta = 1.0
            else:
                zeta = 0.0
            total += (1.0 / kappa) * (zeta + 1.0)
        return total, examined

    def _counted(self, kernel, *args) -> Tuple[float, Set[str]]:
        if self._computes is not None:
            self._computes.inc()
        return kernel(*args)

    # ----------------------------------------------------------- determinants

    def reconstruction_cost(
        self, uid: str, is_cached: Optional[Callable[[str], bool]] = None
    ) -> float:
        """L(u) per Eq. 3 over the truncated predecessor subgraph."""
        value, _ = self._counted(self._compute_L, uid, is_cached or _never_cached)
        return value

    def reuse_value(self, uid: str) -> float:
        """F(u) per Eqs. 4–5 over the *future* successor subgraph."""
        value, _ = self._counted(self._compute_F, uid)
        return value

    def cache_cost(self, uid: str) -> float:
        """V(u): memory consumption in units of ``cache_cost_scale``."""
        artifact = self.index.artifacts.get(uid)
        size = artifact.size_bytes if artifact else 0
        return size / self.weights.cache_cost_scale

    # -------------------------------------------------------------- Eq. (6)

    def importance(
        self, uid: str, is_cached: Optional[Callable[[str], bool]] = None
    ) -> float:
        """I(u) = alpha*log(1+L) + beta*F^2 - w*exp(-V)."""
        w = self.weights
        score = 0.0
        if w.use_reconstruction:
            score += w.alpha * math.log1p(self.reconstruction_cost(uid, is_cached))
        if w.use_reuse:
            score += w.beta * self.reuse_value(uid) ** 2
        if w.use_cache_cost:
            score -= w.cache_cost_weight * math.exp(-self.cache_cost(uid))
        return score

    def breakdown(
        self, uid: str, is_cached: Optional[Callable[[str], bool]] = None
    ) -> Dict[str, float]:
        """All four quantities at once (useful for the score table UI)."""
        return {
            "L": self.reconstruction_cost(uid, is_cached),
            "F": self.reuse_value(uid),
            "V": self.cache_cost(uid),
            "I": self.importance(uid, is_cached),
        }


@dataclass
class IncrementalArtifactScorer(ArtifactScorer):
    """Memoizing scorer: same equations, amortized O(1) per score.

    L(u) and F(u) are cached per uid together with the *support set*
    their walk examined.  A reverse dependency index (node -> dependent
    uids) turns every change event into a precise dirty set:

    * ``register`` — invalidates uids whose support contains a touched
      node, plus artifacts whose producer/consumers/size changed (so a
      memo's walk always started at its uid's current producer);
    * ``mark_done(node)`` — invalidates F for uids whose support
      contains the node, except a uid that node produces and does not
      read: ``_compute_F`` skips the producer and reads its done flag
      only through the uid's consumers;
    * cache-state changes (store put/evict) — invalidate L for uids
      whose support contains a node listing the toggled artifact among
      its outputs (the G_p truncation predicate changed there).  That is
      every node in :attr:`WorkflowGraphIndex.listed_by`, not only the
      current producer: a rerun re-registers an artifact under a new
      producer while the old one still lists it.  A uid that node
      produces keeps its L: ``_walk`` never truncation-tests its start.

    Bind the scorer to the store whose residency defines the truncation
    predicate with :meth:`bind_store`; ``importance(uid)`` then scores
    against live cache state.  Passing any *other* predicate falls back
    to an untracked from-scratch computation, so correctness never
    depends on the caller.  Invalidation listeners (the eviction heap
    in :class:`~repro.caching.policy.CoulerCachePolicy`) receive each
    dirty set as it forms.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self._L_memo: Dict[str, float] = {}
        self._F_memo: Dict[str, float] = {}
        self._L_support: Dict[str, Set[str]] = {}
        self._F_support: Dict[str, Set[str]] = {}
        self._L_deps: Dict[str, Set[str]] = {}
        self._F_deps: Dict[str, Set[str]] = {}
        self._store = None
        self._invalidation_listeners: List[Callable[[Set[str]], None]] = []
        if self.metrics is not None:
            self._memo_hits = self.metrics.counter(
                "cache_score_memo_hits_total", "Scores served from the memo"
            ).labels()
            self._invalidated = self.metrics.counter(
                "cache_score_invalidations_total",
                "Memoized determinants dropped by dirty-set invalidation",
            ).labels()
        else:
            self._memo_hits = None
            self._invalidated = None
        self.index.add_listener(self)

    # ------------------------------------------------------------ binding

    @property
    def bound_store(self):
        return self._store

    def bind_store(self, store) -> None:
        """Tie the truncation predicate to ``store``'s live residency."""
        if self._store is store:
            return
        if self._store is not None:
            raise ValueError("scorer is already bound to a store")
        self._store = store
        store.add_listener(self._on_store_event)
        # Anything memoized before binding assumed an empty cache.
        if len(store):
            self._invalidate(uids=set(self._L_memo))

    def add_invalidation_listener(self, listener: Callable[[Set[str]], None]) -> None:
        if listener not in self._invalidation_listeners:
            self._invalidation_listeners.append(listener)

    # ------------------------------------------------------ change events

    def _on_store_event(self, event: str, uid: str) -> None:
        if event in ("put", "evict"):
            self._invalidate(
                l_nodes=self.index.listed_by.get(uid, ()), keep_start=True
            )
        elif event == "clear":
            self._invalidate(uids=set(self._L_memo))

    def on_graph_changed(self, nodes: Set[str], artifacts: Set[str]) -> None:
        self._invalidate(l_nodes=nodes, f_nodes=nodes, uids=artifacts)

    def on_done(self, node: str) -> None:
        self._invalidate(f_nodes=(node,), keep_start=True)

    # ------------------------------------------------------- invalidation

    def _drop(self, uid: str, memo, support, deps) -> bool:
        if uid not in memo:
            return False
        del memo[uid]
        for node in support.pop(uid, ()):
            dependents = deps.get(node)
            if dependents is not None:
                dependents.discard(uid)
        return True

    def _invalidate(self, l_nodes=(), f_nodes=(), uids=(), keep_start=False) -> None:
        # keep_start: a store or done event keeps the memos whose walk
        # starts at the changed node without reading its changed state.
        dirty: Set[str] = set()
        producer = self.index.producer
        for node in l_nodes:
            for uid in list(self._L_deps.get(node, ())):
                if keep_start and producer.get(uid) == node:
                    continue
                if self._drop(uid, self._L_memo, self._L_support, self._L_deps):
                    dirty.add(uid)
        for node in f_nodes:
            for uid in list(self._F_deps.get(node, ())):
                if (
                    keep_start
                    and producer.get(uid) == node
                    and node not in self.index.consumers.get(uid, ())
                ):
                    continue
                if self._drop(uid, self._F_memo, self._F_support, self._F_deps):
                    dirty.add(uid)
        for uid in uids:
            if self._drop(uid, self._L_memo, self._L_support, self._L_deps):
                dirty.add(uid)
            if self._drop(uid, self._F_memo, self._F_support, self._F_deps):
                dirty.add(uid)
        if dirty:
            if self._invalidated is not None:
                self._invalidated.inc(len(dirty))
            for listener in self._invalidation_listeners:
                listener(set(dirty))

    # --------------------------------------------------- memoized scoring

    def _tracked_predicate(self) -> Callable[[str], bool]:
        return self._store.contains if self._store is not None else _never_cached

    def _tracks(self, is_cached: Optional[Callable[[str], bool]]) -> bool:
        if is_cached is None:
            return True
        if self._store is not None:
            return is_cached == self._store.contains
        return False

    def reconstruction_cost(
        self, uid: str, is_cached: Optional[Callable[[str], bool]] = None
    ) -> float:
        if not self._tracks(is_cached):
            return super().reconstruction_cost(uid, is_cached)
        cached = self._L_memo.get(uid)
        if cached is not None:
            if self._memo_hits is not None:
                self._memo_hits.inc()
            return cached
        value, examined = self._counted(
            self._compute_L, uid, self._tracked_predicate()
        )
        self._L_memo[uid] = value
        self._L_support[uid] = examined
        for node in examined:
            self._L_deps.setdefault(node, set()).add(uid)
        return value

    def reuse_value(self, uid: str) -> float:
        cached = self._F_memo.get(uid)
        if cached is not None:
            if self._memo_hits is not None:
                self._memo_hits.inc()
            return cached
        value, examined = self._counted(self._compute_F, uid)
        self._F_memo[uid] = value
        self._F_support[uid] = examined
        for node in examined:
            self._F_deps.setdefault(node, set()).add(uid)
        return value
