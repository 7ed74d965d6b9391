"""Graph versioning, deltas and the staleness contract for serving sessions.

An :class:`~repro.inference.session.InferenceSession` snapshots the graph at
``prepare()`` time.  Before this module existed, mutating that graph in place
(refreshing node features for a nightly scoring job, appending edges as
traffic arrives) silently served *yesterday's* scores — the classic stale-plan
bug of plan-once/infer-many systems.  The contract is now explicit:

* every prepared plan carries a :func:`graph_fingerprint` of the source
  graph's feature buffers and edge arrays; the session re-checks it at every
  public entry and raises :class:`StalePlanError` on any out-of-band
  mutation — a loud error instead of a silent wrong answer (a pooled
  handle, which only its pool writes, is not hashed);
* in-band changes travel as a :class:`GraphDelta` through
  ``session.apply_delta(delta)``, which updates the cached plan (and its
  fingerprint) in place where possible and transparently re-plans where not
  (:func:`apply_delta_to_graph` lands it once: on a caller's graph at the
  flush, on a pooled handle by the pool's mirror);
* after a delta, ``session.infer(mode="incremental")`` recomputes only the
  k-hop region the delta can reach (see :func:`expand_frontier`), bit-identical
  to a fresh full ``prepare()+infer()``;
* a serving loop applying many small deltas between ticks can *defer* them —
  ``session.apply_delta(delta, defer=True)`` parks each delta in a
  :class:`DeltaBuffer`, and the next ``infer()`` (or an explicit
  ``session.flush_deltas()``) applies **one merged delta**: one scatter into
  the cached plan and one frontier expansion instead of one per delta.  The
  merge is exact — the coalesced delta produces byte-identical graph arrays,
  and therefore bit-identical scores, to applying the same deltas eagerly one
  by one.

The delta is deliberately columnar — changed feature rows plus added/removed
edge arrays — so applying it is a handful of vectorised scatters, never a
per-row Python loop.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.graph.graph import Graph

if TYPE_CHECKING:  # import cycle: shadow plans are built by the inference layer
    from repro.inference.shadow import ShadowNodePlan


class StalePlanError(RuntimeError):
    """The prepared plan no longer matches the graph it was built over.

    Raised by ``InferenceSession.infer()`` when the graph was mutated in place
    after ``prepare()`` without going through ``apply_delta``.  Recover by
    describing the change as a :class:`GraphDelta` and calling
    ``session.apply_delta(delta)``, or by calling ``session.prepare(graph)``
    to re-plan from scratch.
    """


@dataclass
class GraphDelta:
    """A columnar description of what changed in a graph between two runs.

    Parameters
    ----------
    node_ids, node_features:
        Replacement feature rows: ``node_features[i]`` is the new feature row
        of node ``node_ids[i]``.  Both must be given together.
    added_src, added_dst:
        Endpoint arrays of appended edges (existing node ids only — growing
        the node set requires a fresh ``prepare()``).
    added_edge_features:
        Feature rows of the appended edges; required when the graph carries
        edge features, forbidden when it does not.
    removed_edge_ids:
        Positions (into the graph's current ``src``/``dst`` arrays) of edges
        to delete.  Removal is applied before the append, so positions always
        refer to the pre-delta edge list.
    """

    node_ids: Optional[np.ndarray] = None
    node_features: Optional[np.ndarray] = None
    added_src: Optional[np.ndarray] = None
    added_dst: Optional[np.ndarray] = None
    added_edge_features: Optional[np.ndarray] = None
    removed_edge_ids: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if (self.node_ids is None) != (self.node_features is None):
            raise ValueError("node_ids and node_features must be given together")
        if (self.added_src is None) != (self.added_dst is None):
            raise ValueError("added_src and added_dst must be given together")
        if self.node_ids is not None:
            self.node_ids = np.asarray(self.node_ids, dtype=np.int64).reshape(-1)
            self.node_features = np.asarray(self.node_features, dtype=np.float64)
            if self.node_features.ndim != 2 or self.node_features.shape[0] != self.node_ids.size:
                raise ValueError("node_features must be a [len(node_ids), F] matrix")
            if np.unique(self.node_ids).size != self.node_ids.size:
                raise ValueError("node_ids must not contain duplicates")
        if self.added_src is not None:
            self.added_src = np.asarray(self.added_src, dtype=np.int64).reshape(-1)
            self.added_dst = np.asarray(self.added_dst, dtype=np.int64).reshape(-1)
            if self.added_src.shape != self.added_dst.shape:
                raise ValueError("added_src and added_dst must have the same length")
        if self.added_edge_features is not None:
            if self.added_src is None:
                raise ValueError("added_edge_features requires added edges")
            self.added_edge_features = np.asarray(self.added_edge_features, dtype=np.float64)
            if self.added_edge_features.shape[0] != self.added_src.size:
                raise ValueError("added_edge_features must align with added_src")
        if self.removed_edge_ids is not None:
            self.removed_edge_ids = np.unique(
                np.asarray(self.removed_edge_ids, dtype=np.int64).reshape(-1))

    # ------------------------------------------------------------------ #
    @property
    def has_feature_changes(self) -> bool:
        return self.node_ids is not None and self.node_ids.size > 0

    @property
    def has_edge_changes(self) -> bool:
        return ((self.added_src is not None and self.added_src.size > 0)
                or (self.removed_edge_ids is not None and self.removed_edge_ids.size > 0))

    @property
    def is_empty(self) -> bool:
        return not (self.has_feature_changes or self.has_edge_changes)

    def topo_dirty(self, dst: np.ndarray) -> np.ndarray:
        """Destinations whose in-edge set this delta changes, given the
        pre-delta ``dst`` (sorted, unique)."""
        parts: List[np.ndarray] = [] if self.added_dst is None else [self.added_dst]
        if self.removed_edge_ids is not None:
            parts.append(dst[self.removed_edge_ids])
        return np.unique(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)

    def describe(self) -> str:
        parts = []
        if self.has_feature_changes:
            parts.append(f"{self.node_ids.size} feature row(s)")
        if self.added_src is not None and self.added_src.size:
            parts.append(f"+{self.added_src.size} edge(s)")
        if self.removed_edge_ids is not None and self.removed_edge_ids.size:
            parts.append(f"-{self.removed_edge_ids.size} edge(s)")
        return ", ".join(parts) if parts else "<empty delta>"


@dataclass
class DeltaOutcome:
    """What a backend did with a :class:`GraphDelta`.

    ``in_place=True`` means the cached :class:`ExecutionPlan` was patched and
    remains valid; ``feature_dirty``/``topo_dirty`` then carry the
    working-graph node ids that seed the next incremental run (feature-dirty
    nodes enter the frontier at superstep 0, topology-dirty destinations at
    the first gather).  ``in_place=False`` means the delta invalidated the
    plan (e.g. the hub set changed) and the session re-planned from scratch.
    ``deferred=True`` means the delta was only *buffered*
    (``apply_delta(..., defer=True)``): nothing has been applied yet, and the
    real outcome is reported by the flush that folds the buffer into the plan.
    """

    in_place: bool
    feature_dirty: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    topo_dirty: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    reason: str = ""
    deferred: bool = False


# --------------------------------------------------------------------------- #
# delta coalescing
# --------------------------------------------------------------------------- #
class DeltaBuffer:
    """Accumulates a session's :class:`GraphDelta`\\ s and folds them into one.

    Every delta a session accepts passes through here — an eager
    ``apply_delta`` is "add, then flush" — so this is the one place a delta is
    validated and the one shape (a merged delta) a backend ever sees.

    A serving loop often receives many small deltas between two inference
    ticks.  Applying each eagerly costs one plan scatter plus one frontier
    expansion *per delta*; buffering them and applying one merged delta costs
    that once per tick.  The merge is **exact**: :meth:`merge` returns a
    single :class:`GraphDelta` whose application to the buffer's base graph
    produces byte-identical ``src``/``dst``/feature arrays to applying the
    buffered deltas sequentially, because

    * feature rows coalesce last-write-wins per node id;
    * ``removed_edge_ids`` of each delta (positions into the *then-current*
      edge list) are translated back to base-edge positions, or cancel a
      previously buffered appended edge when they point past the surviving
      base edges;
    * surviving appended edges keep their arrival order, and removal never
      reorders survivors — exactly the order sequential application builds.

    The buffer validates each delta against the (virtual) graph state it
    would apply to, so a malformed delta fails at :meth:`add` time rather
    than poisoning the merged flush.
    """

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        #: edge count of the virtual graph state after the buffered deltas.
        self._num_edges = graph.num_edges
        #: base-edge positions already deleted by a buffered delta.
        self._removed_base = np.zeros(graph.num_edges, dtype=bool)
        self._added_src = np.empty(0, dtype=np.int64)
        self._added_dst = np.empty(0, dtype=np.int64)
        self._added_edge_features: Optional[np.ndarray] = None
        self._added_keep = np.empty(0, dtype=bool)
        self._feature_ids: List[np.ndarray] = []
        self._feature_rows: List[np.ndarray] = []
        self._num_deltas = 0

    # ------------------------------------------------------------------ #
    @property
    def is_empty(self) -> bool:
        return self._num_deltas == 0

    @property
    def num_pending(self) -> int:
        """How many deltas have been buffered since the last flush."""
        return self._num_deltas

    def describe(self) -> str:
        return (f"{self._num_deltas} pending delta(s): "
                f"{self.merge().describe() if self._num_deltas else '<empty>'}")

    # ------------------------------------------------------------------ #
    def add(self, delta: GraphDelta) -> None:
        """Buffer ``delta`` (validated against the virtual post-buffer state)."""
        _validate_delta(self._graph, delta, self._num_edges)
        removing = delta.removed_edge_ids is not None and delta.removed_edge_ids.size > 0
        adding = delta.added_src is not None and delta.added_src.size > 0

        # All validation passed — now mutate the buffer.
        if removing:
            # Positions index the virtual edge list: surviving base edges first
            # (original order), then surviving appended edges (arrival order).
            survivors_base = np.nonzero(~self._removed_base)[0]
            removed = delta.removed_edge_ids
            in_base = removed[removed < survivors_base.size]
            self._removed_base[survivors_base[in_base]] = True
            in_added = removed[removed >= survivors_base.size] - survivors_base.size
            if in_added.size:
                survivors_added = np.nonzero(self._added_keep)[0]
                self._added_keep[survivors_added[in_added]] = False
            self._num_edges -= removed.size
        if adding:
            self._num_edges += delta.added_src.size
            self._added_src = np.concatenate([self._added_src, delta.added_src])
            self._added_dst = np.concatenate([self._added_dst, delta.added_dst])
            self._added_keep = np.concatenate(
                [self._added_keep, np.ones(delta.added_src.size, dtype=bool)])
            if delta.added_edge_features is not None:
                if self._added_edge_features is None:
                    self._added_edge_features = delta.added_edge_features
                else:
                    self._added_edge_features = np.concatenate(
                        [self._added_edge_features, delta.added_edge_features], axis=0)
        if delta.has_feature_changes:
            self._feature_ids.append(delta.node_ids)
            self._feature_rows.append(delta.node_features)
        self._num_deltas += 1

    def merge(self) -> GraphDelta:
        """Fold every buffered delta into one equivalent :class:`GraphDelta`."""
        node_ids = node_features = None
        if self._feature_ids:
            ids = np.concatenate(self._feature_ids)[::-1]
            rows = np.concatenate(self._feature_rows, axis=0)[::-1]
            # First occurrence in the reversed stream == last write per id.
            node_ids, first = np.unique(ids, return_index=True)
            node_features = rows[first]
        removed = np.nonzero(self._removed_base)[0]
        added_src = self._added_src[self._added_keep]
        added_dst = self._added_dst[self._added_keep]
        added_edge_features = None
        if self._added_edge_features is not None and added_src.size:
            added_edge_features = self._added_edge_features[self._added_keep]
        return GraphDelta(
            node_ids=node_ids,
            node_features=node_features,
            added_src=added_src if added_src.size else None,
            added_dst=added_dst if added_dst.size else None,
            added_edge_features=added_edge_features,
            removed_edge_ids=removed if removed.size else None,
        )


# --------------------------------------------------------------------------- #
# fingerprinting
# --------------------------------------------------------------------------- #
def graph_fingerprint(graph: Graph) -> Tuple[int, int, int]:
    """A cheap content fingerprint of everything inference reads from a graph.

    ``(num_nodes, num_edges, crc)`` where the CRC chains over the raw bytes of
    the edge endpoint arrays and the node/edge feature buffers.  CRC32 runs at
    memory bandwidth, so checking it on every ``infer()`` costs a few
    milliseconds even at benchmark scale — cheap insurance against silently
    serving stale scores.  Labels are excluded: predictions never read them.
    """
    crc = 0
    for array in (graph.src, graph.dst, graph.node_features, graph.edge_features):
        if array is not None:
            # crc32 reads the array through the buffer protocol — no copy.
            crc = zlib.crc32(np.ascontiguousarray(array), crc)
    return (graph.num_nodes, graph.num_edges, crc)


# --------------------------------------------------------------------------- #
# applying a delta to a graph
# --------------------------------------------------------------------------- #
def _check_node_ids(ids: np.ndarray, num_nodes: int, what: str) -> None:
    if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= num_nodes):
        bad = ids[(ids < 0) | (ids >= num_nodes)][0]
        raise ValueError(
            f"{what} references node {int(bad)} outside [0, {num_nodes}); "
            "adding nodes requires a fresh prepare()")


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise ValueError(
            f"{what} contains NaN/Inf; one non-finite row would poison its whole "
            "k-hop region and every cached superstep state")


def _validate_delta(graph: Graph, delta: GraphDelta, num_edges: int) -> None:
    """The one delta validator; ``num_edges`` is the edge count
    ``removed_edge_ids`` index into (the graph's own, or a
    :class:`DeltaBuffer`'s virtual post-buffer count)."""
    if delta.has_feature_changes:
        if graph.node_features is None:
            raise ValueError("delta carries feature rows but the graph has no features")
        _check_node_ids(delta.node_ids, graph.num_nodes, "delta.node_ids")
        if delta.node_features.shape[1] != graph.node_features.shape[1]:
            raise ValueError(
                f"delta feature width {delta.node_features.shape[1]} does not match "
                f"graph feature width {graph.node_features.shape[1]}")
        _check_finite(delta.node_features, "delta.node_features")
    if delta.removed_edge_ids is not None and delta.removed_edge_ids.size > 0:
        removed = delta.removed_edge_ids
        if int(removed.min()) < 0 or int(removed.max()) >= num_edges:
            raise ValueError(f"removed_edge_ids must lie in [0, {num_edges})")
    if delta.added_src is not None and delta.added_src.size > 0:
        _check_node_ids(delta.added_src, graph.num_nodes, "delta.added_src")
        _check_node_ids(delta.added_dst, graph.num_nodes, "delta.added_dst")
        if graph.edge_features is not None and delta.added_edge_features is None:
            raise ValueError("graph has edge features; delta must carry "
                             "added_edge_features for appended edges")
        if graph.edge_features is None and delta.added_edge_features is not None:
            raise ValueError("delta carries edge features but the graph has none")
        if delta.added_edge_features is not None:
            if (delta.added_edge_features.ndim != 2
                    or delta.added_edge_features.shape[1] != graph.edge_features.shape[1]):
                raise ValueError(
                    f"added_edge_features must be a "
                    f"[{delta.added_src.size}, {graph.edge_features.shape[1]}] matrix "
                    f"matching the graph's edge-feature width; "
                    f"got shape {delta.added_edge_features.shape}")
            _check_finite(delta.added_edge_features, "delta.added_edge_features")
            if delta.added_edge_features.dtype != graph.edge_features.dtype:
                delta.added_edge_features = delta.added_edge_features.astype(
                    graph.edge_features.dtype, copy=False)


def validate_delta_against_graph(graph: Graph, delta: GraphDelta) -> None:
    """Check ``delta`` against ``graph`` without touching either edge list.

    Raises ``ValueError`` on any mismatch — out-of-range node or edge ids,
    feature-width disagreements, edge features present/absent against the
    graph's buffers, non-finite feature values — and leaves both objects
    untouched, so a rejected delta never reaches a plan, a buffer or a
    tenant handle (``session.apply_delta`` validates through
    :meth:`DeltaBuffer.add`, which shares this body).  As a side effect the
    delta's ``added_edge_features`` dtype is aligned to the graph's
    edge-feature buffer, so a later concatenate never silently upcasts.
    """
    _validate_delta(graph, delta, graph.num_edges)


def apply_delta_to_graph(graph: Graph, delta: GraphDelta) -> np.ndarray:
    """Apply ``delta`` to ``graph`` in place; return the topology-dirty dsts.

    Feature rows are overwritten, removed edges dropped, added edges appended
    (in that order), and the graph's cached adjacency indices invalidated.
    The return value is the unique array of destination ids whose in-edge set
    changed — the seeds the incremental frontier needs besides the
    feature-dirty nodes.

    All validation happens before the first write
    (:func:`validate_delta_against_graph`): a rejected delta must leave the
    graph untouched, or the session it belongs to would be wedged between a
    half-applied graph and a fingerprint that no longer matches.
    """
    validate_delta_against_graph(graph, delta)
    topo_dirty = delta.topo_dirty(graph.dst)
    if delta.has_feature_changes:
        graph.node_features[delta.node_ids] = delta.node_features
    if delta.has_edge_changes:
        src, dst = graph.src, graph.dst
        edge_features = graph.edge_features
        if delta.removed_edge_ids is not None and delta.removed_edge_ids.size:
            keep = np.ones(src.size, dtype=bool)
            keep[delta.removed_edge_ids] = False
            src, dst = src[keep], dst[keep]
            if edge_features is not None:
                edge_features = edge_features[keep]
        if delta.added_src is not None and delta.added_src.size:
            src = np.concatenate([src, delta.added_src])
            dst = np.concatenate([dst, delta.added_dst])
            if edge_features is not None:
                edge_features = np.concatenate(
                    [edge_features, delta.added_edge_features], axis=0)
        graph.src, graph.dst = src, dst
        graph.edge_features = edge_features
        graph.invalidate_adjacency()
    return topo_dirty


# --------------------------------------------------------------------------- #
# frontier expansion for incremental inference
# --------------------------------------------------------------------------- #
def expand_frontier(working_graph: Graph, feature_dirty: np.ndarray,
                    topo_dirty: np.ndarray, num_supersteps: int,
                    shadow_plan: Optional["ShadowNodePlan"] = None) -> List[np.ndarray]:
    """Per-superstep dirty-vertex frontiers over the working graph.

    ``frontiers[s]`` lists (sorted, unique) every working-graph node whose
    superstep-``s`` state can differ from the cached run: feature-dirty nodes
    seed superstep 0, topology-dirty destinations join at the first gather,
    and each later frontier is the previous one plus its one-hop out-
    neighbourhood — the frontier only ever grows, because ``apply_node`` feeds
    a node's own previous state forward.

    Frontiers are kept *replica-closed*: a shadow mirror computes exactly its
    origin's state, so origin and mirrors always enter a frontier together
    (``shadow_plan.replicas_of``).  That invariant is what lets the scatter
    test plain (pre-expansion) destination ids against the next frontier.
    """

    num_nodes = working_graph.num_nodes
    src, dst = working_graph.src, working_graph.dst

    def close(ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if shadow_plan is None or not shadow_plan.has_mirrors:
            return ids
        return shadow_plan.replicas_of(ids)

    # Frontiers are membership tables over node ids.  They are monotone, so
    # each hop only walks the out-edges of the nodes added *last* hop —
    # everyone else's reach is already included — and only the newly reached
    # ids need closing (a union of closed sets is closed).
    member = np.zeros(num_nodes, dtype=bool)
    member[close(feature_dirty)] = True
    topo_closed = close(topo_dirty)
    frontiers = [np.flatnonzero(member)]
    newly_added = member.copy()
    for _ in range(1, num_supersteps):
        grown = np.zeros(num_nodes, dtype=bool)
        grown[close(dst[newly_added[src]])] = True
        grown[topo_closed] = True
        newly_added = grown & ~member
        member |= grown
        frontiers.append(np.flatnonzero(member))
    return frontiers
