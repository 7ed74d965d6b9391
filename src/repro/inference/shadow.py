"""Shadow-nodes preprocessing.

A node whose out-degree exceeds the hub threshold is duplicated into mirrors;
each mirror keeps **all** the in-edges (senders deliver every in-message to
every mirror, which is the documented overhead of the strategy) and a slice of
the out-edges, so the sending load of the hub spreads over several workers.
Because every mirror sees exactly the in-messages of the original node, it
computes exactly the original node's state, and the union of the mirrors'
out-edges equals the original out-edge set — results are unchanged.

The transformation is applied to the graph before partitioning; the returned
plan carries the replica map the adaptors use to fan in-messages out to the
mirrors and to read final predictions only from original node ids.  The map
(:class:`ReplicaMap`) is two flat CSR arrays over the expanded id space, so
destination expansion is a pure repeat/gather pass with no per-row Python.

**Position-stable slices.**  A hub's out-edges are assigned to mirror slots
by :func:`_mirror_slot` — a pure hash of the edge's endpoints — rather than
by their positions in ``src``/``dst``.  A fresh rewrite and an in-place patch
(:meth:`ShadowNodePlan.patch_edge_delta`) therefore give every edge the same
mirror, so an edge delta whose hub set and per-hub group counts survive the
threshold re-check (:meth:`ShadowNodePlan.mirror_groups_stable`) extends and
shrinks mirror slices without moving any surviving edge — the invariant that
lets the backends patch live partitions instead of re-planning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.layout import csr_gather
from repro.graph.graph import Graph
from repro.inference.delta import GraphDelta
from repro.inference.strategies import select_hubs


def _mirror_slot(src_ids: np.ndarray, dst_ids: np.ndarray,
                 num_groups: np.ndarray) -> np.ndarray:
    """Position-stable mirror slot of each hub out-edge.

    A splitmix64-style mix of the edge's endpoints, reduced modulo the hub's
    group count: slot 0 is the original node, slots 1.. its mirrors.  Being a
    pure per-edge function — never a function of where the edge sits in the
    arrays — is what makes a fresh :func:`apply_shadow_nodes` and an in-place
    :meth:`ShadowNodePlan.patch_edge_delta` agree byte-for-byte: appends land
    on the same mirror a rewrite would pick, and removals never move a
    surviving edge to a different mirror.
    """
    src_u, dst_u, groups_u = np.broadcast_arrays(
        np.asarray(src_ids, dtype=np.uint64),
        np.asarray(dst_ids, dtype=np.uint64),
        np.asarray(num_groups, dtype=np.uint64))
    x = dst_u + np.uint64(0x9E3779B97F4A7C15) * (src_u + np.uint64(1))
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    return (x % groups_u).astype(np.int64)


def _group_count(degree: np.ndarray, threshold: int, cap: int) -> np.ndarray:
    """``min(ceil(degree / threshold), max(cap, 1))`` in pure integers."""
    degree = np.asarray(degree, dtype=np.int64)
    return np.minimum(-(-degree // threshold), max(cap, 1))


@dataclass
class ReplicaMap:
    """Who receives a node's in-messages: a CSR over the expanded id space.

    ``ids[indptr[g]:indptr[g + 1]]`` lists every node id the in-messages of
    ``g`` must be delivered to — ``g`` itself first, then its mirrors;
    non-replicated nodes map to just themselves.  Both arrays are ``None``
    when no node has mirrors.  This is all of a :class:`ShadowNodePlan` a
    worker reads, so it is what programs carry — never the plan,
    which holds the rewritten graph.
    """

    #: CSR offsets, ``int64 [expanded_num_nodes + 1]`` (None when no mirrors).
    indptr: Optional[np.ndarray] = None
    #: CSR targets, ``int64`` flat (None when no mirrors).
    ids: Optional[np.ndarray] = None

    @property
    def has_mirrors(self) -> bool:
        return self.indptr is not None

    def expand_destinations(self, dst_ids: np.ndarray, payload: np.ndarray,
                            counts: Optional[np.ndarray] = None,
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Duplicate message rows whose destination has mirrors.

        Returns expanded ``(dst_ids, payload, counts)`` arrays: rows whose
        destination is not replicated come first (in their original order),
        followed by the replica fan-out of the replicated rows — one
        repeat/gather pass over the CSR arrays, no per-row Python.
        """
        dst_ids = np.asarray(dst_ids, dtype=np.int64)
        if counts is None:
            counts = np.ones(dst_ids.shape[0], dtype=np.int64)
        if self.indptr is None:
            return dst_ids, payload, counts
        reps = self.indptr[dst_ids + 1] - self.indptr[dst_ids]
        needs_expand = reps > 1
        if not needs_expand.any():
            return dst_ids, payload, counts

        keep_rows = np.nonzero(~needs_expand)[0]
        expand_rows = np.nonzero(needs_expand)[0]
        row_index, expanded_dst = self._fan_out(dst_ids[expand_rows], reps[expand_rows])
        source_rows = expand_rows[row_index]
        return (np.concatenate([dst_ids[keep_rows], expanded_dst]),
                np.concatenate([payload[keep_rows], payload[source_rows]], axis=0),
                np.concatenate([counts[keep_rows], counts[source_rows]]))

    def expand_rows(self, dst_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """In-place destination expansion.

        Returns ``(row_index, expanded_dst)`` where every input row appears at
        its original position, replicated rows expanding inline (row i's
        replicas are contiguous where row i was).  ``row_index[j]`` names the
        input row that produced ``expanded_dst[j]``.  No transport sends in
        this order (the one fan-out order is :meth:`expand_destinations`');
        only the benchmark probe that times it calls it.
        """
        dst_ids = np.asarray(dst_ids, dtype=np.int64)
        if self.indptr is None or dst_ids.size == 0:
            return np.arange(dst_ids.size, dtype=np.int64), dst_ids
        reps = self.indptr[dst_ids + 1] - self.indptr[dst_ids]
        if not (reps > 1).any():
            return np.arange(dst_ids.size, dtype=np.int64), dst_ids
        return self._fan_out(dst_ids, reps)

    def _fan_out(self, dst_ids: np.ndarray,
                 reps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Expand every ``dst_ids[i]`` to its ``reps[i]`` replica ids inline."""
        row_index = np.repeat(np.arange(dst_ids.size, dtype=np.int64), reps)
        return row_index, csr_gather(self.indptr, self.ids, dst_ids)


@dataclass
class ShadowNodePlan:
    """Result of shadow-node preprocessing: the rewritten graph + replica map.

    ``replica_indptr`` / ``replica_ids`` and the three readers below are the
    :class:`ReplicaMap`'s, spelt on the plan for the callers that hold one.
    """

    graph: Graph
    original_num_nodes: int
    replicas: ReplicaMap = field(default_factory=ReplicaMap)

    @property
    def num_mirrors(self) -> int:
        return self.graph.num_nodes - self.original_num_nodes

    @property
    def replica_indptr(self) -> Optional[np.ndarray]:
        return self.replicas.indptr

    @property
    def replica_ids(self) -> Optional[np.ndarray]:
        return self.replicas.ids

    @property
    def has_mirrors(self) -> bool:
        return self.replicas.has_mirrors

    def expand_destinations(self, dst_ids: np.ndarray, payload: np.ndarray,
                            counts: Optional[np.ndarray] = None,
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.replicas.expand_destinations(dst_ids, payload, counts)

    def expand_rows(self, dst_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.replicas.expand_rows(dst_ids)

    @cached_property
    def origin_of(self) -> np.ndarray:
        """Dense ``working id -> original id`` table (identity for non-mirrors).

        Read off the replica CSR: every original node's row lists the node
        and then its mirrors, and a mirror's own row is just itself.

        ``cached_property`` takes no lock (Python 3.12 dropped it), so two
        threads reading it first may both compute it.  That is harmless
        only because the table is a pure function of the replica map: keep
        it one.
        """
        origin = np.arange(self.graph.num_nodes, dtype=np.int64)
        indptr, ids = self.replicas.indptr, self.replicas.ids
        if indptr is not None and ids is not None:
            rows = indptr[:self.original_num_nodes + 1]
            origin[ids[:rows[-1]]] = np.repeat(
                np.arange(self.original_num_nodes, dtype=np.int64), np.diff(rows))
        return origin

    def replicas_of(self, node_ids: np.ndarray) -> np.ndarray:
        """Replica closure of ``node_ids``: every id plus all its co-replicas.

        Mirrors map back to their origin first, then the origin's full replica
        group fans out through the CSR arrays, so the result is closed under
        "computes the same state as" — the invariant incremental frontiers
        maintain.  Returns sorted unique working-graph ids.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        member = np.zeros(self.graph.num_nodes, dtype=bool)
        if self.replica_indptr is None or node_ids.size == 0:
            member[node_ids] = True
            return np.flatnonzero(member)
        member[self.origin_of[node_ids]] = True
        member[csr_gather(self.replica_indptr, self.replica_ids, np.flatnonzero(member))] = True
        return np.flatnonzero(member)

    def refresh_mirror_features(self, base_graph: Graph,
                                changed_ids: np.ndarray) -> np.ndarray:
        """Propagate updated feature rows of ``changed_ids`` into the rewrite.

        Called on a plan with mirrors only.  Mirror features are copies of
        their origin's row, taken at rewrite time; after a feature delta the
        copies (and the expanded graph's rows for the originals, which live in
        a *separate* concatenated buffer) must be refreshed.  Returns every
        working-graph id whose feature row was touched — the replica closure
        of ``changed_ids``.
        """
        replicas = self.replicas_of(changed_ids)
        self.graph.node_features[replicas] = base_graph.node_features[self.origin_of[replicas]]
        return replicas

    # ------------------------------------------------------------------ #
    # in-place edge deltas
    # ------------------------------------------------------------------ #
    def mirror_groups_stable(self, out_degrees: np.ndarray, threshold: int,
                             num_workers: int) -> bool:
        """Whether a fresh rewrite would reproduce this plan's mirror layout.

        ``out_degrees`` are the *base* graph's post-delta out-degrees.  The
        mirror allocation (which nodes get mirrors, how many, which ids) only
        depends on the hub set and each hub's group count, so an edge delta
        keeps the plan valid iff every original node's recomputed group count
        matches the replica CSR's current one — the hub set itself is checked
        by the caller against the strategy plan.
        """
        expected = np.ones(self.original_num_nodes, dtype=np.int64)
        hubs = select_hubs(out_degrees, threshold)
        if hubs.size:
            degrees = np.asarray(out_degrees, dtype=np.int64)[hubs]
            expected[hubs] = np.maximum(
                _group_count(degrees, threshold, num_workers), 1)
        if self.replica_indptr is None:
            return bool((expected == 1).all())
        current = np.diff(self.replica_indptr)[:self.original_num_nodes]
        return bool(np.array_equal(expected, current))

    def assign_sources(self, src_ids: np.ndarray,
                       dst_ids: np.ndarray) -> np.ndarray:
        """Working-graph source id of each ``(src, dst)`` edge under this plan.

        Non-replicated sources map to themselves; a replicated hub's edges go
        to ``replica_ids[indptr[hub] + slot]`` with the position-stable
        :func:`_mirror_slot` — exactly the id a fresh rewrite would assign.
        """
        src_ids = np.asarray(src_ids, dtype=np.int64)
        if self.replica_indptr is None or src_ids.size == 0:
            return src_ids.copy()
        counts = self.replica_indptr[src_ids + 1] - self.replica_indptr[src_ids]
        assigned = src_ids.copy()
        replicated = counts > 1
        if replicated.any():
            rows = np.nonzero(replicated)[0]
            slots = _mirror_slot(src_ids[rows],
                                 np.asarray(dst_ids, dtype=np.int64)[rows],
                                 counts[rows])
            assigned[rows] = self.replica_ids[
                self.replica_indptr[src_ids[rows]] + slots]
        return assigned

    def patch_edge_delta(self, base_graph: Graph, delta: GraphDelta) -> None:
        """Splice ``delta``'s edge changes into the expanded working graph.

        Called on a plan with mirrors only (without them the working graph
        is re-pointed at the base arrays instead).  ``delta`` is already on
        ``base_graph``, and the caller verified the hub set and
        :meth:`mirror_groups_stable`.  The expanded graph keeps base edge
        *order* (only hub sources are rewritten to mirror ids), so the
        delta's removal positions apply one-to-one; appends get their
        position-stable mirror assignment.  The result is byte-identical to a
        fresh :func:`apply_shadow_nodes` over the post-delta base graph.
        """
        src = self.graph.src
        if delta.removed_edge_ids is not None and delta.removed_edge_ids.size:
            keep = np.ones(src.size, dtype=bool)
            keep[delta.removed_edge_ids] = False
            src = src[keep]
        if delta.added_src is not None and delta.added_src.size:
            src = np.concatenate(
                [src, self.assign_sources(delta.added_src, delta.added_dst)])
        self.graph.src = src
        # The expanded graph shares the base dst and edge-feature buffers;
        # landing the delta swapped them for patched arrays, so re-point the
        # shares.
        self.graph.dst = base_graph.dst
        self.graph.edge_features = base_graph.edge_features
        self.graph.invalidate_adjacency()


def _build_replica_csr(num_nodes: int,
                       replica_lists: Dict[int, np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten per-hub replica lists into dense CSR over all node ids."""
    counts = np.ones(num_nodes, dtype=np.int64)
    for node, replicas in replica_lists.items():
        counts[node] = replicas.size
    indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
    flat = np.empty(int(indptr[-1]), dtype=np.int64)
    identity = np.nonzero(counts == 1)[0]
    flat[indptr[identity]] = identity
    for node, replicas in replica_lists.items():
        flat[int(indptr[node]):int(indptr[node + 1])] = replicas
    return indptr, flat


def apply_shadow_nodes(graph: Graph, threshold: int,
                       num_workers: int) -> ShadowNodePlan:
    """Split hub out-edges across mirror nodes.

    The number of mirrors for a hub with out-degree ``d`` is
    ``ceil(d / threshold)`` capped at ``num_workers`` (one mirror per worker is
    the most the strategy can ever use).  Mirror ids are allocated past the
    original id range; mirror features/labels are copies of the original's.

    Each out-edge's slot is the position-stable :func:`_mirror_slot` hash of
    its endpoints, so the slices stay balanced in expectation while an edge
    delta (:meth:`ShadowNodePlan.patch_edge_delta`) can extend or shrink them
    without reshuffling survivors.  Every slot's mirror is allocated even
    when the hash leaves it momentarily empty — mirror ids must be a function
    of the hub set and group counts alone, never of slot occupancy.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    # Same >= rule as build_strategy_plan, so tie-degree nodes are hubs for
    # every strategy.  A hub whose degree is exactly the threshold still gets
    # no mirrors (one out-edge group suffices), but it is *considered* here.
    hubs = select_hubs(graph.out_degrees(), threshold)
    if hubs.size == 0:
        return ShadowNodePlan(graph=graph, original_num_nodes=graph.num_nodes)

    new_src = graph.src.copy()
    replica_lists: Dict[int, np.ndarray] = {}
    extra_features: List[np.ndarray] = []
    extra_labels: List[np.ndarray] = []
    next_id = graph.num_nodes

    for hub in hubs:
        hub = int(hub)
        edge_positions = graph.out_edge_ids(hub)
        degree = edge_positions.size
        num_groups = int(_group_count(degree, threshold, num_workers))
        if num_groups <= 1:
            continue
        slots = _mirror_slot(np.full(degree, hub, dtype=np.int64),
                             graph.dst[edge_positions], num_groups)
        replica_ids = [hub]
        # Slot 0 stays with the original node; slots 1.. go to fresh mirrors.
        for slot in range(1, num_groups):
            mirror_id = next_id
            next_id += 1
            new_src[edge_positions[slots == slot]] = mirror_id
            replica_ids.append(mirror_id)
            if graph.node_features is not None:
                extra_features.append(graph.node_features[hub])
            if graph.labels is not None:
                extra_labels.append(np.asarray(graph.labels[hub]))
        replica_lists[hub] = np.asarray(replica_ids, dtype=np.int64)

    if next_id == graph.num_nodes:
        return ShadowNodePlan(graph=graph, original_num_nodes=graph.num_nodes)

    node_features = graph.node_features
    if node_features is not None:
        node_features = np.concatenate([node_features, np.stack(extra_features)], axis=0)
    labels = graph.labels
    if labels is not None:
        labels = np.concatenate([labels, np.stack(extra_labels)], axis=0)

    expanded = Graph(
        src=new_src,
        dst=graph.dst,
        node_features=node_features,
        edge_features=graph.edge_features,
        labels=labels,
        num_nodes=next_id,
    )
    return ShadowNodePlan(
        graph=expanded,
        original_num_nodes=graph.num_nodes,
        replicas=ReplicaMap(*_build_replica_csr(next_id, replica_lists)),
    )
