"""Graph partitioning for the distributed backends.

Following Pregel (and the paper's Section IV-C1), the graph is divided into
partitions by a hash of the node id (``mod N`` by default); each partition
holds a set of nodes **and all out-edges of those nodes**, plus node state and
out-edge state, so that one superstep per GNN layer suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.cluster.layout import ClusterLayout, stable_group_by
from repro.graph.graph import Graph


class HashPartitioner:
    """Assign nodes to ``num_partitions`` workers by ``node_id mod N``.

    A custom hash function can be supplied (e.g. to reproduce skewed
    placements); it must be deterministic so that senders and receivers agree
    on node placement without coordination.
    """

    def __init__(self, num_partitions: int,
                 hash_fn: Optional[Callable[[int], int]] = None) -> None:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = int(num_partitions)
        self._hash_fn = hash_fn

    def assign(self, node_id: int) -> int:
        """Partition index owning ``node_id``."""
        if self._hash_fn is not None:
            return int(self._hash_fn(int(node_id))) % self.num_partitions
        return int(node_id) % self.num_partitions

    def assign_many(self, node_ids: np.ndarray) -> np.ndarray:
        """Vectorised assignment for an array of node ids."""
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if self._hash_fn is not None:
            # The hash itself is an arbitrary Python callable, so it runs once
            # per id — but through a single fromiter pass (no per-id method
            # dispatch).  The modulo must fold inside the pass: hash values
            # may exceed int64 (e.g. md5-based placements).
            num_partitions = self.num_partitions
            hash_fn = self._hash_fn
            return np.fromiter((int(hash_fn(n)) % num_partitions
                                for n in node_ids.tolist()),
                               dtype=np.int64, count=node_ids.size)
        return node_ids % self.num_partitions


@dataclass
class Partition:
    """One worker's slice of the graph: owned nodes and their out-edges."""

    partition_id: int
    node_ids: np.ndarray                  # global ids of owned nodes
    out_src: np.ndarray                   # global src of owned out-edges (all in node_ids)
    out_dst: np.ndarray                   # global dst of owned out-edges
    out_edge_features: Optional[np.ndarray] = None
    node_features: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None

    @property
    def num_nodes(self) -> int:
        return int(self.node_ids.size)

    @property
    def num_out_edges(self) -> int:
        return int(self.out_src.size)


def partition_graph(graph: Graph, partitioner: HashPartitioner,
                    layout: Optional[ClusterLayout] = None) -> List[Partition]:
    """Split ``graph`` into per-worker partitions (nodes + their out-edges).

    A precomputed :class:`~repro.cluster.layout.ClusterLayout` may be supplied
    to skip the assignment pass (a session caches one per prepared plan); it
    must cover exactly this graph under exactly this partitioner.
    """
    partitions, _ = partition_graph_with_layout(graph, partitioner, layout)
    return partitions


def partition_graph_with_layout(
        graph: Graph, partitioner: HashPartitioner,
        layout: Optional[ClusterLayout] = None) -> Tuple[List[Partition], ClusterLayout]:
    """Like :func:`partition_graph`, but also return the routing layout.

    The layout's dense owner/local tables are what the execution engines use
    to translate message destinations in bulk; computing them here (one
    assignment pass + one stable argsort) replaces the per-partition
    ``nonzero`` scans the old implementation performed.
    """
    if layout is None:
        layout = ClusterLayout.build(graph.num_nodes, partitioner)
    elif (layout.num_nodes != graph.num_nodes
          or layout.num_partitions != partitioner.num_partitions):
        raise ValueError(
            f"layout covers {layout.num_nodes} nodes / {layout.num_partitions} "
            f"partitions but the graph has {graph.num_nodes} nodes and the "
            f"partitioner {partitioner.num_partitions} partitions")

    # Group owned out-edges per partition in one argsort pass; within each
    # partition edge ids stay ascending (stable sort), matching the old
    # per-partition nonzero scans bit for bit.
    edge_owner = layout.owners(graph.src)
    edge_order, edge_counts, edge_starts = stable_group_by(
        edge_owner, partitioner.num_partitions)

    partitions: List[Partition] = []
    for pid in range(partitioner.num_partitions):
        node_ids = layout.nodes_of(pid)
        start = int(edge_starts[pid])
        edge_ids = edge_order[start:start + int(edge_counts[pid])]
        partitions.append(Partition(
            partition_id=pid,
            node_ids=node_ids,
            out_src=graph.src[edge_ids],
            out_dst=graph.dst[edge_ids],
            out_edge_features=None if graph.edge_features is None else graph.edge_features[edge_ids],
            node_features=None if graph.node_features is None else graph.node_features[node_ids],
            labels=None if graph.labels is None else graph.labels[node_ids],
        ))
    return partitions, layout
