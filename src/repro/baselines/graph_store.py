"""Simulated distributed in-memory graph store.

In the traditional pipeline (the paper's Table III setting: "a distributed
graph store (20 workers) to maintain the graph data and 200 workers for
inference tasks"), every k-hop neighbourhood query crosses the network from
the store to the inference worker.  This class serves those queries from an
in-process :class:`~repro.graph.graph.Graph` while accounting for the bytes a
real deployment would move: node features, edge indices and edge features of
the returned subgraph.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cluster.metrics import ID_BYTES, MetricsCollector
from repro.graph.graph import Graph
from repro.graph.khop import KHopSubgraph, khop_neighborhood
from repro.graph.sampling import NeighborSampler


class DistributedGraphStore:
    """Serves k-hop neighbourhood queries and accounts their transfer cost."""

    def __init__(self, graph: Graph, num_store_workers: int = 4,
                 metrics: Optional[MetricsCollector] = None) -> None:
        if num_store_workers <= 0:
            raise ValueError("num_store_workers must be positive")
        self.graph = graph
        self.num_store_workers = int(num_store_workers)
        self.metrics = metrics or MetricsCollector()
        self._query_count = 0

    # ------------------------------------------------------------------ #
    @property
    def num_queries(self) -> int:
        return self._query_count

    @staticmethod
    def subgraph_bytes(subgraph: KHopSubgraph) -> float:
        """Wire size of one materialised k-hop neighbourhood."""
        total = 2.0 * subgraph.num_edges * ID_BYTES          # src + dst ids
        total += float(subgraph.num_nodes) * ID_BYTES        # node id remap
        if subgraph.node_features is not None:
            total += float(subgraph.node_features.nbytes)
        if subgraph.edge_features is not None:
            total += float(subgraph.edge_features.nbytes)
        return total

    def query_khop(self, targets: Sequence[int], num_hops: int,
                   sampler: Optional[NeighborSampler] = None,
                   rng: Optional[np.random.Generator] = None,
                   phase: str = "graph_store") -> KHopSubgraph:
        """Materialise the (sampled) k-hop neighbourhood of ``targets``.

        The transferred bytes are charged to the store workers (spread evenly,
        as a hash-partitioned store would) as ``bytes_out`` under ``phase``;
        the requester records its own ``bytes_in``
        (:meth:`subgraph_bytes`).
        """
        subgraph = khop_neighborhood(self.graph, targets, num_hops, sampler=sampler, rng=rng)
        transferred = self.subgraph_bytes(subgraph)
        per_store_worker = transferred / self.num_store_workers
        for store_worker in range(self.num_store_workers):
            self.metrics.record(phase, store_worker, bytes_out=per_store_worker,
                                records_out=subgraph.num_nodes)
        self._query_count += 1
        return subgraph
