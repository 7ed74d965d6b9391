"""K-hop neighbourhood extraction.

The paper's Section II-A defines the k-hop neighbourhood of node v as the
induced attributed subgraph over all nodes within (shortest-path) distance k
of v, which provides *sufficient and necessary* information for a k-layer GNN
on v.  Training and the traditional inference baseline both operate on these
subgraphs; the InferTurbo inference path never materialises them (that is the
whole point), but uses this module in tests to validate numerical equivalence.

Neighbours here mean *in-neighbours*: information flows along edge direction
(src → dst), so the receptive field of v is the set of nodes that can reach v
within k hops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.graph.graph import Graph
from repro.graph.sampling import FullNeighborSampler, NeighborSampler


@dataclass
class KHopSubgraph:
    """A batch of k-hop neighbourhoods merged into one local subgraph.

    Attributes
    ----------
    node_ids:
        Global ids of the nodes in the subgraph; targets come first.
    src, dst:
        Local COO edge index of the subgraph.
    edge_ids:
        Global edge ids for the kept edges (-1 for sampled duplicates that do
        not correspond to a unique global edge — not produced by the current
        samplers, reserved for with-replacement sampling).
    target_positions:
        Local positions of the target (seed) nodes, in seed order.
    node_features / edge_features / labels:
        Sliced attribute arrays (None if absent on the parent graph).
    """

    node_ids: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    edge_ids: np.ndarray
    target_positions: np.ndarray
    node_features: Optional[np.ndarray]
    edge_features: Optional[np.ndarray]
    labels: Optional[np.ndarray]

    @property
    def num_nodes(self) -> int:
        return int(self.node_ids.size)

    @property
    def num_edges(self) -> int:
        return int(self.src.size)


def khop_neighborhood(
    graph: Graph,
    targets: Sequence[int],
    num_hops: int,
    sampler: Optional[NeighborSampler] = None,
    rng: Optional[np.random.Generator] = None,
) -> KHopSubgraph:
    """Extract the (possibly sampled) k-hop in-neighbourhood of ``targets``.

    The extraction proceeds top-down as in the paper: starting from the seed
    nodes, each hop expands the frontier through in-edges, optionally sampling
    a fixed number of in-neighbours per node.  The induced edge set contains,
    for each expanded node, the (sampled) in-edges used to expand it — which is
    exactly the compute graph a k-layer GNN needs for the seeds.
    """
    sampler = sampler or FullNeighborSampler()
    rng = rng or np.random.default_rng()
    targets = np.asarray(list(targets), dtype=np.int64)

    visited: dict[int, int] = {}
    node_order: List[int] = []
    for node in targets:
        node = int(node)
        if node not in visited:
            visited[node] = len(node_order)
            node_order.append(node)

    edge_src: List[int] = []
    edge_dst: List[int] = []
    edge_ids: List[int] = []

    frontier = list(dict.fromkeys(int(t) for t in targets))
    for _hop in range(num_hops):
        next_frontier: List[int] = []
        for node in frontier:
            in_edge_ids = graph.in_edge_ids(node)
            chosen = sampler.sample(in_edge_ids, rng)
            for edge_id in chosen:
                edge_id = int(edge_id)
                neighbor = int(graph.src[edge_id])
                if neighbor not in visited:
                    visited[neighbor] = len(node_order)
                    node_order.append(neighbor)
                    next_frontier.append(neighbor)
                edge_src.append(neighbor)
                edge_dst.append(node)
                edge_ids.append(edge_id)
        frontier = next_frontier
        if not frontier:
            break

    node_ids = np.asarray(node_order, dtype=np.int64)
    lookup = {node: position for position, node in enumerate(node_order)}
    local_src = np.asarray([lookup[s] for s in edge_src], dtype=np.int64)
    local_dst = np.asarray([lookup[d] for d in edge_dst], dtype=np.int64)
    edge_ids_arr = np.asarray(edge_ids, dtype=np.int64)
    target_positions = np.asarray([lookup[int(t)] for t in targets], dtype=np.int64)

    return KHopSubgraph(
        node_ids=node_ids,
        src=local_src,
        dst=local_dst,
        edge_ids=edge_ids_arr,
        target_positions=target_positions,
        node_features=None if graph.node_features is None else graph.node_features[node_ids],
        edge_features=None if graph.edge_features is None or edge_ids_arr.size == 0
        else graph.edge_features[edge_ids_arr],
        labels=None if graph.labels is None else graph.labels[node_ids],
    )
