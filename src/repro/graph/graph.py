"""In-memory attributed directed graph.

The graph follows the paper's definition G = {V, E, X, E_feat}: a directed,
weighted, attributed graph with node features ``X`` and optional edge features.
Edges are stored in COO form (``src``, ``dst``); CSR (grouped by source, i.e.
out-edges) and CSC (grouped by destination, i.e. in-edges) index structures
are built lazily and cached because both the trainer (in-edge gathers) and the
table export and shadow-node rewrite (out-edges) need them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np


@dataclass
class _AdjacencyIndex:
    """CSR-style index: ``indptr[v]:indptr[v+1]`` slices ``edge_ids`` for node v."""

    indptr: np.ndarray
    edge_ids: np.ndarray
    neighbor_ids: np.ndarray


class Graph:
    """Directed attributed graph in COO format with cached adjacency indices.

    Parameters
    ----------
    src, dst:
        Integer arrays of shape [E]; edge i points from ``src[i]`` to ``dst[i]``.
        Messages flow along edge direction (src → dst), so ``dst`` gathers from
        its in-edges exactly as in the paper's message-passing formulation.
    node_features:
        Float array [N, F] (optional — some topologies are feature-less).
    edge_features:
        Float array [E, Fe] or None.
    labels:
        Integer array [N] (single-label) or float array [N, C] (multi-label),
        or None for unlabeled graphs.
    num_nodes:
        Number of nodes; inferred from indices / features when omitted.
    """

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        node_features: Optional[np.ndarray] = None,
        edge_features: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        num_nodes: Optional[int] = None,
    ) -> None:
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        if self.src.shape != self.dst.shape:
            raise ValueError("src and dst must have the same length")
        if self.src.ndim != 1:
            raise ValueError("src and dst must be 1-D arrays")

        inferred = 0
        if self.src.size:
            inferred = int(max(self.src.max(), self.dst.max())) + 1
        if node_features is not None:
            inferred = max(inferred, np.asarray(node_features).shape[0])
        if labels is not None:
            inferred = max(inferred, np.asarray(labels).shape[0])
        self.num_nodes = int(num_nodes) if num_nodes is not None else inferred
        if self.src.size and int(max(self.src.max(), self.dst.max())) >= self.num_nodes:
            raise ValueError("edge endpoints exceed num_nodes")

        self.node_features = None if node_features is None else np.asarray(node_features, dtype=np.float64)
        self.edge_features = None if edge_features is None else np.asarray(edge_features, dtype=np.float64)
        if self.node_features is not None and self.node_features.shape[0] != self.num_nodes:
            raise ValueError("node_features first dimension must equal num_nodes")
        if self.edge_features is not None and self.edge_features.shape[0] != self.num_edges:
            raise ValueError("edge_features first dimension must equal num_edges")
        self.labels = None if labels is None else np.asarray(labels)

        self._out_index: Optional[_AdjacencyIndex] = None
        self._in_index: Optional[_AdjacencyIndex] = None

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    @property
    def feature_dim(self) -> int:
        return 0 if self.node_features is None else int(self.node_features.shape[1])

    @property
    def edge_feature_dim(self) -> int:
        return 0 if self.edge_features is None else int(self.edge_features.shape[1])

    def in_degrees(self) -> np.ndarray:
        """In-degree of every node."""
        return np.bincount(self.dst, minlength=self.num_nodes)

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node."""
        return np.bincount(self.src, minlength=self.num_nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
                f"feature_dim={self.feature_dim})")

    # ------------------------------------------------------------------ #
    # adjacency indices
    # ------------------------------------------------------------------ #
    @staticmethod
    def _build_index(keys: np.ndarray, values: np.ndarray, num_nodes: int) -> _AdjacencyIndex:
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        counts = np.bincount(sorted_keys, minlength=num_nodes)
        indptr[1:] = np.cumsum(counts)
        return _AdjacencyIndex(indptr=indptr, edge_ids=order, neighbor_ids=values[order])

    def _out(self) -> _AdjacencyIndex:
        if self._out_index is None:
            self._out_index = self._build_index(self.src, self.dst, self.num_nodes)
        return self._out_index

    def _in(self) -> _AdjacencyIndex:
        if self._in_index is None:
            self._in_index = self._build_index(self.dst, self.src, self.num_nodes)
        return self._in_index

    def out_neighbors(self, node: int) -> np.ndarray:
        """Destination ids of the node's out-edges."""
        index = self._out()
        return index.neighbor_ids[index.indptr[node]:index.indptr[node + 1]]

    def in_neighbors(self, node: int) -> np.ndarray:
        """Source ids of the node's in-edges."""
        index = self._in()
        return index.neighbor_ids[index.indptr[node]:index.indptr[node + 1]]

    def out_edge_ids(self, node: int) -> np.ndarray:
        """Edge ids (positions in src/dst) of the node's out-edges."""
        index = self._out()
        return index.edge_ids[index.indptr[node]:index.indptr[node + 1]]

    def invalidate_adjacency(self) -> None:
        """Drop the cached CSR/CSC indices after an in-place edge mutation.

        The adjacency indices are derived from ``src``/``dst`` lazily; any code
        that swaps those arrays (e.g. applying a
        :class:`~repro.inference.delta.GraphDelta`) must call this so the next
        neighbour lookup rebuilds them instead of reading stale slices.
        """
        self._out_index = None
        self._in_index = None

    def in_edge_ids(self, node: int) -> np.ndarray:
        """Edge ids (positions in src/dst) of the node's in-edges."""
        index = self._in()
        return index.edge_ids[index.indptr[node]:index.indptr[node + 1]]

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #
    def subgraph(self, node_ids: np.ndarray) -> Tuple["Graph", np.ndarray, np.ndarray]:
        """Induced subgraph over ``node_ids``.

        Returns (subgraph, node_ids, edge_ids) where node/edge ids map local
        indices back to the parent graph.  Features and labels are sliced.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        lookup = np.full(self.num_nodes, -1, dtype=np.int64)
        lookup[node_ids] = np.arange(node_ids.size)
        keep = (lookup[self.src] >= 0) & (lookup[self.dst] >= 0)
        edge_ids = np.nonzero(keep)[0]
        sub_src = lookup[self.src[edge_ids]]
        sub_dst = lookup[self.dst[edge_ids]]
        sub = Graph(
            src=sub_src,
            dst=sub_dst,
            node_features=None if self.node_features is None else self.node_features[node_ids],
            edge_features=None if self.edge_features is None else self.edge_features[edge_ids],
            labels=None if self.labels is None else self.labels[node_ids],
            num_nodes=node_ids.size,
        )
        return sub, node_ids, edge_ids

    def reverse(self) -> "Graph":
        """Graph with all edge directions flipped (features preserved)."""
        return Graph(
            src=self.dst.copy(),
            dst=self.src.copy(),
            node_features=self.node_features,
            edge_features=self.edge_features,
            labels=self.labels,
            num_nodes=self.num_nodes,
        )

    # ------------------------------------------------------------------ #
    # statistics used by the dataset-summary experiment (Table I)
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, float]:
        """Summary statistics in the shape of the paper's Table I."""
        in_deg = self.in_degrees()
        out_deg = self.out_degrees()
        num_classes = 0
        if self.labels is not None:
            if self.labels.ndim == 1:
                num_classes = int(self.labels.max()) + 1 if self.labels.size else 0
            else:
                num_classes = int(self.labels.shape[1])
        return {
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "node_feature_dim": self.feature_dim,
            "edge_feature_dim": self.edge_feature_dim,
            "num_classes": num_classes,
            "max_in_degree": int(in_deg.max()) if in_deg.size else 0,
            "max_out_degree": int(out_deg.max()) if out_deg.size else 0,
            "mean_degree": float(self.num_edges / max(self.num_nodes, 1)),
        }
