"""GCN-style layer in the GAS-like abstraction.

Implements the widely used mean-normalised graph convolution
``h' = act( W * MEAN({h_u : u in N_in(v)} ∪ {h_v}) )`` — i.e. Kipf & Welling's
GCN with the symmetric normalisation replaced by in-neighbour mean plus a
self-connection, which keeps the aggregate stage commutative/associative and
therefore compatible with partial-gather (like GraphSAGE, and unlike GAT).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gnn.annotations import apply_edge_stage, apply_node_stage, gather_stage
from repro.gnn.gasconv import GASConv
from repro.tensor import ops
from repro.tensor.nn import Linear
from repro.tensor.tensor import Tensor


class GCNConv(GASConv):
    """Mean-aggregation graph convolution with a self-connection."""

    def __init__(self, in_dim: int, out_dim: int, activation: str = "relu",
                 edge_dim: int = 0, seed: int = 0) -> None:
        super().__init__(in_dim, out_dim)
        rng = np.random.default_rng(seed)
        self.activation = activation
        self.edge_dim = int(edge_dim)
        self.linear = Linear(in_dim, out_dim, rng=rng)
        self.edge_linear = Linear(edge_dim, in_dim, rng=rng) if edge_dim > 0 else None

    @property
    def aggregate_kind(self) -> str:
        return "mean"

    @property
    def message_dim(self) -> int:
        return self.in_dim

    def apply_edge_is_identity(self, has_edge_features: bool) -> bool:
        # Messages are raw previous-layer states unless edge features feed in.
        return self.edge_linear is None or not has_edge_features

    def config(self):
        return {
            "in_dim": self.in_dim,
            "out_dim": self.out_dim,
            "activation": self.activation,
            "edge_dim": self.edge_dim,
        }

    @gather_stage(partial=True)
    def gather(self, message: Tensor, dst_index: np.ndarray, num_nodes: int,
               counts: Optional[np.ndarray] = None) -> Tensor:
        """Mean-pool in-edge messages per destination (partial-gather aware)."""
        return ops.segment_mean(message, dst_index, num_nodes, counts)

    @apply_node_stage
    def apply_node(self, node_state: Tensor, aggr_state: Tensor) -> Tensor:
        """Average the pooled neighbourhood with the node itself, then project."""
        mixed = (aggr_state + node_state) * 0.5
        out = self.linear(mixed)
        if self.activation == "relu":
            out = out.relu()
        return out

    @apply_edge_stage
    def apply_edge(self, message: Tensor, edge_state: Optional[Tensor]) -> Tensor:
        """Messages are the raw previous-layer states (edge features added if any)."""
        if edge_state is None or self.edge_linear is None:
            return message
        edge_state = edge_state if isinstance(edge_state, Tensor) else Tensor(edge_state)
        return message + self.edge_linear(edge_state)
