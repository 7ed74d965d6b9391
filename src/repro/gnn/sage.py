"""GraphSAGE layer in the GAS-like abstraction.

The aggregate stage is a pooling function (mean by default, sum/max available)
and therefore commutative and associative — the layer is annotated with
``@gather_stage(partial=True)`` and is the canonical beneficiary of the
partial-gather strategy.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gnn.annotations import apply_edge_stage, apply_node_stage, gather_stage
from repro.gnn.gasconv import GASConv
from repro.tensor import ops
from repro.tensor.nn import Linear
from repro.tensor.tensor import Tensor


class SAGEConv(GASConv):
    """GraphSAGE convolution: ``h' = act(W_self h + W_nbr AGG(messages))``.

    Parameters
    ----------
    in_dim, out_dim:
        Input and output embedding widths.
    aggregator:
        ``"mean"`` (default), ``"sum"`` or ``"max"``.
    edge_dim:
        Width of edge features; when positive, edge features are projected and
        added to the per-edge message in ``apply_edge``.
    activation:
        ``"relu"`` or ``"none"`` (the last layer of a model typically uses
        ``"none"`` so logits are produced by the prediction head).
    """

    def __init__(self, in_dim: int, out_dim: int, aggregator: str = "mean",
                 edge_dim: int = 0, activation: str = "relu",
                 seed: int = 0) -> None:
        super().__init__(in_dim, out_dim)
        if aggregator not in ("mean", "sum", "max"):
            raise ValueError("aggregator must be mean, sum or max")
        rng = np.random.default_rng(seed)
        self.aggregator = aggregator
        self.edge_dim = int(edge_dim)
        self.activation = activation
        self.self_linear = Linear(in_dim, out_dim, rng=rng)
        self.neighbor_linear = Linear(in_dim, out_dim, rng=rng)
        self.edge_linear = Linear(edge_dim, in_dim, rng=rng) if edge_dim > 0 else None

    # ------------------------------------------------------------------ #
    # metadata
    # ------------------------------------------------------------------ #
    @property
    def aggregate_kind(self) -> str:
        return self.aggregator

    @property
    def message_dim(self) -> int:
        # Messages carry the (possibly edge-augmented) previous-layer state.
        return self.in_dim

    def apply_edge_is_identity(self, has_edge_features: bool) -> bool:
        # Messages are raw previous-layer states unless edge features feed in.
        return self.edge_linear is None or not has_edge_features

    def config(self):
        return {
            "in_dim": self.in_dim,
            "out_dim": self.out_dim,
            "aggregator": self.aggregator,
            "edge_dim": self.edge_dim,
            "activation": self.activation,
        }

    # ------------------------------------------------------------------ #
    # computation stages
    # ------------------------------------------------------------------ #
    @gather_stage(partial=True)
    def gather(self, message: Tensor, dst_index: np.ndarray, num_nodes: int,
               counts: Optional[np.ndarray] = None) -> Tensor:
        """Pool in-edge messages per destination node.

        ``counts`` carries the number of raw messages folded into each row by
        the sender-side combiner: the mean aggregator divides the summed
        payloads by the summed counts so partial-gather is exact.
        """
        message = message if isinstance(message, Tensor) else Tensor(message)
        if self.aggregator == "max":
            return ops.segment_max(message, dst_index, num_nodes)
        if self.aggregator == "sum":
            return ops.segment_sum(message, dst_index, num_nodes)
        return ops.segment_mean(message, dst_index, num_nodes, counts)

    @apply_node_stage
    def apply_node(self, node_state: Tensor, aggr_state: Tensor) -> Tensor:
        """Combine the node's own state with the pooled neighbourhood."""
        out = self.self_linear(node_state) + self.neighbor_linear(aggr_state)
        if self.activation == "relu":
            out = out.relu()
        return out

    @apply_edge_stage
    def apply_edge(self, message: Tensor, edge_state: Optional[Tensor]) -> Tensor:
        """Augment the outgoing message with projected edge features, if any."""
        if edge_state is None or self.edge_linear is None:
            return message
        edge_state = edge_state if isinstance(edge_state, Tensor) else Tensor(edge_state)
        return message + self.edge_linear(edge_state)
