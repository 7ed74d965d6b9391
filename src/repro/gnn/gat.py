"""Graph Attention Network layer in the GAS-like abstraction.

GAT's reduction is an attention-weighted sum whose softmax normaliser depends
on *all* in-edge messages of a node, so it is **not** commutative/associative
over partial message subsets.  Following the paper, the gather stage is
annotated ``partial=False`` and simply unions the incoming messages; the
attention computation (softmax + weighted sum) lives in ``apply_node``.  The
partial-gather strategy is therefore automatically disabled for this layer,
while broadcast and shadow-nodes (which do not alter message contents) remain
applicable.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.gnn.annotations import apply_edge_stage, apply_node_stage, gather_stage
from repro.gnn.gasconv import GASConv
from repro.tensor import ops
from repro.tensor.nn import Linear, Parameter, xavier_uniform
from repro.tensor.tensor import Tensor, concatenate


class GATConv(GASConv):
    """Multi-head graph attention convolution.

    The per-edge message carries the transformed source state for each head
    plus the source half of the (additive) attention logit, so that the
    receiver can finish the attention score with only its own state:

    ``alpha_uv = softmax_v( leaky_relu( a_src · W h_u + a_dst · W h_v ) )``.

    Heads are concatenated (``concat=True``) or averaged (final layer).
    """

    def __init__(self, in_dim: int, out_dim: int, heads: int = 1,
                 concat: bool = True, negative_slope: float = 0.2,
                 edge_dim: int = 0, activation: str = "none", seed: int = 0) -> None:
        super().__init__(in_dim, out_dim)
        rng = np.random.default_rng(seed)
        self.heads = int(heads)
        self.concat = bool(concat)
        self.negative_slope = float(negative_slope)
        self.edge_dim = int(edge_dim)
        self.activation = activation
        # One shared projection producing all heads at once: [in, heads*out].
        self.linear = Linear(in_dim, self.heads * out_dim, bias=False, rng=rng)
        self.attn_src = Parameter(xavier_uniform((self.heads, out_dim), rng))
        self.attn_dst = Parameter(xavier_uniform((self.heads, out_dim), rng))
        self.bias = Parameter(np.zeros(self.heads * out_dim if concat else out_dim))
        self.edge_linear = Linear(edge_dim, self.heads * out_dim, rng=rng) if edge_dim > 0 else None

    # ------------------------------------------------------------------ #
    # metadata
    # ------------------------------------------------------------------ #
    @property
    def aggregate_kind(self) -> str:
        return "union"

    @property
    def message_dim(self) -> int:
        # heads * out_dim transformed features + heads source-side attention logits.
        return self.heads * self.out_dim + self.heads

    @property
    def output_dim(self) -> int:
        """Actual width of apply_node's output (depends on head concatenation)."""
        return self.heads * self.out_dim if self.concat else self.out_dim

    def config(self):
        return {
            "in_dim": self.in_dim,
            "out_dim": self.out_dim,
            "heads": self.heads,
            "concat": self.concat,
            "negative_slope": self.negative_slope,
            "edge_dim": self.edge_dim,
            "activation": self.activation,
        }

    # ------------------------------------------------------------------ #
    # computation stages
    # ------------------------------------------------------------------ #
    @gather_stage(partial=False)
    def gather(self, message: Tensor, dst_index: np.ndarray, num_nodes: int,
               counts: Optional[np.ndarray] = None) -> Tuple[Tensor, np.ndarray]:
        """Union the incoming messages (attention needs the full multiset)."""
        if counts is not None and np.any(np.asarray(counts) != 1):
            raise RuntimeError("GATConv cannot consume partially aggregated messages")
        message = message if isinstance(message, Tensor) else Tensor(message)
        return message, np.asarray(dst_index, dtype=np.int64)

    @apply_node_stage
    def apply_node(self, node_state: Tensor, aggr_state: Tuple[Tensor, np.ndarray]) -> Tensor:
        """Finish attention: softmax per destination, weighted sum, head merge."""
        message, dst_index = aggr_state
        num_nodes = node_state.shape[0]
        feat_width = self.heads * self.out_dim

        src_features = message[:, :feat_width] if isinstance(message, Tensor) else Tensor(message[:, :feat_width])
        src_logits = message[:, feat_width:]

        dst_proj = self.linear(node_state)  # [N, heads*out]
        dst_proj_heads = dst_proj.reshape(num_nodes, self.heads, self.out_dim)
        dst_logits = (dst_proj_heads * self.attn_dst).sum(axis=-1)  # [N, heads]

        if message.shape[0] == 0:
            # No in-edges anywhere in the block: the update degenerates to bias.
            base = dst_proj if self.concat else dst_proj_heads.mean(axis=1)
            out = base * Tensor(np.zeros((num_nodes, 1))) + self.bias
            return out.relu() if self.activation == "relu" else out

        logits = src_logits + ops.gather_rows(dst_logits, dst_index)  # [M, heads]
        logits = logits.leaky_relu(self.negative_slope)
        attention = ops.segment_softmax(logits, dst_index, num_nodes)  # [M, heads]

        src_heads = src_features.reshape(message.shape[0], self.heads, self.out_dim)
        weighted = src_heads * attention.reshape(message.shape[0], self.heads, 1)
        pooled = ops.segment_sum(weighted, dst_index, num_nodes)  # [N, heads, out]

        if self.concat:
            out = pooled.reshape(num_nodes, self.heads * self.out_dim) + self.bias
        else:
            out = pooled.mean(axis=1) + self.bias
        if self.activation == "relu":
            out = out.relu()
        return out

    @apply_edge_stage
    def apply_edge(self, message: Tensor, edge_state: Optional[Tensor]) -> Tensor:
        """Build the out-edge message: projected source state + source logits."""
        message = message if isinstance(message, Tensor) else Tensor(message)
        num_rows = message.shape[0]
        projected = self.linear(message)  # [E, heads*out]
        if edge_state is not None and self.edge_linear is not None:
            edge_state = edge_state if isinstance(edge_state, Tensor) else Tensor(edge_state)
            projected = projected + self.edge_linear(edge_state)
        heads_view = projected.reshape(num_rows, self.heads, self.out_dim)
        src_logits = (heads_view * self.attn_src).sum(axis=-1)  # [E, heads]
        return concatenate([projected, src_logits], axis=-1)
