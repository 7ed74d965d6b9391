"""GASConv — the base class every GNN layer implements in this system.

A layer describes its computation flow through three overridable methods
(``gather``, ``apply_node``, ``apply_edge``) plus the built-in, final
``scatter``.  The same object is used in two ways:

* **training** — :meth:`forward` runs the whole layer over a local (k-hop)
  subgraph held in tensors, exactly as the paper's Fig. 3 pseudo-code;
* **inference** — the backend adaptors call the individual stages: messages
  arrive from the data-flow layer (Pregel messages or MapReduce shuffle), are
  vectorised, pushed through ``gather``/``apply_node``, and the new state is
  turned into out-edge messages by ``apply_edge``/``scatter``.

The ``aggregate_kind`` property declares the reduction semantics of the
gather stage (``sum``/``mean``/``max``/``union``); together with the
``partial`` annotation flag it tells the inference engine whether messages may
be pre-aggregated on the sender side (partial-gather) and how partially
aggregated payloads are merged.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.gnn.annotations import collect_annotations, stage_annotation
from repro.tensor import ops
from repro.tensor.nn import Linear, Module
from repro.tensor.tensor import Tensor


class GASConv(Module):
    """Base class for GNN layers in the GAS-like abstraction.

    Subclasses must override :meth:`gather`, :meth:`apply_node` and
    :meth:`apply_edge`, decorating them with
    :func:`~repro.gnn.annotations.gather_stage`,
    :func:`~repro.gnn.annotations.apply_node_stage` and
    :func:`~repro.gnn.annotations.apply_edge_stage` respectively, and declare
    ``in_dim`` / ``out_dim`` / ``message_dim`` so the inference engine can size
    message buffers.
    """

    #: projection of edge features into the message, when the layer has one.
    edge_linear: Optional[Linear] = None

    def __init__(self, in_dim: int, out_dim: int) -> None:
        super().__init__()
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)

    # ------------------------------------------------------------------ #
    # declarative metadata
    # ------------------------------------------------------------------ #
    @property
    def aggregate_kind(self) -> str:
        """Reduction semantics of the gather stage: sum / mean / max / union."""
        raise NotImplementedError

    @property
    def message_dim(self) -> int:
        """Width of the per-edge message produced by :meth:`apply_edge`."""
        return self.out_dim

    @property
    def output_dim(self) -> int:
        """Width of :meth:`apply_node`'s output (head-concatenating layers override)."""
        return self.out_dim

    @property
    def supports_partial_gather(self) -> bool:
        """Whether the gather stage was annotated with ``partial=True``."""
        annotation = stage_annotation(type(self).gather)
        return bool(annotation is not None and annotation.partial)

    def apply_edge_is_identity(self, has_edge_features: bool) -> bool:
        """Whether ``apply_edge`` returns its input rows unchanged.

        A fast path only: when True, a per-edge message is literally the
        source node's state row, so the scatter gathers state rows straight
        into its blocks and skips the per-edge message table.  Layers that
        transform messages (projections, attention logits) return False and
        the scatter runs ``apply_edge`` over the edges it sends — the same
        bits either way.
        """
        return False

    def config(self) -> Dict[str, Any]:
        """Constructor arguments needed to rebuild this layer (for signatures)."""
        return {"in_dim": self.in_dim, "out_dim": self.out_dim}

    def annotations(self) -> Dict[str, Any]:
        """Stage annotations of this layer, serialisable for the signature file."""
        return {name: ann.to_dict() for name, ann in collect_annotations(self).items()}

    # ------------------------------------------------------------------ #
    # the five stages
    # ------------------------------------------------------------------ #
    def gather(self, message: Tensor, dst_index: np.ndarray, num_nodes: int,
               counts: Optional[np.ndarray] = None):
        """Aggregate computation of the Gather stage.

        Parameters
        ----------
        message:
            [M, message_dim] message rows (possibly already partially
            aggregated by the sender-side combiner).
        dst_index:
            [M] local destination index of each message row.
        num_nodes:
            Number of local destination slots.
        counts:
            [M] number of original messages folded into each row; ``None``
            means every row is a single raw message.  Only meaningful for
            layers whose ``aggregate_kind`` needs it (mean).
        """
        raise NotImplementedError

    def apply_node(self, node_state: Tensor, aggr_state) -> Tensor:
        """Apply stage: combine previous node state with the gathered messages."""
        raise NotImplementedError

    def apply_edge(self, message: Tensor, edge_state: Optional[Tensor]) -> Tensor:
        """apply_edge computation of the Scatter stage (per-out-edge message)."""
        raise NotImplementedError

    def scatter(self, node_state: Tensor, src_index: np.ndarray) -> Tensor:
        """Built-in (final) data-flow part of Scatter: read state rows per edge."""
        return ops.gather_rows(node_state, src_index)

    # ------------------------------------------------------------------ #
    # training / local forward
    # ------------------------------------------------------------------ #
    def forward(
        self,
        node_state: Tensor,
        src_index: np.ndarray,
        dst_index: np.ndarray,
        edge_state: Optional[Tensor] = None,
        num_nodes: Optional[int] = None,
    ) -> Tensor:
        """Run the full layer over a local subgraph held in tensors.

        scatter → apply_edge → gather → apply_node, as in the paper's Fig. 3
        pseudo-code: the one path mini-batch training and the traditional
        inference baseline share, and the stages the inference adaptors call
        one by one.
        """
        if num_nodes is None:
            num_nodes = node_state.shape[0]
        message = self.apply_edge(self.scatter(node_state, src_index), edge_state)
        return self.apply_node(node_state, self.gather(message, dst_index, num_nodes))
