"""Multi-layer GNN model: encoder → stacked GAS layers → prediction head.

``GNNModel`` is the object both phases share.  During training its
:meth:`forward` runs all layers over a local (k-hop) subgraph; for inference
the backend adaptors walk the ``layers`` list and call individual stages,
using :meth:`encode` in the initial superstep and :meth:`predict` after the
last ``apply_node``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.gnn.gasconv import GASConv
from repro.gnn.gat import GATConv
from repro.gnn.gcn import GCNConv
from repro.gnn.sage import SAGEConv
from repro.tensor.nn import Linear, Module
from repro.tensor.tensor import Tensor


class GNNModel(Module):
    """A k-layer GNN with a feature encoder and a prediction head.

    Parameters
    ----------
    encoder:
        Linear projection of raw node features into the first layer's input
        width (applied once, in the initial superstep during inference).
    layers:
        GAS layers; layer i+1's ``in_dim`` must equal layer i's output width.
    head:
        Prediction head mapping the last layer's output to class logits; pass
        ``None`` to make the model emit embeddings instead of scores.
    """

    def __init__(self, encoder: Linear, layers: Sequence[GASConv],
                 head: Optional[Linear]) -> None:
        super().__init__()
        if not layers:
            raise ValueError("GNNModel requires at least one layer")
        expected = encoder.out_features
        for position, layer in enumerate(layers):
            if layer.in_dim != expected:
                raise ValueError(
                    f"layer {position} expects in_dim={layer.in_dim} but receives {expected}"
                )
            expected = layer.output_dim
        if head is not None and head.in_features != expected:
            raise ValueError(
                f"prediction head expects in_features={head.in_features} but receives {expected}"
            )
        self.encoder = encoder
        self.layers = list(layers)
        self.head = head

    # ------------------------------------------------------------------ #
    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def output_dim(self) -> int:
        if self.head is not None:
            return self.head.out_features
        return self.layers[-1].output_dim

    def encode(self, features: Tensor) -> Tensor:
        """Initial-superstep transform: raw features → layer-0 input state."""
        features = features if isinstance(features, Tensor) else Tensor(features)
        return self.encoder(features).relu()

    def predict(self, node_state: Tensor) -> Tensor:
        """Final-superstep transform: last layer's state → logits (or identity)."""
        if self.head is None:
            return node_state
        return self.head(node_state)

    # ------------------------------------------------------------------ #
    def forward(
        self,
        features: Tensor,
        src_index: np.ndarray,
        dst_index: np.ndarray,
        edge_features: Optional[Tensor] = None,
        num_nodes: Optional[int] = None,
    ) -> Tensor:
        """Full local forward pass over a subgraph (training / baseline path)."""
        state = self.encode(features)
        if num_nodes is None:
            num_nodes = state.shape[0]
        for layer in self.layers:
            state = layer.forward(state, src_index, dst_index,
                                  edge_state=edge_features, num_nodes=num_nodes)
        return self.predict(state)


_LAYER_REGISTRY = {
    "SAGEConv": SAGEConv,
    "GATConv": GATConv,
    "GCNConv": GCNConv,
}


def build_model(
    arch: str,
    feature_dim: int,
    hidden_dim: int,
    num_classes: int,
    num_layers: int = 2,
    heads: int = 4,
    aggregator: str = "mean",
    edge_dim: int = 0,
    seed: int = 0,
) -> GNNModel:
    """Construct a standard k-layer model of the given architecture.

    ``arch`` is one of ``"sage"``, ``"gat"``, ``"gcn"``.  Hidden layers use the
    architecture's default non-linearity; the last layer keeps a linear output
    feeding the prediction head, matching the OGB example configurations the
    paper follows.
    """
    arch = arch.lower()
    rng = np.random.default_rng(seed)
    encoder = Linear(feature_dim, hidden_dim, rng=rng)
    layers: List[GASConv] = []
    in_dim = hidden_dim
    for index in range(num_layers):
        last = index == num_layers - 1
        layer_seed = seed + index + 1
        if arch == "sage":
            layer = SAGEConv(in_dim, hidden_dim, aggregator=aggregator, edge_dim=edge_dim,
                             activation="none" if last else "relu", seed=layer_seed)
            in_dim = hidden_dim
        elif arch == "gat":
            layer = GATConv(in_dim, hidden_dim // heads if hidden_dim % heads == 0 else hidden_dim,
                            heads=heads, concat=not last, edge_dim=edge_dim,
                            activation="none" if last else "relu", seed=layer_seed)
            in_dim = layer.output_dim
        elif arch == "gcn":
            layer = GCNConv(in_dim, hidden_dim, edge_dim=edge_dim,
                            activation="none" if last else "relu", seed=layer_seed)
            in_dim = hidden_dim
        else:
            raise ValueError(f"unknown architecture {arch!r}")
        layers.append(layer)
    head = Linear(in_dim, num_classes, rng=rng)
    return GNNModel(encoder, layers, head)


def layer_class(name: str):
    """Look up a GAS layer class by name (used when loading signatures)."""
    if name not in _LAYER_REGISTRY:
        raise KeyError(f"unknown layer class {name!r}")
    return _LAYER_REGISTRY[name]
