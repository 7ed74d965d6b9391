"""Mini-batch trainer over (sampled) k-hop neighbourhoods.

Reproduces the training half of the paper's collaborative setting: seeds are
the labelled nodes (often ≤1% of the graph), batches of seeds get their k-hop
neighbourhoods extracted (optionally with uniform neighbour sampling for
speed), the model forward/backward runs locally on the subgraph tensors, and
the optimiser updates shared parameters.  The trained model is later exported
via :func:`repro.gnn.signature.export_signature` for full-graph inference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.gnn.model import GNNModel
from repro.graph.graph import Graph
from repro.graph.khop import khop_neighborhood
from repro.graph.sampling import FullNeighborSampler, NeighborSampler, UniformNeighborSampler
from repro.tensor.losses import (
    accuracy,
    binary_cross_entropy_with_logits,
    micro_f1,
    softmax_cross_entropy,
)
from repro.tensor.optim import Adam
from repro.tensor.tensor import Tensor, no_grad


@dataclass
class TrainConfig:
    """Hyper-parameters of the mini-batch training loop."""

    num_epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 0.01
    weight_decay: float = 0.0
    fanout: Optional[int] = 10          # neighbours sampled per hop; None = full
    multilabel: bool = False
    seed: int = 0


@dataclass
class TrainResult:
    """Outcome of a training run: loss curve and final metrics."""

    losses: List[float] = field(default_factory=list)
    train_metric: float = 0.0
    history: List[Dict[str, float]] = field(default_factory=list)


class Trainer:
    """Mini-batch k-hop trainer for :class:`~repro.gnn.model.GNNModel`."""

    def __init__(self, model: GNNModel, graph: Graph, config: Optional[TrainConfig] = None) -> None:
        self.model = model
        self.graph = graph
        self.config = config or TrainConfig()
        if graph.labels is None:
            raise ValueError("training requires a labelled graph")
        self._rng = np.random.default_rng(self.config.seed)
        self._sampler: NeighborSampler
        if self.config.fanout is None:
            self._sampler = FullNeighborSampler()
        else:
            self._sampler = UniformNeighborSampler(self.config.fanout)
        self._optimizer = Adam(model.parameters(), lr=self.config.learning_rate,
                               weight_decay=self.config.weight_decay)

    # ------------------------------------------------------------------ #
    def _loss_and_metric(self, logits: Tensor, labels: np.ndarray) -> tuple:
        if self.config.multilabel:
            loss = binary_cross_entropy_with_logits(logits, labels)
            metric = micro_f1(logits, labels)
        else:
            loss = softmax_cross_entropy(logits, labels)
            metric = accuracy(logits, labels)
        return loss, metric

    def _forward_batch(self, seeds: np.ndarray, train_mode: bool) -> tuple:
        subgraph = khop_neighborhood(
            self.graph, seeds, self.model.num_layers,
            sampler=self._sampler if train_mode else FullNeighborSampler(),
            rng=self._rng,
        )
        features = Tensor(subgraph.node_features)
        edge_features = None if subgraph.edge_features is None else Tensor(subgraph.edge_features)
        logits = self.model.forward(features, subgraph.src, subgraph.dst,
                                    edge_features=edge_features,
                                    num_nodes=subgraph.num_nodes)
        seed_logits = logits[subgraph.target_positions]
        seed_labels = self.graph.labels[seeds]
        return seed_logits, seed_labels

    # ------------------------------------------------------------------ #
    def fit(self, train_nodes: Sequence[int]) -> TrainResult:
        """Train on the given labelled seed nodes and return the loss history."""
        train_nodes = np.asarray(list(train_nodes), dtype=np.int64)
        result = TrainResult()
        self.model.train()
        for epoch in range(self.config.num_epochs):
            order = self._rng.permutation(train_nodes)
            epoch_losses: List[float] = []
            epoch_metrics: List[float] = []
            for start in range(0, order.size, self.config.batch_size):
                seeds = order[start:start + self.config.batch_size]
                self._optimizer.zero_grad()
                seed_logits, seed_labels = self._forward_batch(seeds, train_mode=True)
                loss, metric = self._loss_and_metric(seed_logits, seed_labels)
                loss.backward()
                self._optimizer.step()
                epoch_losses.append(float(loss.data))
                epoch_metrics.append(metric)
            mean_loss = float(np.mean(epoch_losses)) if epoch_losses else 0.0
            mean_metric = float(np.mean(epoch_metrics)) if epoch_metrics else 0.0
            result.losses.append(mean_loss)
            result.history.append({"epoch": epoch, "loss": mean_loss, "metric": mean_metric})
            result.train_metric = mean_metric
        return result

    def evaluate(self, eval_nodes: Sequence[int], batch_size: Optional[int] = None) -> Dict[str, float]:
        """Evaluate with full (unsampled) k-hop neighbourhoods — deterministic."""
        eval_nodes = np.asarray(list(eval_nodes), dtype=np.int64)
        batch_size = batch_size or self.config.batch_size
        self.model.eval()
        all_logits: List[np.ndarray] = []
        all_labels: List[np.ndarray] = []
        with no_grad():
            for start in range(0, eval_nodes.size, batch_size):
                seeds = eval_nodes[start:start + batch_size]
                seed_logits, seed_labels = self._forward_batch(seeds, train_mode=False)
                all_logits.append(seed_logits.data)
                all_labels.append(np.asarray(seed_labels))
        self.model.train()
        logits = np.concatenate(all_logits, axis=0)
        labels = np.concatenate(all_labels, axis=0)
        if self.config.multilabel:
            return {"micro_f1": micro_f1(logits, labels)}
        return {"accuracy": accuracy(logits, labels)}
