"""Shared helpers for the experiment harnesses."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.datasets.registry import Dataset
from repro.gnn.model import GNNModel, build_model
from repro.inference import InferenceConfig, InferenceSession, StrategyConfig
from repro.inference.session import InferenceResult
from repro.training.trainer import TrainConfig, Trainer


def train_model(dataset: Dataset, arch: str, hidden_dim: int = 64, num_layers: int = 2,
                num_epochs: int = 5, fanout: Optional[int] = 10, seed: int = 0,
                learning_rate: float = 0.01) -> Tuple[GNNModel, Trainer]:
    """Train a model on a dataset's training split with small defaults."""
    model = build_model(arch, dataset.feature_dim, hidden_dim, dataset.num_classes,
                        num_layers=num_layers, seed=seed)
    config = TrainConfig(num_epochs=num_epochs, batch_size=64, learning_rate=learning_rate,
                         fanout=fanout, multilabel=dataset.multilabel, seed=seed)
    trainer = Trainer(model, dataset.graph, config)
    trainer.fit(dataset.train_nodes)
    return model, trainer


def untrained_model(dataset: Dataset, arch: str, hidden_dim: int = 64, num_layers: int = 2,
                    seed: int = 0) -> GNNModel:
    """A freshly initialised model (cost experiments do not need training)."""
    return build_model(arch, dataset.feature_dim, hidden_dim, dataset.num_classes,
                       num_layers=num_layers, seed=seed)


def run_inference(model: GNNModel, dataset: Dataset, backend: str = "pregel",
                  num_workers: int = 8,
                  strategies: Optional[StrategyConfig] = None) -> InferenceResult:
    """One-shot inference through a session on ``"pregel"`` or ``"mapreduce"``.

    The k-hop baseline is not a backend: experiments run it through
    :class:`~repro.baselines.khop_pipeline.TraditionalPipeline`.
    """
    config = InferenceConfig(backend=backend, num_workers=num_workers,
                             strategies=strategies or StrategyConfig())
    session = InferenceSession(model, config)
    session.prepare(dataset.graph)
    return session.infer()


def evaluate_scores(dataset: Dataset, scores: np.ndarray, nodes: np.ndarray) -> float:
    """Task-appropriate metric (accuracy or micro-F1) on the given node split."""
    from repro.tensor.losses import accuracy, micro_f1

    labels = dataset.graph.labels[nodes]
    if dataset.multilabel:
        return micro_f1(scores[nodes], labels)
    return accuracy(scores[nodes], labels)
