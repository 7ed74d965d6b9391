"""Quickstart: train GraphSAGE mini-batch, then serve full-graph inference.

This walks the paper's end-to-end pipeline at laptop scale:

1. load a dataset (an OGB-Products-like synthetic stand-in);
2. train a 2-layer GraphSAGE model on the labelled ~10% of nodes using k-hop
   neighbourhood sampling (the traditional mini-batch training phase);
3. export the trained model to a layer-wise signature (the deployment artefact);
4. open an :class:`InferenceSession` on the Pregel backend, ``prepare()`` the
   graph once (strategy plan + shadow rewrite + partition layout), then
   ``infer()`` repeatedly against the cached plan — every node gets a
   prediction, no sampling, bit-identical results at every run;
5. report accuracy and the simulated cluster cost of the run
   (``InferenceResult.cost``).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from example_utils import scaled
from repro.datasets import load_dataset
from repro.experiments.common import evaluate_scores
from repro.gnn import build_model, export_signature
from repro.inference import (InferenceConfig, InferenceSession, StrategyConfig,
                             available_backends)
from repro.training import TrainConfig, Trainer


def main() -> None:
    # 1. Dataset --------------------------------------------------------- #
    dataset = load_dataset("products", size="small", seed=0)
    graph = dataset.graph
    print(f"dataset: {dataset.name}  nodes={graph.num_nodes}  edges={graph.num_edges}  "
          f"features={dataset.feature_dim}  classes={dataset.num_classes}")

    # 2. Mini-batch training over sampled k-hop neighbourhoods ----------- #
    model = build_model("sage", dataset.feature_dim, hidden_dim=64,
                        num_classes=dataset.num_classes, num_layers=2, seed=0)
    trainer = Trainer(model, graph, TrainConfig(num_epochs=scaled(6), batch_size=64,
                                                fanout=10, seed=0))
    history = trainer.fit(dataset.train_nodes)
    print(f"training: final loss {history.losses[-1]:.3f}  "
          f"train metric {history.train_metric:.3f}")

    # 3. Export the trained model as a signature ------------------------- #
    signature = export_signature(model)
    print(f"signature: {len(signature.layers)} layers, "
          f"partial-gather legal = {[l.supports_partial_gather for l in signature.layers]}")

    # 4. Open a session: plan once, infer many --------------------------- #
    print(f"backends: {sorted(available_backends())}")
    config = InferenceConfig(backend="pregel", num_workers=8,
                             strategies=StrategyConfig(partial_gather=True))
    session = InferenceSession(signature, config)
    plan = session.prepare(graph)        # strategy plan + shadow rewrite + partition layout
    print(f"plan: {plan.describe()}")
    result = session.infer()             # executes against the cached plan

    # 5. Report ----------------------------------------------------------- #
    test_accuracy = evaluate_scores(dataset, result.scores, dataset.test_nodes)
    print(f"full-graph inference: test accuracy {test_accuracy:.3f} over "
          f"{graph.num_nodes} nodes in {result.num_supersteps} supersteps")
    print(f"simulated cost: wall-clock {result.cost.wall_clock_seconds:.3f}s, "
          f"{result.cost.cpu_minutes:.4f} cpu*min, "
          f"{result.cost.total_bytes / 1e6:.1f} MB moved")

    # Determinism check: repeated executions reuse the plan and are
    # bit-identical (the paper's consistency property).
    again = session.infer()
    assert np.array_equal(result.scores, again.scores)
    assert session.plan is plan          # no re-planning happened
    print("consistency: repeated run produced identical scores ✓")


if __name__ == "__main__":
    main()
