"""Fig. 7 — prediction consistency under neighbour sampling.

The traditional pipeline with a sampling fanout produces different predictions
at different runs; the paper counts, over 10 runs, how many distinct classes
each node was assigned and histograms that count for fanouts 10/50/100/1000
(~30% of nodes flip at fanout 10, ~0.1% still flip at 1000).  InferTurbo
performs full-graph inference without sampling, so its predictions are
identical at every run.

The stand-in graph is far denser-relative-to-fanout than MAG240M, so the
fanout values are scaled down (defaults 2/5/10/25); the reproduced shape is
"smaller fanout → more nodes with ≥2 distinct classes; InferTurbo → every node
has exactly 1".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.khop_pipeline import TraditionalConfig, TraditionalPipeline
from repro.datasets.registry import Dataset, load_dataset
from repro.experiments.common import run_inference, train_model
from repro.experiments.reporting import format_table


@dataclass
class ConsistencyResult:
    """Histogram of #distinct predicted classes per node, per fanout."""

    fanouts: List[int]
    num_runs: int
    #: fanout -> {num_distinct_classes: num_nodes}
    histograms: Dict[int, Dict[int, int]] = field(default_factory=dict)
    inferturbo_distinct_classes: Dict[int, int] = field(default_factory=dict)

    def unstable_fraction(self, fanout: int) -> float:
        """Fraction of nodes predicted into ≥2 classes across runs."""
        histogram = self.histograms[fanout]
        total = sum(histogram.values())
        unstable = sum(count for classes, count in histogram.items() if classes >= 2)
        return unstable / max(total, 1)

    def inferturbo_unstable_fraction(self) -> float:
        total = sum(self.inferturbo_distinct_classes.values())
        unstable = sum(count for classes, count in self.inferturbo_distinct_classes.items()
                       if classes >= 2)
        return unstable / max(total, 1)


def _distinct_class_histogram(predictions: np.ndarray) -> Dict[int, int]:
    """predictions: [num_runs, num_nodes] argmax classes → histogram dict."""
    histogram: Dict[int, int] = {}
    for node in range(predictions.shape[1]):
        distinct = int(np.unique(predictions[:, node]).size)
        histogram[distinct] = histogram.get(distinct, 0) + 1
    return histogram


def run(dataset: Optional[Dataset] = None, fanouts: Sequence[int] = (2, 5, 10, 25),
        num_runs: int = 10, num_targets: int = 256, num_workers: int = 4,
        num_epochs: int = 3, hidden_dim: int = 32, size: str = "tiny",
        seed: int = 0) -> ConsistencyResult:
    """Measure per-node prediction stability for sampled vs. full-graph inference."""
    dataset = dataset or load_dataset("mag240m", size=size, seed=seed)
    model, _ = train_model(dataset, "sage", hidden_dim=hidden_dim, num_epochs=num_epochs,
                           seed=seed)
    rng = np.random.default_rng(seed)
    targets = rng.choice(dataset.graph.num_nodes, size=min(num_targets, dataset.graph.num_nodes),
                         replace=False)

    result = ConsistencyResult(fanouts=list(fanouts), num_runs=num_runs)
    for fanout in fanouts:
        predictions = np.zeros((num_runs, targets.size), dtype=np.int64)
        for run_index in range(num_runs):
            config = TraditionalConfig(num_workers=num_workers, fanout=int(fanout),
                                       seed=seed + run_index)
            pipeline = TraditionalPipeline(model, config)
            outcome = pipeline.run(dataset.graph, targets=targets, seed=seed + run_index)
            predictions[run_index] = outcome.scores[targets].argmax(axis=-1)
        result.histograms[int(fanout)] = _distinct_class_histogram(predictions)

    # InferTurbo: two runs are enough to demonstrate bit-identical output, but
    # use the same run count for a like-for-like histogram.
    inferturbo_predictions = np.zeros((num_runs, targets.size), dtype=np.int64)
    for run_index in range(num_runs):
        inference = run_inference(model, dataset, backend="pregel", num_workers=num_workers)
        inferturbo_predictions[run_index] = inference.scores[targets].argmax(axis=-1)
    result.inferturbo_distinct_classes = _distinct_class_histogram(inferturbo_predictions)
    return result


def format_result(result: ConsistencyResult) -> str:
    max_classes = max([max(h) for h in result.histograms.values()]
                      + [max(result.inferturbo_distinct_classes, default=1)])
    headers = ["pipeline"] + [f"{c} classes" for c in range(1, max_classes + 1)] + ["unstable %"]
    rows = []
    for fanout in result.fanouts:
        histogram = result.histograms[fanout]
        rows.append([f"sampling fanout={fanout}"]
                    + [histogram.get(c, 0) for c in range(1, max_classes + 1)]
                    + [100.0 * result.unstable_fraction(fanout)])
    rows.append(["InferTurbo (full graph)"]
                + [result.inferturbo_distinct_classes.get(c, 0) for c in range(1, max_classes + 1)]
                + [100.0 * result.inferturbo_unstable_fraction()])
    return format_table(headers, rows,
                        title=f"Fig. 7 — #classes predicted per node over {result.num_runs} runs")
