"""Table II — prediction performance parity.

The paper's claim is not an absolute accuracy number but *parity*: InferTurbo
changes how inference is executed, not the GNN formula, so its metrics match
the traditional pipeline's (PyG / DGL) on every dataset and architecture.  The
harness trains each model once, scores the test split three ways — traditional
pipeline with full neighbourhoods, InferTurbo on Pregel, InferTurbo on
MapReduce — and reports all three, which should agree closely (full-graph
inference is exact, the traditional full-neighbourhood pass is exact too, so
any gap is floating-point noise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.baselines.khop_pipeline import TraditionalConfig, TraditionalPipeline
from repro.datasets.registry import load_dataset
from repro.experiments.common import evaluate_scores, run_inference, train_model
from repro.experiments.reporting import format_table


@dataclass
class Table2Row:
    dataset: str
    arch: str
    traditional_metric: float
    pregel_metric: float
    mapreduce_metric: float


@dataclass
class Table2Result:
    rows: List[Table2Row] = field(default_factory=list)

    def max_gap(self) -> float:
        """Largest absolute metric gap between any pipeline pair."""
        gaps = []
        for row in self.rows:
            values = [row.traditional_metric, row.pregel_metric, row.mapreduce_metric]
            gaps.append(max(values) - min(values))
        return max(gaps) if gaps else 0.0


def run(datasets: Optional[Sequence[str]] = None, archs: Optional[Sequence[str]] = None,
        size: str = "tiny", num_epochs: int = 4, hidden_dim: int = 32,
        num_workers: int = 4, max_eval_nodes: int = 512, seed: int = 0) -> Table2Result:
    """Train and score each (dataset, architecture) pair with all pipelines."""
    datasets = list(datasets) if datasets is not None else ["ppi", "products", "mag240m"]
    archs = list(archs) if archs is not None else ["sage", "gat"]
    result = Table2Result()

    for dataset_name in datasets:
        dataset = load_dataset(dataset_name, size=size, seed=seed)
        eval_nodes = dataset.test_nodes[:max_eval_nodes]
        for arch in archs:
            model, _ = train_model(dataset, arch, hidden_dim=hidden_dim,
                                   num_epochs=num_epochs, seed=seed)

            pipeline = TraditionalPipeline(model, TraditionalConfig(num_workers=num_workers,
                                                                    fanout=None, seed=seed))
            traditional = pipeline.run(dataset.graph, targets=eval_nodes)
            traditional_metric = evaluate_scores(dataset, traditional.scores, eval_nodes)

            pregel = run_inference(model, dataset, backend="pregel", num_workers=num_workers)
            pregel_metric = evaluate_scores(dataset, pregel.scores, eval_nodes)

            mapreduce = run_inference(model, dataset, backend="mapreduce", num_workers=num_workers)
            mapreduce_metric = evaluate_scores(dataset, mapreduce.scores, eval_nodes)

            result.rows.append(Table2Row(
                dataset=dataset_name, arch=arch,
                traditional_metric=traditional_metric,
                pregel_metric=pregel_metric,
                mapreduce_metric=mapreduce_metric,
            ))
    return result


def format_result(result: Table2Result) -> str:
    headers = ["arch", "dataset", "traditional (PyG/DGL-style)", "ours (Pregel)", "ours (MapReduce)"]
    rows = [[row.arch, row.dataset, row.traditional_metric, row.pregel_metric,
             row.mapreduce_metric] for row in result.rows]
    return format_table(headers, rows, title="Table II — prediction performance (metric parity)")
