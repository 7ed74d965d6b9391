"""Fig. 12 — output IO per instance for the broadcast strategy at several thresholds.

Hub nodes with huge out-degrees dominate their worker's output bytes.  The
broadcast strategy publishes each hub payload once per destination worker and
sends only id references per edge, so the hub-owning workers' output shrinks
(the paper reports ~42% for the 10% most loaded workers at the heuristic
threshold, with little further gain from lowering the threshold below the
heuristic value).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.datasets.registry import Dataset, load_dataset
from repro.experiments.common import run_inference, untrained_model
from repro.experiments.reporting import format_table
from repro.inference import StrategyConfig
from repro.inference.strategies import hub_threshold


@dataclass
class Fig12Result:
    heuristic_threshold: int
    #: series name ("base" or "threshold=<t>") -> per-instance output bytes
    series: Dict[str, Dict[int, float]] = field(default_factory=dict)

    def tail_reduction(self, name: str, tail_fraction: float = 0.1) -> float:
        base = self.series["base"]
        other = self.series[name]
        ordered = sorted(base, key=base.get, reverse=True)
        tail = ordered[:max(1, int(np.ceil(len(ordered) * tail_fraction)))]
        base_tail = sum(base[i] for i in tail)
        other_tail = sum(other.get(i, 0.0) for i in tail)
        if base_tail == 0:
            return 0.0
        return 1.0 - other_tail / base_tail


def run(dataset: Optional[Dataset] = None, num_nodes: int = 20_000, avg_degree: float = 12.0,
        num_workers: int = 16, hidden_dim: int = 32,
        thresholds: Optional[Sequence[int]] = None, seed: int = 0) -> Fig12Result:
    """Sweep the broadcast hub threshold and record per-instance output bytes."""
    dataset = dataset or load_dataset("powerlaw", num_nodes=num_nodes, avg_degree=avg_degree,
                                      skew="out", seed=seed)
    model = untrained_model(dataset, "sage", hidden_dim=hidden_dim, num_layers=2, seed=seed)
    heuristic = hub_threshold(dataset.graph.num_edges, num_workers)
    if thresholds is None:
        thresholds = sorted({max(heuristic // 8, 1), max(heuristic // 4, 1),
                             max(heuristic // 2, 1), heuristic}, reverse=True)

    result = Fig12Result(heuristic_threshold=heuristic)
    base = run_inference(model, dataset, backend="pregel", num_workers=num_workers,
                         strategies=StrategyConfig(partial_gather=False, broadcast=False))
    result.series["base"] = base.metrics.per_instance("bytes_out")
    for threshold in thresholds:
        inference = run_inference(
            model, dataset, backend="pregel", num_workers=num_workers,
            strategies=StrategyConfig(partial_gather=False, broadcast=True,
                                      hub_threshold_override=int(threshold)))
        result.series[f"threshold={int(threshold)}"] = inference.metrics.per_instance("bytes_out")
    return result


def format_result(result: Fig12Result) -> str:
    names = list(result.series)
    headers = ["instance"] + [f"{name} out bytes" for name in names]
    instances = sorted(result.series["base"])
    rows = [[instance] + [result.series[name].get(instance, 0.0) for name in names]
            for instance in instances]
    table = format_table(headers, rows, title="Fig. 12 — output IO per instance (broadcast)")
    extras = [f"heuristic threshold = {result.heuristic_threshold}"]
    for name in names:
        if name != "base":
            extras.append(f"{name}: tail IO reduced by {100 * result.tail_reduction(name):.1f}%")
    return table + "\n" + "\n".join(extras)
