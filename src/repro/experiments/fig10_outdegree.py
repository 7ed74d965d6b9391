"""Fig. 10 — variance of per-instance time for the large out-degree strategies.

On a graph whose out-degree follows a power law, the worker owning a hub must
build and send one message per out-edge, so its send time dominates.  The
paper compares Base, Shadow-Nodes (SN), Broadcast (BC) and SN+BC and reports
the variance of per-instance time: both strategies shrink it, BC slightly more
than SN (which pays the duplicated in-edge overhead), and SN+BC is best for
GraphSAGE because its messages are identical across out-edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.datasets.registry import Dataset, load_dataset
from repro.experiments.common import run_inference, untrained_model
from repro.experiments.reporting import format_table
from repro.inference import StrategyConfig


@dataclass
class Fig10Result:
    #: configuration name -> per-instance busy seconds
    instance_times: Dict[str, Dict[int, float]] = field(default_factory=dict)

    def variance(self, name: str) -> float:
        values = np.fromiter(self.instance_times[name].values(), dtype=np.float64)
        return float(values.var()) if values.size else 0.0

    def variances(self) -> Dict[str, float]:
        return {name: self.variance(name) for name in self.instance_times}


STRATEGY_CONFIGS = {
    "base": StrategyConfig(partial_gather=False, broadcast=False, shadow_nodes=False),
    "SN": StrategyConfig(partial_gather=False, broadcast=False, shadow_nodes=True),
    "BC": StrategyConfig(partial_gather=False, broadcast=True, shadow_nodes=False),
    "SN+BC": StrategyConfig(partial_gather=False, broadcast=True, shadow_nodes=True),
}


def run(dataset: Optional[Dataset] = None, num_nodes: int = 20_000, avg_degree: float = 12.0,
        num_workers: int = 16, hidden_dim: int = 32, hub_threshold: Optional[int] = None,
        seed: int = 0) -> Fig10Result:
    """Measure per-instance time variance for each strategy combination."""
    dataset = dataset or load_dataset("powerlaw", num_nodes=num_nodes, avg_degree=avg_degree,
                                      skew="out", seed=seed)
    model = untrained_model(dataset, "sage", hidden_dim=hidden_dim, num_layers=2, seed=seed)
    result = Fig10Result()
    for name, base_config in STRATEGY_CONFIGS.items():
        strategies = StrategyConfig(
            partial_gather=base_config.partial_gather,
            broadcast=base_config.broadcast,
            shadow_nodes=base_config.shadow_nodes,
            hub_threshold_override=hub_threshold,
        )
        inference = run_inference(model, dataset, backend="pregel", num_workers=num_workers,
                                  strategies=strategies)
        result.instance_times[name] = inference.cost.instance_times()
    return result


def format_result(result: Fig10Result) -> str:
    headers = ["strategy", "variance of per-instance time"]
    rows = [[name, variance] for name, variance in result.variances().items()]
    return format_table(headers, rows,
                        title="Fig. 10 — time variance for large out-degree strategies")
