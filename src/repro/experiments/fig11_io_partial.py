"""Fig. 11 — input IO per instance with and without partial-gather.

Partial-gather caps the number of messages a node can receive at one per
sending worker, so an instance's input bytes stop growing with its nodes'
in-degrees and drop to a roughly constant level.  The paper reports a ~25%
reduction of total communication and up to ~73% for the 10% most loaded
(tail) workers.
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
class Fig11Result:
    base_bytes_in: Dict[int, float] = field(default_factory=dict)
    partial_bytes_in: Dict[int, float] = field(default_factory=dict)
    base_records_in: Dict[int, float] = field(default_factory=dict)

    def total_reduction(self) -> float:
        base_total = sum(self.base_bytes_in.values())
        partial_total = sum(self.partial_bytes_in.values())
        if base_total == 0:
            return 0.0
        return 1.0 - partial_total / base_total

    def tail_reduction(self, tail_fraction: float = 0.1) -> float:
        """IO reduction for the most-loaded ``tail_fraction`` of instances."""
        if not self.base_bytes_in:
            return 0.0
        ordered = sorted(self.base_bytes_in, key=self.base_bytes_in.get, reverse=True)
        tail = ordered[:max(1, int(np.ceil(len(ordered) * tail_fraction)))]
        base_tail = sum(self.base_bytes_in[i] for i in tail)
        partial_tail = sum(self.partial_bytes_in.get(i, 0.0) for i in tail)
        if base_tail == 0:
            return 0.0
        return 1.0 - partial_tail / base_tail


def run(dataset: Optional[Dataset] = None, num_nodes: int = 20_000, avg_degree: float = 12.0,
        num_workers: int = 16, hidden_dim: int = 32, seed: int = 0) -> Fig11Result:
    """Measure per-instance input bytes for base vs. partial-gather."""
    dataset = dataset or load_dataset("powerlaw", num_nodes=num_nodes, avg_degree=avg_degree,
                                      skew="in", seed=seed)
    model = untrained_model(dataset, "sage", hidden_dim=hidden_dim, num_layers=2, seed=seed)

    base = run_inference(model, dataset, backend="pregel", num_workers=num_workers,
                         strategies=StrategyConfig(partial_gather=False))
    partial = run_inference(model, dataset, backend="pregel", num_workers=num_workers,
                            strategies=StrategyConfig(partial_gather=True))
    return Fig11Result(
        base_bytes_in=base.metrics.per_instance("bytes_in"),
        partial_bytes_in=partial.metrics.per_instance("bytes_in"),
        base_records_in=base.metrics.per_instance("records_in"),
    )


def format_result(result: Fig11Result) -> str:
    headers = ["instance", "original input records", "base input bytes", "partial-gather input bytes"]
    rows = [[instance,
             result.base_records_in.get(instance, 0.0),
             result.base_bytes_in.get(instance, 0.0),
             result.partial_bytes_in.get(instance, 0.0)]
            for instance in sorted(result.base_bytes_in)]
    table = format_table(headers, rows, title="Fig. 11 — input IO per instance (partial-gather)")
    return (table + f"\ntotal IO reduced by {100 * result.total_reduction():.1f}%, "
                    f"tail (10% most loaded) reduced by {100 * result.tail_reduction():.1f}%")
