"""Fig. 9 — per-instance latency vs. in-degree skew, with and without partial-gather.

On a graph whose in-degree follows a power law, the worker that owns a large
in-degree hub receives (and reduces) far more messages than its peers, so its
latency sits in the long tail.  Enabling partial-gather pre-aggregates the
hub's messages on every sender, flattening both the message count and the
latency.  The figure plots, per instance, latency against the *original*
number of input records (the count the instance would receive without
partial-gather), for the base and partial-gather runs.
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
class InstanceSeries:
    """Per-instance measurements for one configuration."""

    records_in: Dict[int, float] = field(default_factory=dict)
    bytes_in: Dict[int, float] = field(default_factory=dict)
    seconds: Dict[int, float] = field(default_factory=dict)

    def variance_of_time(self) -> float:
        values = np.fromiter(self.seconds.values(), dtype=np.float64)
        return float(values.var()) if values.size else 0.0

    def max_over_mean_time(self) -> float:
        values = np.fromiter(self.seconds.values(), dtype=np.float64)
        if values.size == 0 or values.mean() == 0:
            return 0.0
        return float(values.max() / values.mean())


@dataclass
class Fig9Result:
    base: InstanceSeries
    partial_gather: InstanceSeries

    def tail_latency_reduction(self) -> float:
        """Relative reduction of the slowest instance's latency."""
        base_max = max(self.base.seconds.values(), default=0.0)
        partial_max = max(self.partial_gather.seconds.values(), default=0.0)
        if base_max == 0:
            return 0.0
        return 1.0 - partial_max / base_max


def measure(dataset: Dataset, strategies: StrategyConfig, num_workers: int,
            hidden_dim: int, seed: int) -> InstanceSeries:
    """Run SAGE inference and collect per-instance counters and latencies."""
    model = untrained_model(dataset, "sage", hidden_dim=hidden_dim, num_layers=2, seed=seed)
    inference = run_inference(model, dataset, backend="pregel", num_workers=num_workers,
                              strategies=strategies)
    return InstanceSeries(
        records_in=inference.metrics.per_instance("records_in"),
        bytes_in=inference.metrics.per_instance("bytes_in"),
        seconds=inference.cost.instance_times(),
    )


def run(dataset: Optional[Dataset] = None, num_nodes: int = 20_000, avg_degree: float = 12.0,
        num_workers: int = 16, hidden_dim: int = 32, seed: int = 0) -> Fig9Result:
    """Compare base vs. partial-gather on an in-degree-skewed power-law graph."""
    dataset = dataset or load_dataset("powerlaw", num_nodes=num_nodes, avg_degree=avg_degree,
                                      skew="in", seed=seed)
    base = measure(dataset, StrategyConfig(partial_gather=False), num_workers, hidden_dim, seed)
    partial = measure(dataset, StrategyConfig(partial_gather=True), num_workers, hidden_dim, seed)
    return Fig9Result(base=base, partial_gather=partial)


def format_result(result: Fig9Result) -> str:
    headers = ["instance", "original input records", "base time (s)", "partial-gather time (s)"]
    rows = []
    for instance in sorted(result.base.seconds):
        rows.append([instance,
                     result.base.records_in.get(instance, 0.0),
                     result.base.seconds.get(instance, 0.0),
                     result.partial_gather.seconds.get(instance, 0.0)])
    table = format_table(headers, rows, title="Fig. 9 — per-instance latency vs. in-edge records")
    return (table
            + f"\nvariance base={result.base.variance_of_time():.3e}"
              f" partial-gather={result.partial_gather.variance_of_time():.3e}"
              f"; straggler latency reduced by {100 * result.tail_latency_reduction():.1f}%")
