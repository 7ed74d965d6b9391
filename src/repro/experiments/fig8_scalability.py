"""Fig. 8 — resource and time cost vs. data scale (scalability).

The paper runs a 2-layer GAT (embedding 64) over Power-Law graphs spanning
three orders of magnitude (10^8 → 10^10 nodes) on the MapReduce backend and
finds that both wall-clock time and cpu*min grow nearly linearly with the data
scale.  The reproduction sweeps three graph sizes (growth factor configurable)
and fits the log–log slope, which should be ≈ 1 for linear scalability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.datasets.registry import load_dataset
from repro.experiments.common import run_inference, untrained_model
from repro.experiments.reporting import format_table
from repro.inference import StrategyConfig


@dataclass
class ScalePoint:
    num_nodes: int
    num_edges: int
    wall_clock_minutes: float
    cpu_minutes: float


@dataclass
class ScalabilityResult:
    backend: str
    points: List[ScalePoint] = field(default_factory=list)

    def loglog_slope(self, field_name: str = "cpu_minutes") -> float:
        """Slope of log(cost) vs log(num_edges); ≈1 means linear scalability."""
        if len(self.points) < 2:
            return float("nan")
        x = np.log([p.num_edges for p in self.points])
        y = np.log([max(getattr(p, field_name), 1e-12) for p in self.points])
        slope, _ = np.polyfit(x, y, 1)
        return float(slope)


def run(scales: Sequence[int] = (2_000, 8_000, 32_000), avg_degree: float = 10.0,
        backend: str = "mapreduce", num_workers: int = 8, hidden_dim: int = 64,
        heads: int = 4, seed: int = 0) -> ScalabilityResult:
    """Price a 2-layer GAT full-graph inference at increasing graph scales."""
    result = ScalabilityResult(backend=backend)
    for num_nodes in scales:
        dataset = load_dataset("powerlaw", num_nodes=int(num_nodes), avg_degree=avg_degree,
                               skew="both", seed=seed)
        model = untrained_model(dataset, "gat", hidden_dim=hidden_dim, num_layers=2, seed=seed)
        inference = run_inference(model, dataset, backend=backend, num_workers=num_workers,
                                  strategies=StrategyConfig(partial_gather=True))
        result.points.append(ScalePoint(
            num_nodes=dataset.graph.num_nodes,
            num_edges=dataset.graph.num_edges,
            wall_clock_minutes=inference.cost.wall_clock_minutes,
            cpu_minutes=inference.cost.cpu_minutes,
        ))
    return result


def format_result(result: ScalabilityResult) -> str:
    headers = ["#nodes", "#edges", "time (simulated min)", "resource (simulated cpu*min)"]
    rows = [[p.num_nodes, p.num_edges, p.wall_clock_minutes, p.cpu_minutes]
            for p in result.points]
    table = format_table(headers, rows,
                         title=f"Fig. 8 — cost vs. data scale ({result.backend} backend)")
    slope_time = result.loglog_slope("wall_clock_minutes")
    slope_cpu = result.loglog_slope("cpu_minutes")
    return table + f"\nlog-log slope: time={slope_time:.2f}, resource={slope_cpu:.2f} (1.0 = linear)"
