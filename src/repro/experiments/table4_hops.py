"""Table IV — time / resource vs. number of GNN layers (hops).

The paper varies the hop count (1, 2, 3) and compares the traditional pipeline
with neighbour sampling limits of 50 and 10 000 against InferTurbo: the
traditional costs grow exponentially with hops (and nbr10000 runs out of
memory at 3 hops), while InferTurbo grows linearly because every node is
computed exactly once per layer.

The OOM column is reproduced through the cost model's memory check: the
traditional worker's memory budget is scaled down in the same proportion as
the graph (the paper's workers hold 10 GB against a 120 M-node graph; the
default budget here is chosen so that the *ratio* of subgraph-to-memory is
comparable), so the nbr-10000 / 3-hop cell trips the OOM detector just as the
paper's run did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.baselines.khop_pipeline import TraditionalConfig, TraditionalPipeline
from repro.cluster.resources import ClusterSpec, WorkerSpec
from repro.datasets.registry import Dataset
from repro.experiments.common import run_inference
from repro.experiments.reporting import format_table
from repro.gnn.model import build_model
from repro.inference import StrategyConfig


@dataclass
class Table4Cell:
    pipeline: str
    hops: int
    wall_clock_minutes: float
    cpu_minutes: float
    oom: bool = False


@dataclass
class Table4Result:
    cells: List[Table4Cell] = field(default_factory=list)

    def by(self, pipeline: str, hops: int) -> Table4Cell:
        for cell in self.cells:
            if cell.pipeline == pipeline and cell.hops == hops:
                return cell
        raise KeyError((pipeline, hops))

    def growth_ratio(self, pipeline: str, from_hops: int = 1, to_hops: int = 2) -> float:
        """Cost growth factor when going from ``from_hops`` to ``to_hops``."""
        return (self.by(pipeline, to_hops).wall_clock_minutes
                / max(self.by(pipeline, from_hops).wall_clock_minutes, 1e-12))


def _default_graph(seed: int) -> Dataset:
    """A sparser MAG240M-like stand-in so 3-hop neighbourhoods don't saturate.

    At laptop scale a dense graph is fully covered by a 2-hop neighbourhood,
    which would hide the exponential growth the paper measures; a lower average
    degree keeps the 1→2→3 hop growth visible.
    """
    from repro.graph.generators import labeled_community_graph
    from repro.datasets.registry import PAPER_STATS

    graph = labeled_community_graph(num_nodes=20_000, num_classes=153, feature_dim=64,
                                    avg_degree=6.0, homophily=0.75, noise=1.5, seed=seed)
    nodes = np.arange(graph.num_nodes)
    return Dataset(name="mag240m_sparse", graph=graph, train_nodes=nodes[:200],
                   val_nodes=nodes[200:400], test_nodes=nodes[400:],
                   paper_stats=PAPER_STATS["mag240m"])


def run(dataset: Optional[Dataset] = None, hops: Sequence[int] = (1, 2, 3),
        small_fanout: int = 5, large_fanout: int = 10_000,
        num_workers: int = 8, hidden_dim: int = 64,
        traditional_memory_bytes: float = 24e6, cost_sample_size: int = 96,
        seed: int = 0) -> Table4Result:
    """Sweep the hop count for nbr-small, nbr-large and InferTurbo.

    ``small_fanout`` plays the paper's nbr50 role scaled to the stand-in
    graph's density; ``large_fanout`` is effectively "no sampling limit", the
    nbr10000 column.  ``traditional_memory_bytes`` is the scaled-down worker
    memory budget used for OOM detection (see module docstring).
    """
    dataset = dataset or _default_graph(seed)
    result = Table4Result()
    cluster = ClusterSpec(num_workers=num_workers,
                          worker=WorkerSpec(cpu_cores=10, memory_bytes=traditional_memory_bytes))

    for num_hops in hops:
        model = build_model("sage", dataset.feature_dim, hidden_dim, dataset.num_classes,
                            num_layers=int(num_hops), seed=seed)

        for pipeline_name, fanout in ((f"nbr{small_fanout}", small_fanout),
                                      (f"nbr{large_fanout}", large_fanout)):
            config = TraditionalConfig(num_workers=num_workers, fanout=fanout, seed=seed,
                                       cluster=cluster)
            baseline = TraditionalPipeline(model, config)
            estimate = baseline.estimate_costs(dataset.graph, sample_size=cost_sample_size,
                                               seed=seed)
            result.cells.append(Table4Cell(
                pipeline=pipeline_name, hops=int(num_hops),
                wall_clock_minutes=estimate.cost.wall_clock_minutes,
                cpu_minutes=estimate.cost.cpu_minutes,
                oom=estimate.cost.oom,
            ))

        inference = run_inference(model, dataset, backend="mapreduce", num_workers=num_workers,
                                  strategies=StrategyConfig(partial_gather=True))
        result.cells.append(Table4Cell(
            pipeline="ours", hops=int(num_hops),
            wall_clock_minutes=inference.cost.wall_clock_minutes,
            cpu_minutes=inference.cost.cpu_minutes,
            oom=inference.cost.oom,
        ))
    return result


def format_result(result: Table4Result) -> str:
    headers = ["pipeline", "hops", "time (simulated min)", "resource (simulated cpu*min)", "OOM"]
    rows = [[cell.pipeline, cell.hops, cell.wall_clock_minutes, cell.cpu_minutes,
             "OOM" if cell.oom else ""] for cell in result.cells]
    return format_table(headers, rows, title="Table IV — time and resource cost vs. hops")
