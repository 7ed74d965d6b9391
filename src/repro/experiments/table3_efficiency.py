"""Table III — time and resource cost: traditional pipelines vs. InferTurbo.

The paper reports, for SAGE and GAT on MAG240M, wall-clock minutes and cpu*min
for PyG, DGL, InferTurbo-on-MapReduce and InferTurbo-on-Pregel, finding a
30–50× speed-up and 40–50× resource saving.  Here both pipelines run over the
same synthetic MAG240M stand-in and the same analytic cost model, so the
absolute numbers are meaningless but the *ratios* are the reproduced result.

The "PyG" and "DGL" columns of the paper are two implementations of the same
traditional k-hop pipeline; this reproduction has one implementation, so the
two columns are produced with the two batch sizes the OGB examples of those
frameworks use (which is also roughly why the paper's two columns differ).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.baselines.khop_pipeline import TraditionalConfig, TraditionalPipeline
from repro.datasets.registry import Dataset, load_dataset
from repro.experiments.common import run_inference, untrained_model
from repro.experiments.reporting import format_table
from repro.inference import StrategyConfig


@dataclass
class Table3Row:
    arch: str
    pipeline: str
    wall_clock_minutes: float
    cpu_minutes: float


@dataclass
class Table3Result:
    rows: List[Table3Row] = field(default_factory=list)

    def by(self, arch: str, pipeline: str) -> Table3Row:
        for row in self.rows:
            if row.arch == arch and row.pipeline == pipeline:
                return row
        raise KeyError((arch, pipeline))

    def speedup(self, arch: str, ours: str = "pregel", baseline: str = "pyg_like") -> float:
        """Wall-clock speed-up of an InferTurbo backend over a baseline column."""
        return self.by(arch, baseline).wall_clock_minutes / max(
            self.by(arch, ours).wall_clock_minutes, 1e-12)

    def resource_saving(self, arch: str, ours: str = "pregel", baseline: str = "pyg_like") -> float:
        return self.by(arch, baseline).cpu_minutes / max(self.by(arch, ours).cpu_minutes, 1e-12)


def run(dataset: Optional[Dataset] = None, archs: Optional[Sequence[str]] = None,
        num_workers: int = 32, traditional_num_workers: Optional[int] = None,
        hidden_dim: int = 64, num_layers: int = 2,
        fanout: Optional[int] = None, cost_sample_size: int = 128,
        size: str = "small", seed: int = 0) -> Table3Result:
    """Price full-graph inference on all four pipeline columns.

    ``fanout=None`` gives the traditional pipeline its best case (the paper's
    PyG/DGL runs use the OGB example configurations over full neighbourhoods
    for MAG240M's 2-layer models); the redundancy of overlapping k-hop
    neighbourhoods is what drives the gap regardless.

    Following the paper's fairness note ("the total CPU cores of inference
    workers are equal to our system"), the traditional pipeline gets
    ``num_workers * 2 / 10`` of its 10-core workers by default so total cores
    match InferTurbo's 2-core instances.
    """
    dataset = dataset or load_dataset("mag240m", size=size, seed=seed)
    archs = list(archs) if archs is not None else ["sage", "gat"]
    if traditional_num_workers is None:
        traditional_num_workers = max(1, (num_workers * 2) // 10)
    result = Table3Result()

    for arch in archs:
        model = untrained_model(dataset, arch, hidden_dim=hidden_dim, num_layers=num_layers,
                                seed=seed)

        # Traditional pipeline, two "framework" flavours differing in batch size.
        for pipeline_name, batch_size in (("pyg_like", 64), ("dgl_like", 128)):
            config = TraditionalConfig(num_workers=traditional_num_workers, batch_size=batch_size,
                                       fanout=fanout, seed=seed)
            baseline = TraditionalPipeline(model, config)
            estimate = baseline.estimate_costs(dataset.graph, sample_size=cost_sample_size,
                                               seed=seed)
            result.rows.append(Table3Row(
                arch=arch, pipeline=pipeline_name,
                wall_clock_minutes=estimate.cost.wall_clock_minutes,
                cpu_minutes=estimate.cost.cpu_minutes,
            ))

        # InferTurbo on both backends (partial-gather on, hub strategies default).
        for backend in ("mapreduce", "pregel"):
            inference = run_inference(model, dataset, backend=backend, num_workers=num_workers,
                                      strategies=StrategyConfig(partial_gather=True))
            result.rows.append(Table3Row(
                arch=arch, pipeline=backend,
                wall_clock_minutes=inference.cost.wall_clock_minutes,
                cpu_minutes=inference.cost.cpu_minutes,
            ))
    return result


def format_result(result: Table3Result) -> str:
    headers = ["arch", "pipeline", "time (simulated min)", "resource (simulated cpu*min)"]
    rows = [[row.arch, row.pipeline, row.wall_clock_minutes, row.cpu_minutes]
            for row in result.rows]
    return format_table(headers, rows,
                        title="Table III — time and resource usage on different systems")
