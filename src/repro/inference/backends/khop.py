"""The traditional k-hop mini-batch pipeline as a first-class backend.

Wrapping :class:`~repro.baselines.khop_pipeline.TraditionalPipeline` as a
backend lets every experiment and table compare all three execution
substrates through one entry point (``InferenceConfig(backend="khop")``)
instead of a separate baseline code path.

The backend always runs with **full** neighbourhoods (no fanout sampling), so
its scores are deterministic and match the full-graph backends exactly — the
redundant-computation cost it pays relative to them is precisely what the
paper's efficiency tables measure.  Hub-node strategies do not apply here; a
strategy plan is still resolved so reports stay uniform across backends.

The ``InferenceConfig.executor`` knob is accepted but does not change how
this backend runs: its "workers" are simulated round-robin batch waves with
no partitioned state to shard, so there is no per-partition compute for a
process executor to host.  Scores are therefore trivially identical under
both executors (the conformance suite checks this along with the sharded
backends).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.baselines.khop_pipeline import TraditionalConfig, TraditionalPipeline
from repro.cluster.metrics import MetricsCollector
from repro.cluster.resources import ClusterSpec
from repro.gnn.model import GNNModel
from repro.graph.graph import Graph
from repro.inference.config import InferenceConfig
from repro.inference.backends.base import Backend, ExecutionPlan
from repro.inference.strategies import build_strategy_plan


class KHopBackend(Backend):
    """Mini-batch k-hop neighbourhood inference (the PyG/DGL-style baseline)."""

    name = "khop"

    def default_cluster(self, num_workers: int) -> ClusterSpec:
        return ClusterSpec.traditional_default(num_workers)

    def plan(self, model: GNNModel, graph: Graph,
             config: InferenceConfig) -> ExecutionPlan:
        strategy_plan = build_strategy_plan(model, graph, config.num_workers,
                                            config.strategies,
                                            graph.edge_features is not None)
        plan = ExecutionPlan(backend=self.name, model=model, graph=graph,
                             config=config, strategy_plan=strategy_plan)
        plan.state["pipeline"] = TraditionalPipeline(model, TraditionalConfig(
            num_workers=config.num_workers, cluster=config.cluster))
        return plan

    def execute(self, plan: ExecutionPlan,
                metrics: MetricsCollector) -> Dict[str, np.ndarray]:
        pipeline: TraditionalPipeline = plan.state["pipeline"]
        # The session prices the shared metrics itself; skip the pipeline's
        # internal cost roll-up.
        outcome = pipeline.run(plan.graph, compute_scores=True, metrics=metrics,
                               compute_cost=False)
        return {"scores": outcome.scores}
