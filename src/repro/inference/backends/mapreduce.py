"""The MapReduce batch-processing backend.

Planning and the delta patch are the Pregel backend's: the same
:class:`~repro.pregel.engine.PregelEngine` partitions, patched in place by
the same ``apply_delta``.  Execution drives the Pregel partition program as
one map/reduce round per layer
(:func:`~repro.inference.mapreduce_adaptor.run_rounds`) through one session
of the engine's executor, priced as shuffled records and storage IO.  Like
the paper's batch path it keeps no results between runs: an incremental
request runs the full rounds, which read the patched partitions — so it is
bit-identical to a fresh ``prepare()+infer()``.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.cluster.metrics import MetricsCollector
from repro.cluster.resources import ClusterSpec
from repro.gnn.model import GNNModel
from repro.graph.graph import Graph
from repro.inference.backends.base import ExecutionPlan
from repro.inference.backends.pregel import PregelBackend
from repro.inference.config import InferenceConfig
from repro.inference.mapreduce_adaptor import run_rounds
from repro.inference.pregel_adaptor import GNNInferenceProgram


class MapReduceBackend(PregelBackend):
    """Storage-resident batch backend (one map/reduce round per layer)."""

    name = "mapreduce"

    def default_cluster(self, num_workers: int) -> ClusterSpec:
        return ClusterSpec.mapreduce_default(num_workers)

    def plan(self, model: GNNModel, graph: Graph,
             config: InferenceConfig) -> ExecutionPlan:
        plan = super().plan(model, graph, config)
        plan.num_supersteps = model.num_layers
        return plan

    def execute(self, plan: ExecutionPlan,
                metrics: MetricsCollector) -> Dict[str, np.ndarray]:
        program = GNNInferenceProgram(plan.model, plan.strategy_plan, plan.replicas,
                                      num_outputs=plan.original_num_nodes)
        return run_rounds(plan.state["engine"], program, metrics)

    def execute_incremental(self, plan: ExecutionPlan, metrics: MetricsCollector,
                            feature_dirty: np.ndarray,
                            topo_dirty: np.ndarray) -> Optional[Dict[str, np.ndarray]]:
        """Nothing is kept to splice into: the session runs the full rounds."""
        return None
