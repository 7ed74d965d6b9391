"""The MapReduce batch-processing backend.

Planning resolves strategies, the shadow rewrite and the layout — nothing
else: the backend keeps no copy of the node table.  Every execution cuts the
first round's input rows fresh from the working graph's own arrays
(:func:`~repro.inference.mapreduce_adaptor.input_rows`) — slot ``i`` reads
``layout.nodes_of(i)``, the rows Pregel partition ``i`` owns — and chains one
:class:`~repro.inference.mapreduce_adaptor.GNNRoundJob` per layer through one
session of the plan's executor: the jobs ship once per worker with the
slot's rows and hold the replica map, never the working graph.

This backend overrides no delta hook of
:class:`~repro.inference.backends.base.Backend`: the base ``apply_delta``
lands the delta on the base and working graphs, and the graph *is* the
input, so that is the whole patch.  Edge deltas re-plan only when the hub
set or a hub's mirror-group count changes.  Like the paper's batch path it
keeps no results between runs: an incremental request takes the base
class's default and runs the full ``execute``, whose working graph is
byte-identical to a fresh plan's — so it is bit-identical to a fresh
``prepare()+infer()``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.batch.mapreduce import MapReduceEngine
from repro.cluster.executor import Executor, build_executor
from repro.cluster.metrics import MetricsCollector
from repro.cluster.resources import ClusterSpec
from repro.gnn.model import GNNModel
from repro.graph.graph import Graph
from repro.inference.config import InferenceConfig
from repro.inference.backends.base import (
    Backend,
    ExecutionPlan,
    plan_gas_execution,
)
from repro.inference.mapreduce_adaptor import GNNRoundJob, Records, input_rows


class MapReduceBackend(Backend):
    """Storage-resident batch backend (one map/reduce round per layer)."""

    name = "mapreduce"

    def default_cluster(self, num_workers: int) -> ClusterSpec:
        return ClusterSpec.mapreduce_default(num_workers)

    def plan(self, model: GNNModel, graph: Graph,
             config: InferenceConfig) -> ExecutionPlan:
        plan = plan_gas_execution(self.name, model, graph, config)
        plan.num_supersteps = model.num_layers
        return plan

    def release(self, plan: ExecutionPlan) -> None:
        executor = plan.state.get("executor")
        if executor is not None:
            executor.shutdown()

    def _plan_executor(self, plan: ExecutionPlan) -> Executor:
        """The plan-cached executor every round of every run reuses.

        Built lazily at first execution (a plan that is never executed never
        spawns workers) and kept in ``plan.state`` so the ``"process"``
        substrate pays its worker start-up once per prepared session.
        """
        executor = plan.state.get("executor")
        if executor is None:
            executor = build_executor(plan.config.executor, plan.config.num_workers)
            plan.state["executor"] = executor
        return executor

    def execute(self, plan: ExecutionPlan,
                metrics: MetricsCollector) -> Dict[str, np.ndarray]:
        """Chain one :class:`GNNRoundJob` per layer over each partition's input rows."""
        assert plan.layout is not None      # set by plan_gas_execution
        plan.model.eval()
        rounds = [(f"round_{layer_index}",
                   GNNRoundJob(plan.model, plan.strategy_plan, plan.replicas, layer_index,
                               plan.original_num_nodes, plan.layout))
                  for layer_index in range(plan.model.num_layers)]
        engine = MapReduceEngine(metrics, self._plan_executor(plan))
        rows = input_rows(plan.model, plan.working_graph)
        splits = [[Records(rows.take(plan.layout.nodes_of(slot)))]
                  for slot in range(plan.layout.num_partitions)]
        scores = np.zeros((plan.original_num_nodes, plan.model.output_dim))
        for item in engine.run(rounds, splits):
            scores[item.block.dst_ids] = item.block.payload
        return {"scores": scores}
