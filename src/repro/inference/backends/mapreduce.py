"""The MapReduce batch-processing backend as a registry plugin.

Planning resolves strategies, the shadow rewrite and the layout — nothing
else: the backend keeps no copy of the node table.  Every execution cuts the
first round's input rows fresh from the working graph's own arrays
(:func:`~repro.inference.mapreduce_adaptor.input_rows`) and chains one
:class:`~repro.inference.mapreduce_adaptor.GNNRoundJob` per layer through one
session of the plan's executor: the jobs ship once per worker and hold the
replica map, never the working graph.

This backend overrides the delta hooks of
:class:`~repro.inference.backends.base.Backend`: ``apply_delta`` is
:func:`~repro.inference.backends.base.land_gas_delta` alone (the graph *is*
the input, so landing the delta patches it), and ``execute_incremental``
replays only the delta's dependency closure, splicing the recomputed scores
into the matrix cached by the last full run (see
:mod:`repro.inference.mapreduce_adaptor` for the closure construction and the
tolerance-identity caveat).  Edge deltas re-plan only when the hub set or a
hub's mirror-group count changes.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.batch.mapreduce import MapReduceEngine
from repro.cluster.executor import Executor, build_executor
from repro.cluster.metrics import MetricsCollector
from repro.cluster.resources import ClusterSpec
from repro.gnn.model import GNNModel
from repro.graph.graph import Graph
from repro.inference.config import InferenceConfig
from repro.inference.delta import DeltaOutcome, GraphDelta, expand_frontier
from repro.inference.backends.base import (
    Backend,
    ExecutionPlan,
    land_gas_delta,
    plan_gas_execution,
    register_backend,
)
from repro.inference.mapreduce_adaptor import (
    GNNRoundJob,
    Records,
    StateBlock,
    dependency_closure,
    input_rows,
)


@register_backend("mapreduce")
class MapReduceBackend(Backend):
    """Storage-resident batch backend (one map/reduce round per layer)."""

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

    def _run_rounds(self, plan: ExecutionPlan, metrics: MetricsCollector,
                    rows: StateBlock, phase: str, scores: np.ndarray,
                    targets: Optional[Sequence[np.ndarray]] = None) -> np.ndarray:
        """Chain one :class:`GNNRoundJob` per layer; write outputs into ``scores``."""
        assert plan.layout is not None      # set by plan_gas_execution
        plan.model.eval()
        rounds = [(f"{phase}_{layer_index}",
                   GNNRoundJob(plan.model, plan.strategy_plan, plan.replicas, layer_index,
                               plan.original_num_nodes, plan.layout, targets=targets))
                  for layer_index in range(plan.model.num_layers)]
        engine = MapReduceEngine(metrics, self._plan_executor(plan))
        for item in engine.run(rounds, [Records(rows)]):
            scores[item.block.dst_ids] = item.block.payload
        return scores

    def execute(self, plan: ExecutionPlan,
                metrics: MetricsCollector) -> Dict[str, np.ndarray]:
        scores = self._run_rounds(
            plan, metrics, input_rows(plan.model, plan.working_graph), "round",
            np.zeros((plan.original_num_nodes, plan.model.output_dim)))
        # Lazy incremental cache: the score matrix only stays resident once
        # the session has seen a delta (mirrors the pregel state cache — the
        # first post-delta incremental request falls back to this full run,
        # which primes it).
        if plan.delta_seen:
            plan.state["scores"] = scores.copy()
        else:
            plan.state.pop("scores", None)
        return {"scores": scores}

    def execute_incremental(self, plan: ExecutionPlan, metrics: MetricsCollector,
                            feature_dirty: np.ndarray,
                            topo_dirty: np.ndarray) -> Optional[Dict[str, np.ndarray]]:
        """Replay the dirty closure against cached scores, or None to go full.

        Requires a warm score cache (one full run after the first delta);
        anything else falls back to ``execute``.  ``topo_dirty`` carries the
        destinations whose in-edge set an edge delta changed; they join the
        frontier at the first gather exactly as in
        :func:`~repro.inference.delta.expand_frontier` — the cached rows
        outside the delta's reach stay exact, so splicing the replay's output
        rows into a copy of the cache remains valid after an in-place edge
        delta.  Agreement with a full recompute is tolerance-level (~1e-15),
        not bit-exact; see :mod:`repro.inference.mapreduce_adaptor`.
        """
        cached_scores = plan.state.get("scores")
        if cached_scores is None:
            return None
        scores = cached_scores.copy()
        frontiers = expand_frontier(plan.working_graph, feature_dirty, topo_dirty,
                                    plan.model.num_layers + 1, plan.shadow_plan)
        if frontiers[-1].size:
            targets, input_closure = dependency_closure(
                plan.working_graph, frontiers, plan.shadow_plan)
            rows = input_rows(plan.model, plan.working_graph).take(input_closure)
            self._run_rounds(plan, metrics, rows, "incremental_round", scores,
                             targets=targets)
        plan.state["scores"] = scores.copy()
        return {"scores": scores}

    def apply_delta(self, plan: ExecutionPlan, delta: GraphDelta) -> DeltaOutcome:
        """Land the delta; there is nothing else to patch.

        Feature rows land on the base graph and propagate into shadow-mirror
        copies through the replica CSR; edge deltas splice into the working
        graph with the position-stable mirror assignment.  The next execution
        reads its input rows from those arrays.  Only a hub-set or
        mirror-group-count change
        (:func:`~repro.inference.backends.base.land_gas_delta`) makes the
        session re-plan from the landed delta.
        """
        return land_gas_delta(plan, delta)
