"""The MapReduce batch-processing backend as a registry plugin.

Planning ingests the (possibly shadow-expanded) node table into input records
once; every execution replays the cached records through a fresh engine, so
repeated ``infer()`` calls skip the per-node table scan.

This backend overrides the delta hooks of
:class:`~repro.inference.backends.base.Backend`: ``apply_delta``
patches the cached input records in place — feature rows row-wise, edge
deltas by rebuilding only the touched records
(:func:`~repro.inference.mapreduce_adaptor.patch_input_records`, using
the position-stable shadow mirror assignment when mirrors exist) — and
``execute_incremental`` replays only the delta's dependency closure,
splicing the recomputed scores into the matrix cached by the last full run
(see :mod:`repro.inference.mapreduce_adaptor` for the closure construction
and the tolerance-identity caveat).  Edge deltas re-plan only when the hub
set or a hub's mirror-group count changes.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Optional, Sequence

import numpy as np

from repro.batch.mapreduce import MapReduceEngine, Record
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
    _partition_fn,
    build_input_records,
    collect_scores,
    dependency_closure,
    patch_input_records,
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
        plan.state["input_records"] = build_input_records(model, plan.working_graph)
        return plan

    def release(self, plan: ExecutionPlan) -> None:
        executor = plan.state.get("executor")
        if executor is not None:
            executor.shutdown()

    def _plan_executor(self, plan: ExecutionPlan) -> Executor:
        """The plan-cached executor every round of every run reuses.

        Built lazily at first execution (a plan that is never executed never
        spawns workers) and kept in ``plan.state`` so the ``"process"``
        substrate pays its worker start-up once per prepared session, not
        once per round.
        """
        executor = plan.state.get("executor")
        if executor is None:
            executor = build_executor(plan.config.executor, plan.config.num_workers)
            plan.state["executor"] = executor
        return executor

    def _run_rounds(self, plan: ExecutionPlan, metrics: MetricsCollector,
                    records: List[Record], phase: str, scores: np.ndarray,
                    targets: Optional[Sequence[AbstractSet[int]]] = None) -> np.ndarray:
        """Chain one :class:`GNNRoundJob` per layer; write outputs into ``scores``."""
        assert plan.layout is not None      # set by plan_gas_execution
        workers = plan.config.num_workers
        engine = MapReduceEngine(num_mappers=workers, num_reducers=workers,
                                 metrics=metrics, partition_fn=_partition_fn,
                                 executor=self._plan_executor(plan))
        plan.model.eval()
        for layer_index in range(plan.model.num_layers):
            job = GNNRoundJob(plan.model, plan.strategy_plan, plan.shadow_plan,
                              layer_index, plan.original_num_nodes, plan.layout,
                              targets=targets)
            records = engine.run(job, records, phase=f"{phase}_{layer_index}")
        return collect_scores(records, scores)

    def execute(self, plan: ExecutionPlan,
                metrics: MetricsCollector) -> Dict[str, np.ndarray]:
        scores = self._run_rounds(
            plan, metrics, plan.state["input_records"], "round",
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
        records into a copy of the cache remains valid after an in-place edge
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
            input_records = plan.state["input_records"]
            self._run_rounds(plan, metrics,
                             [input_records[int(g)] for g in input_closure],
                             "incremental_round", scores,
                             targets=[set(t.tolist()) for t in targets])
        plan.state["scores"] = scores.copy()
        return {"scores": scores}

    def apply_delta(self, plan: ExecutionPlan, delta: GraphDelta) -> DeltaOutcome:
        """Patch the cached input records in place; re-plan only on hub churn.

        Feature rows land on the base graph, propagate into shadow-mirror
        copies through the replica CSR, and are scattered row-wise into the
        id-indexed record cache.  Edge deltas splice into the same cache:
        the working-graph sources whose out-edge set changes (removed edges'
        sources plus the mirror-assigned sources of appends) get their record
        rebuilt from the patched working graph — byte-identical to a fresh
        record scan, because the graph's adjacency index orders edges per
        source stably.  Only a hub-set or
        mirror-group-count change
        (:func:`~repro.inference.backends.base.land_gas_delta`) makes the
        session re-plan from the landed delta.
        """
        outcome, touched_sources = land_gas_delta(plan, delta)
        if outcome.in_place:
            patch_input_records(
                plan.state["input_records"], plan.model, plan.working_graph,
                np.concatenate([touched_sources, outcome.feature_dirty]))
        return outcome
