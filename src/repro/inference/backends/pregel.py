"""The Pregel-like graph-processing backend.

Planning partitions the (possibly shadow-expanded) graph once into a
:class:`~repro.pregel.engine.PregelEngine`; every execution reuses the cached
partitions and only swaps in a fresh metrics collector, so repeated
``infer()`` calls skip the hash-partitioning pass entirely.

This backend overrides the delta hooks of
:class:`~repro.inference.backends.base.Backend`: ``apply_delta`` patches the
working graph through the base class, then the cached partitions in place
for feature refreshes (including shadow mirror copies) and
hub-preserving edge deltas, and ``execute_incremental``
reruns only the dirty k-hop region against the warm engine — the serving
path for graphs that change between recurring inference jobs.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.cluster.metrics import MetricsCollector
from repro.cluster.resources import ClusterSpec
from repro.gnn.model import GNNModel
from repro.graph.graph import Graph
from repro.inference.config import InferenceConfig
from repro.inference.delta import DeltaOutcome, GraphDelta, expand_frontier
from repro.inference.backends.base import (
    Backend,
    ExecutionPlan,
    plan_gas_execution,
)
from repro.inference.pregel_adaptor import (
    Destinations,
    FrontierSchedule,
    GNNInferenceProgram,
    build_pregel_engine,
    frontier_schedule,
    run_program,
)


class PregelBackend(Backend):
    """Memory-resident graph-processing backend (one superstep per layer)."""

    name = "pregel"

    def default_cluster(self, num_workers: int) -> ClusterSpec:
        return ClusterSpec.pregel_default(num_workers)

    def plan(self, model: GNNModel, graph: Graph,
             config: InferenceConfig) -> ExecutionPlan:
        plan = plan_gas_execution(self.name, model, graph, config)
        plan.num_supersteps = model.num_layers + 1
        plan.state["engine"] = build_pregel_engine(plan.working_graph, config,
                                                   plan.layout)
        return plan

    def release(self, plan: ExecutionPlan) -> None:
        plan.state["engine"].shutdown()

    @staticmethod
    def _run(plan: ExecutionPlan, metrics: MetricsCollector, cache_states: bool,
             targets: Optional[Sequence[Destinations]] = None,
             frontier: Optional[FrontierSchedule] = None) -> Dict[str, np.ndarray]:
        program = GNNInferenceProgram(
            plan.model, plan.strategy_plan, plan.replicas, cache_states=cache_states,
            targets=targets, num_outputs=plan.original_num_nodes)
        return run_program(plan.state["engine"], program, metrics, frontier)

    def execute(self, plan: ExecutionPlan,
                metrics: MetricsCollector) -> Dict[str, np.ndarray]:
        # The per-superstep state cache is lazy: it costs ~layers× the
        # node-state memory, so it only arms once the session has actually
        # seen a delta (plan.delta_seen) — sessions serving an immutable
        # graph keep pre-delta peak memory.  The first post-delta incremental
        # request then falls back to one full run, which primes the cache.
        return self._run(plan, metrics, cache_states=plan.delta_seen)

    def execute_incremental(self, plan: ExecutionPlan, metrics: MetricsCollector,
                            feature_dirty: np.ndarray,
                            topo_dirty: np.ndarray) -> Optional[Dict[str, np.ndarray]]:
        """Rerun only the dirty k-hop region against the warm engine.

        ``feature_dirty``/``topo_dirty`` are working-graph node ids (replica-
        closed) from the session's accumulated deltas.  Returns None when the
        engine's cache is not warm (no caching run yet, or the last run failed
        or was released; the session then runs in full), otherwise the same
        outputs as :meth:`execute` — bit-identical to a fresh full run.
        """
        engine = plan.state["engine"]
        if not engine.cache_warm:
            return None
        frontiers = expand_frontier(plan.working_graph, feature_dirty, topo_dirty,
                                    plan.num_supersteps, plan.shadow_plan)
        schedule, targets = frontier_schedule(engine, frontiers)
        return self._run(plan, metrics, cache_states=True, targets=targets,
                         frontier=schedule)

    def apply_delta(self, plan: ExecutionPlan, delta: GraphDelta) -> DeltaOutcome:
        """Patch the cached plan for ``delta``; report what stays valid.

        ``delta`` is already on the base graph.  Feature rows are always
        applied in place: the shadow-expanded working graph (originals *and*
        mirror copies, via the replica CSR) and every engine partition's
        feature slice are updated through one
        :class:`~repro.cluster.layout.ClusterLayout` translate + grouped
        scatter.  Edge deltas are applied in place whenever the hub
        contract survives (:meth:`~repro.inference.backends.base.Backend.apply_delta`),
        for every layer kind: each stage computes a row from that row's inputs
        alone, so no row's bits depend on how many edges the table holds.
        Otherwise this returns ``in_place=False``, and the session re-plans
        from the base graph.  An in-place edge
        delta tells each partition which of its out-edges survive, so the next
        run patches its resident send schedules instead of rebuilding them.
        """
        old_src = plan.working_graph.src
        outcome = super().apply_delta(plan, delta)
        if not outcome.in_place:
            return outcome

        engine = plan.state["engine"]
        layout, working = engine.layout, plan.working_graph
        dirty = outcome.feature_dirty
        if dirty.size:
            rows = working.node_features[dirty]
            local = layout.local_indices(dirty)
            for pid, sel in layout.group_by_owner(dirty):
                if sel.size:
                    engine.partitions[pid].node_features[local[sel]] = rows[sel]
        if delta.has_edge_changes:
            # The working edge list is now the surviving old edges, in order,
            # then the appended ones, and a partition's out-edges are the
            # working edges its nodes send, in order: its surviving old ones,
            # then its appended ones.  ``out_edge_ids`` keeps each
            # partition's working edge ids (ascending), so a partition finds
            # its removed rows by binary search and no delta regroups the
            # whole edge list; a partition the delta misses keeps its arrays.
            edge_ids = plan.state.get("out_edge_ids")
            if edge_ids is None:
                edge_ids = plan.state["out_edge_ids"] = [
                    ids for _, ids in layout.group_by_owner(old_src)]
            removed = (np.empty(0, dtype=np.int64) if delta.removed_edge_ids is None
                       else np.unique(delta.removed_edge_ids))
            removed_owner = layout.owners(old_src[removed])
            first = old_src.size - removed.size     # the first appended edge's id
            added_owner = layout.owners(working.src[first:])
            # a survivor's new id: the old ids kept below it
            renumber = np.ones(old_src.size, dtype=bool)
            renumber[removed] = False
            renumber = np.cumsum(renumber) - 1
            efeat = working.edge_features
            for pid, partition in enumerate(engine.partitions):
                ids = edge_ids[pid]
                gone = removed[removed_owner == pid]
                added = first + np.flatnonzero(added_owner == pid)
                kept = np.ones(ids.size, dtype=bool)
                kept[np.searchsorted(ids, gone)] = False
                edge_ids[pid] = np.concatenate(
                    [renumber[ids[kept] if gone.size else ids], added])
                if gone.size or added.size:
                    partition.replace_out_edges(
                        kept, working.src[added], working.dst[added],
                        None if efeat is None else efeat[added])
        return outcome
