"""The backend base class and the execution-plan abstraction.

A *backend* is an interchangeable execution substrate for full-graph GNN
inference under the shared GAS programming model.  Each backend subclasses
:class:`Backend`:

* ``name`` — the key users put in :class:`InferenceConfig.backend`;
* ``plan(model, graph, config)`` — one-time preparation: strategy resolution,
  shadow-node graph rewrite, partition layout, engine build — anything
  that can be computed once and reused across repeated executions;
* ``execute(plan, metrics)`` — one inference run over a previously built
  :class:`ExecutionPlan`, recording per-instance counters into ``metrics``;
* ``apply_delta`` — patch a plan for a delta already on its base graph
  (shared by both backends; pregel extends it to patch its partitions);
* optionally ``execute_incremental`` / ``release`` — by default an
  incremental request runs in full and there is nothing to release.

The set is closed — the paper's pregel and mapreduce — and lives in one
table, ``BACKENDS`` in :mod:`repro.inference.backends`; the rest of the
system looks a backend up by name via ``get_backend``.
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.cluster.layout import ClusterLayout
from repro.cluster.metrics import MetricsCollector
from repro.cluster.resources import ClusterSpec
from repro.gnn.model import GNNModel
from repro.graph.graph import Graph
from repro.graph.partition import HashPartitioner
from repro.inference.config import InferenceConfig
from repro.inference.delta import DeltaOutcome, GraphDelta
from repro.inference.shadow import ReplicaMap, ShadowNodePlan, apply_shadow_nodes
from repro.inference.strategies import (
    StrategyPlan,
    build_strategy_plan,
    hub_threshold,
    select_hubs,
)


@dataclass
class ExecutionPlan:
    """Everything a backend prepares once and reuses across executions.

    The plan is the cacheable half of an inference run: the resolved strategy
    switches, the (optional) shadow-node rewritten graph, and any
    backend-private artefacts in ``state`` (the partitioned Pregel engine
    both backends drive).  One plan supports
    arbitrarily many ``execute`` calls: execution never changes what a plan
    *means*, though it may refresh backend-private caches inside ``state``
    (e.g. the per-superstep node states incremental inference splices into),
    and a backend's ``apply_delta`` hook patches the plan in place by design.
    """

    backend: str
    model: GNNModel
    graph: Graph
    config: InferenceConfig
    strategy_plan: StrategyPlan
    #: the graph the backend executes over: the shadow rewrite's, or a second
    #: ``Graph`` over ``graph``'s arrays.  Never ``graph`` itself, so a delta
    #: landing on a pooled handle mid-run rebinds nothing a run reads.
    working_graph: Graph
    shadow_plan: Optional[ShadowNodePlan] = None
    #: dense global→owner / global→local routing tables over the working
    #: graph, computed once at plan time and reused by every execution.
    layout: Optional[ClusterLayout] = None
    num_supersteps: int = 0
    #: backend-private precomputed artefacts (engines, executors, pipelines).
    state: Dict[str, Any] = field(default_factory=dict)
    #: content fingerprint of ``graph`` at plan (or last flush) time — see
    #: :func:`repro.inference.delta.graph_fingerprint`.  The session re-hashes
    #: a caller's graph against it at every public entry and raises
    #: ``StalePlanError`` on out-of-band mutation instead of serving stale
    #: scores; a pooled handle, which only the pool writes, carries none.
    fingerprint: Optional[Tuple[int, int, int]] = None
    #: whether the plan describes ``graph``: a flush clears it before the
    #: backend patches the plan and sets it once the patch is done, so it
    #: stays clear only after a flush that raised part-way.
    fingerprint_current: bool = True
    #: set by the session the first time a delta lands on (or is deferred
    #: against) this plan.  The pregel backend gates its per-superstep state
    #: cache on it, so sessions that never see a delta keep pre-delta peak
    #: memory (~layers× the node-state memory); the price is that the
    #: first post-delta incremental request falls back to one full run,
    #: which primes the cache.
    delta_seen: bool = False

    @property
    def original_num_nodes(self) -> int:
        return (self.shadow_plan.original_num_nodes if self.shadow_plan is not None
                else self.graph.num_nodes)

    @property
    def replicas(self) -> Optional[ReplicaMap]:
        """The shadow rewrite's replica map — what a program carries."""
        return self.shadow_plan.replicas if self.shadow_plan is not None else None

    def describe(self) -> str:
        """One-line human-readable summary of the plan."""
        parts = [
            f"backend={self.backend}",
            f"layers={self.model.num_layers}",
            f"workers={self.config.num_workers}",
            f"strategies={self.config.strategies.describe()}",
            f"threshold={self.strategy_plan.threshold}",
            f"hubs={int(self.strategy_plan.out_degree_hubs.size)}",
        ]
        if self.shadow_plan is not None:
            parts.append(f"mirrors={self.shadow_plan.num_mirrors}")
        return ", ".join(parts)


class Backend(abc.ABC):
    """Base class of the two backends.

    ``plan`` / ``execute`` / ``default_cluster`` are abstract — the
    ``BACKENDS`` table instantiates every backend at import, so an incomplete
    one fails there.  ``apply_delta`` patches a plan for a landed delta.

    ``pregel`` overrides all three hooks (bit-identical incremental runs over
    a warm partition cache, feature *and* hub-preserving edge deltas — under
    shadow nodes included, via the position-stable mirror assignment);
    ``mapreduce`` inherits pregel's patch and release and runs every
    request in full (bit-identical to a fresh ``prepare()+infer()``).
    """

    #: the key users put in :class:`InferenceConfig.backend`.
    name: str

    @abc.abstractmethod
    def default_cluster(self, num_workers: int) -> ClusterSpec:
        """The cluster flavour this backend simulates by default."""

    @abc.abstractmethod
    def plan(self, model: GNNModel, graph: Graph,
             config: InferenceConfig) -> ExecutionPlan:
        """One-time preparation, cached and reused by every execution."""

    @abc.abstractmethod
    def execute(self, plan: ExecutionPlan,
                metrics: MetricsCollector) -> Dict[str, np.ndarray]:
        """One full inference run; returns ``scores``."""

    def apply_delta(self, plan: ExecutionPlan, delta: GraphDelta) -> DeltaOutcome:
        """Fold ``delta`` into ``plan``; ``in_place=False`` makes the session re-plan.

        ``delta`` is already on ``plan.graph`` (the session's flush lands a
        caller's graph, the pool's mirror a pooled handle), and this never
        writes it.  Re-checks the hub contract for edge changes
        (:func:`check_edge_delta_stability`), splices them into the working
        graph with the position-stable mirror assignment
        (:meth:`~repro.inference.shadow.ShadowNodePlan.patch_edge_delta`) or
        re-points it at the base arrays, and refreshes shadow-mirror feature
        copies.  The outcome's ``feature_dirty`` is the replica closure of
        the changed feature rows; ``topo_dirty`` is read off the unpatched
        working graph, which keeps the base edge order and ``dst``.
        """
        graph, working, shadow = plan.graph, plan.working_graph, plan.shadow_plan
        topo_dirty = delta.topo_dirty(working.dst)

        if delta.has_edge_changes:
            stable, reason, threshold = check_edge_delta_stability(plan)
            if not stable:
                return DeltaOutcome(in_place=False, reason=reason)
            plan.strategy_plan.threshold = threshold
            if shadow is not None and shadow.has_mirrors:
                shadow.patch_edge_delta(graph, delta)
            else:
                working.src, working.dst = graph.src, graph.dst
                working.edge_features = graph.edge_features
                working.invalidate_adjacency()

        feature_dirty = np.empty(0, dtype=np.int64)
        if delta.has_feature_changes:
            if shadow is not None and shadow.has_mirrors:
                feature_dirty = shadow.refresh_mirror_features(graph, delta.node_ids)
            else:
                feature_dirty = np.unique(delta.node_ids)
        return DeltaOutcome(in_place=True, feature_dirty=feature_dirty,
                            topo_dirty=topo_dirty)

    def execute_incremental(self, plan: ExecutionPlan, metrics: MetricsCollector,
                            feature_dirty: np.ndarray,
                            topo_dirty: np.ndarray) -> Optional[Dict[str, np.ndarray]]:
        """Run restricted to the dirty k-hop region, or ``None`` to make the
        session fall back to a full :meth:`execute` (the default)."""
        return None

    def release(self, plan: ExecutionPlan) -> None:
        """Shut down OS resources ``plan`` owns (worker processes, shared
        memory).  The plan stays usable and lazily respawns them."""


# --------------------------------------------------------------------------- #
# GAS planning shared by both backends.
# --------------------------------------------------------------------------- #
def merge_hub_mirrors(strategy_plan: StrategyPlan,
                      shadow_plan: Optional[ShadowNodePlan]) -> None:
    """Give shadow mirrors of out-degree hubs the hub treatment (SN+BC combo).

    The merged ``out_degree_hubs`` array is always deduplicated, sorted and
    ``int64`` — including when either side is empty, where a plain
    ``np.concatenate`` over untyped empty arrays would degrade to
    ``object``/``float64`` dtype.
    """
    hubs = np.asarray(strategy_plan.out_degree_hubs, dtype=np.int64).reshape(-1)
    if shadow_plan is not None and shadow_plan.has_mirrors:
        first = shadow_plan.original_num_nodes
        mirrors = first + np.flatnonzero(np.isin(shadow_plan.origin_of[first:], hubs))
        hubs = np.concatenate([hubs, mirrors])
    strategy_plan.out_degree_hubs = np.unique(hubs)


def check_edge_delta_stability(plan: ExecutionPlan) -> Tuple[bool, str, int]:
    """Re-check the hub contract once an edge delta is on ``plan.graph``.

    Returns ``(stable, reason, new_threshold)``.  Stable means an in-place
    edge patch is provably equivalent to a re-plan: the recomputed hub
    threshold selects the same base-graph hub set (under shadow nodes the
    strategy plan's ``out_degree_hubs`` also carries mirror ids from
    :func:`merge_hub_mirrors`, so only ids below the original range compare),
    and every hub keeps its mirror-group count
    (:meth:`~repro.inference.shadow.ShadowNodePlan.mirror_groups_stable`) —
    the two inputs the mirror allocation is a function of.  On success the
    caller records ``new_threshold`` on the strategy plan.
    """
    graph, config = plan.graph, plan.config
    new_threshold = hub_threshold(graph.num_edges, config.num_workers,
                                  override=config.strategies.hub_threshold_override)
    degrees = graph.out_degrees()
    new_hubs = select_hubs(degrees, new_threshold)
    old_hubs = plan.strategy_plan.out_degree_hubs
    shadow = plan.shadow_plan
    if shadow is not None:
        old_hubs = old_hubs[old_hubs < shadow.original_num_nodes]
    if not np.array_equal(new_hubs, old_hubs):
        return False, "the out-degree hub set changed", new_threshold
    if shadow is not None and not shadow.mirror_groups_stable(
            degrees, new_threshold, config.num_workers):
        return False, "a hub's mirror-group count changed", new_threshold
    return True, "", new_threshold


def plan_gas_execution(backend_name: str, model: GNNModel, graph: Graph,
                       config: InferenceConfig) -> ExecutionPlan:
    """The planning steps both (GAS) backends share.

    Resolves the per-layer strategy plan, applies the shadow-node graph
    rewrite when enabled, merges hub mirrors into the hub set, and builds the
    :class:`~repro.cluster.layout.ClusterLayout` routing tables over the
    working (possibly shadow-expanded) graph — once, so repeated
    ``infer_many()`` executions never recompute them.
    """
    has_edge_features = graph.edge_features is not None
    strategy_plan = build_strategy_plan(model, graph, config.num_workers,
                                        config.strategies, has_edge_features)
    shadow_plan: Optional[ShadowNodePlan] = None
    working = copy.copy(graph)
    if config.strategies.shadow_nodes:
        shadow_plan = apply_shadow_nodes(graph, strategy_plan.threshold,
                                         config.num_workers)
        merge_hub_mirrors(strategy_plan, shadow_plan)
        if shadow_plan.has_mirrors:
            working = shadow_plan.graph
        shadow_plan.graph = working
    plan = ExecutionPlan(backend=backend_name, model=model, graph=graph,
                         config=config, strategy_plan=strategy_plan,
                         working_graph=working, shadow_plan=shadow_plan)
    plan.layout = ClusterLayout.build(plan.working_graph.num_nodes,
                                      HashPartitioner(config.num_workers))
    return plan
