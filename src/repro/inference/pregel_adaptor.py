"""InferTurbo adaptor for the Pregel-like graph processing backend.

One superstep per GNN layer plus an initialisation superstep:

* superstep 0 — encode raw features into the layer-0 input state and scatter
  the first messages along out-edges;
* superstep s (1 ≤ s < L) — gather the messages produced in superstep s-1, run
  layer s-1's ``apply_node``, then scatter layer s's messages;
* superstep L — final gather/apply_node and the prediction head; no scatter.

The stages themselves live in :mod:`repro.inference.gas`; what this module
owns is the transport.  Messages arrive in a mailbox of packed
:class:`~repro.pregel.vertex.MessageBlock`\\ s and leave as one plain block
plus one :class:`~repro.inference.strategies.BroadcastMessageBlock` per
superstep (partial-gather rides on the per-superstep combiner); node state,
out-edges and features stay in partition memory (``block_state``) across
supersteps — the defining property of this backend.

Incremental inference
---------------------

A session that applied a :class:`~repro.inference.delta.GraphDelta` in place
can rerun just the delta's reach: full runs cache every superstep's state
per partition (``h_history``); an incremental run walks a per-superstep dirty
frontier (:func:`~repro.inference.delta.expand_frontier`), sends only messages
bound for next-frontier destinations, recomputes only frontier rows, and
splices them into the cached states.  Bit-identity with a fresh full run
rests on the stage module's row-subset rule plus one transport rule kept
here: per-destination message *sets and order* are unchanged — filtering
keeps all of a frontier destination's rows and drops whole destinations, so
the order-sensitive segment reductions accumulate identical bits.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.layout import ClusterLayout
from repro.cluster.metrics import MetricsCollector, tensor_bytes
from repro.gnn.model import GNNModel
from repro.graph.graph import Graph
from repro.inference import gas
from repro.inference.config import InferenceConfig
from repro.inference.shadow import ReplicaMap
from repro.inference.strategies import StrategyPlan
from repro.pregel.combiners import MessageCombiner
from repro.pregel.engine import PregelEngine, PregelPartition
from repro.pregel.vertex import (
    BlockVertexProgram,
    MessageBlock,
    PartitionContext,
    concat_messages,
    route_schedule,
)

_EMPTY_ROWS = np.empty(0, dtype=np.int64)

#: per-superstep, per-partition local frontier rows (the engine's schedule).
FrontierSchedule = List[Dict[int, np.ndarray]]
#: ``(partition_id, superstep)`` → out-edge rows an incremental run scatters.
EdgeRows = Dict[Tuple[int, int], np.ndarray]


class GNNInferenceProgram(BlockVertexProgram):
    """Block vertex program that runs a GAS GNN model layer by layer.

    ``cache_states=True`` makes a full run record every superstep's state (and
    the final logits) in partition ``block_state`` — the warm cache
    incremental runs splice into.  Passing ``edge_rows`` makes the run
    incremental against that cache: ``context.frontier_rows`` names the local
    rows to recompute and ``edge_rows[(partition_id, superstep)]`` the
    out-edge rows whose messages must still be sent (everything bound for a
    next-frontier destination).
    """

    def __init__(self, model: GNNModel, plan: StrategyPlan,
                 replicas: Optional[ReplicaMap] = None,
                 cache_states: bool = False,
                 edge_rows: Optional[EdgeRows] = None) -> None:
        self.model = model
        self.plan = plan
        self.replicas = replicas
        self.num_layers = model.num_layers
        self.edge_rows = edge_rows
        self.incremental = edge_rows is not None
        self.cache_states = bool(cache_states) or self.incremental
        # Process-executor shipping manifest.  Incremental runs read (and
        # splice into) the cached superstep states of the last full run; full
        # runs reset every per-run entry in setup_partition, so nothing
        # travels to the workers.  Coming back: ``output`` feeds score
        # collection, ``h`` and ``h_history`` the warm cache a later
        # incremental run needs (only when this run maintains it).
        self.block_state_ship_keys = ("h_history", "output") if self.incremental else ()
        self.block_state_return_keys = (
            ("output",) + (("h", "h_history") if self.cache_states else ()))

    # ------------------------------------------------------------------ #
    def max_supersteps(self) -> int:
        return self.num_layers + 1

    def combiner_for_superstep(self, superstep: int) -> Optional[MessageCombiner]:
        """Partial-gather: the consuming layer's combiner (or None)."""
        if superstep >= self.num_layers:
            return None
        return self.plan.layer(superstep).combiner

    def setup_partition(self, partition: PregelPartition) -> None:
        """Reset per-run state; reuse the layout-derived out-edge index.

        ``out_src_local`` depends only on the partition layout, so the engine
        keeps it across runs (beside the send schedules ``_scatter`` keeps);
        an in-place edge delta drops it and it is recomputed here.  An
        incremental run keeps the cached ``h_history``/``output`` (that cache
        *is* its input); a full run resets them.
        """
        if "out_src_local" not in partition.block_state:
            partition.block_state["out_src_local"] = partition.local_indices(partition.out_src)
        partition.block_state["h"] = None
        if self.incremental:
            if not has_cached_run(partition, self.num_layers):
                raise RuntimeError(
                    "incremental inference requires cached superstep states "
                    "from a previous full run on this plan")
            return
        partition.block_state["output"] = None
        if self.cache_states:
            partition.block_state["h_history"] = [None] * (self.num_layers + 1)
        else:
            partition.block_state.pop("h_history", None)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _assemble_messages(partition: PregelPartition, incoming: List[MessageBlock],
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenate incoming blocks into (payload, local_dst, counts)."""
        dst, payload, counts = concat_messages(incoming)
        return payload, partition.local_indices(dst), counts

    def _scatter(self, context: PartitionContext, partition: PregelPartition,
                 state: np.ndarray, superstep: int) -> None:
        """Send this superstep's out-edge messages.

        An incremental run restricts the scatter to the precomputed out-edge
        rows bound for next-frontier destinations.  The restriction is
        all-or-nothing per destination, so every surviving destination still
        receives its complete in-message set in the full run's order.
        """
        rows = None
        if self.edge_rows is not None:
            rows = self.edge_rows.get((partition.partition_id, superstep), _EMPTY_ROWS)
        if partition.num_out_edges == 0 or (rows is not None and rows.size == 0):
            return
        # Which edge feeds which block row, fold slot and owner bucket depends
        # on topology, layout and ``key`` alone: a full superstep keeps that
        # pair resident, a restricted one computes it for its rows and drops it.
        strategy = self.plan.layer(superstep)
        key = (strategy.broadcast, strategy.combiner is not None)
        kept = partition.block_state.setdefault("send_schedule", {}) if rows is None else {}
        routed, schedule = kept.get(key) or (gas.scatter(
            strategy, self.plan.out_degree_hubs, self.replicas, partition.out_src,
            partition.out_dst, False, rows), None)
        blocks, units = gas.scatter_blocks(
            self.model, self.plan, self.replicas, superstep, state,
            partition.block_state["out_src_local"], partition.out_src, partition.out_dst,
            partition.out_edge_features, inline=False, rows=rows, routed=routed)
        if schedule is None:
            schedule = route_schedule(blocks, key[1], partition.layout)
            kept[key] = routed, schedule
        context.schedule = schedule
        context.metrics.add_compute(units)
        for block in blocks:
            context.send_block(block)

    # ------------------------------------------------------------------ #
    def compute_partition(self, context: PartitionContext,
                          incoming: List[MessageBlock]) -> None:
        partition = context.partition
        superstep = context.superstep
        store = partition.block_state
        # ``rows`` is the row set this superstep recomputes: None = every row
        # (a full run); an incremental run's frontier rows are spliced into
        # the cached state, everything else keeps the cached bits — which a
        # fresh run would reproduce exactly.
        rows = context.frontier_rows if self.incremental else None
        idle = rows is not None and (rows.size == 0 or not partition.num_nodes)

        if idle:
            state = store["h_history"][superstep]
        else:
            if superstep == 0:
                state, units = gas.encode(self.model, partition.node_features, rows)
            else:
                payload, local_dst, counts = self._assemble_messages(partition, incoming)
                state, units = gas.gather_apply(self.model.layers[superstep - 1],
                                                store["h"], payload, local_dst,
                                                counts, rows)
            context.metrics.add_compute(units)
            if rows is not None:
                state = gas.splice(store["h_history"][superstep], state, rows)
        store["h"] = state
        if self.cache_states:
            store["h_history"][superstep] = state

        if superstep < self.num_layers:
            self._scatter(context, partition, state, superstep)
        elif not idle:
            logits, units = gas.predict(self.model, state, rows)
            context.metrics.add_compute(units)
            store["output"] = (logits if rows is None
                               else gas.splice(store["output"], logits, rows))

        # Peak memory: resident state + features + incoming messages (+ the
        # cached superstep states an incremental-capable session keeps warm).
        resident = tensor_bytes(state.shape)
        if partition.node_features is not None:
            resident += float(partition.node_features.nbytes)
        resident += sum(block.nbytes() for block in incoming)
        resident += float(partition.out_src.nbytes + partition.out_dst.nbytes)
        if self.cache_states:
            # Earlier supersteps' cached states; the current one is already
            # counted as the resident state above.
            resident += sum(float(h.nbytes)
                            for h in store["h_history"][:superstep]
                            if h is not None)
        context.metrics.observe_memory(resident)


def build_pregel_engine(working_graph: Graph, config: InferenceConfig,
                        layout: Optional[ClusterLayout]) -> PregelEngine:
    """Partition the (possibly shadow-expanded) graph into a reusable engine.

    Partitioning is the expensive part of Pregel preparation; a session builds
    the engine once at ``prepare()`` time and swaps in a fresh metrics
    collector per execution.  The plan's
    :class:`~repro.cluster.layout.ClusterLayout` is reused instead of rebuilt;
    what a partition derives from it (``LAYOUT_DERIVED_KEYS``) is built by the
    first run, where the run happens — in the worker under a process executor.
    """
    return PregelEngine(working_graph, num_workers=config.num_workers,
                        layout=layout, executor=config.executor)


def has_cached_run(partition: PregelPartition, num_layers: int) -> bool:
    """Whether a partition carries a complete state cache from a full run."""
    history = partition.block_state.get("h_history")
    return (history is not None
            and len(history) == num_layers + 1
            and all(h is not None for h in history)
            and partition.block_state.get("output") is not None)


def frontier_schedule(engine: PregelEngine, frontiers: Sequence[np.ndarray],
                      ) -> Tuple[FrontierSchedule, EdgeRows]:
    """Turn per-superstep dirty frontiers into what an incremental run needs.

    The schedule gives each partition its local frontier rows per superstep
    (one grouped pass each); the edge rows name what each partition must still
    scatter at superstep ``s``: every out-edge bound for a superstep-``s+1``
    frontier destination.  Frontiers are replica-closed, so testing the
    pre-expansion destination id suffices; membership is one boolean table per
    superstep, looked up by every partition.
    """
    layout = engine.layout
    schedule: FrontierSchedule = []
    for frontier in frontiers:
        per_partition: Dict[int, np.ndarray] = {}
        if frontier.size:
            local = layout.local_indices(frontier)
            per_partition = {pid: local[rows]
                             for pid, rows in layout.group_by_owner(frontier)
                             if rows.size}
        schedule.append(per_partition)

    edge_rows: EdgeRows = {}
    member = np.zeros(layout.num_nodes, dtype=bool)
    for superstep, nxt in enumerate(frontiers[1:]):
        member[nxt] = True
        for partition in engine.partitions:
            edge_rows[(partition.partition_id, superstep)] = np.nonzero(
                member[partition.out_dst])[0]
        member[nxt] = False
    return schedule, edge_rows


def run_program(engine: PregelEngine, program: GNNInferenceProgram,
                metrics: MetricsCollector, original_num_nodes: int,
                frontier: Optional[FrontierSchedule] = None) -> Dict[str, np.ndarray]:
    """Run one program over the warm engine and assemble the dense scores.

    Returns ``scores`` [N, C] (original nodes only).  ``setup_partition``
    resets all per-run block state, so engine reuse is safe and repeated runs
    stay bit-identical.
    """
    model = program.model
    engine.metrics = metrics
    model.eval()
    partitions = engine.run(program, frontier=frontier).partitions

    scores = np.zeros((original_num_nodes, model.output_dim))
    for partition in partitions:
        output = partition.block_state.get("output")
        if output is None:
            continue
        keep = partition.node_ids < original_num_nodes
        scores[partition.node_ids[keep]] = output[keep]
    return {"scores": scores}
