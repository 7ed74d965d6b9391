"""InferTurbo adaptor for the MapReduce (batch processing) backend.

The pipeline mirrors the paper's Section IV-C2:

* **Map (initialisation)** — read node-table rows, encode raw features into
  the layer-0 state, then send (a) every node's own state + out-adjacency to
  its owner and (b) layer-0 messages along every out-edge;
* **Reduce round r** — gather the incoming messages of the reducer's nodes,
  run layer r's ``apply_node``, and emit the updated state rows plus layer
  r+1's messages; the next round's map only folds (partial-gather) and
  buckets them — :func:`~repro.pregel.vertex.route`, the call a Pregel
  superstep ends with;
* the prediction head is merged into the last Reduce round, which emits one
  output row per node.

Slot ``i`` maps the rows Pregel partition ``i`` owns (round 0 reads
``layout.nodes_of(i)``; a reducer's output stays on its slot), so its
combiner folds what a Pregel worker folds.  Unlike Pregel, a round's output
is priced as written to storage and state is itself shuffled, so peak memory
stays bounded (rows stream through bounded chunks) at the price of more bytes
moved, which is exactly the trade-off Table III measures.  The stages themselves live in
:mod:`repro.inference.gas`; what this module owns is the transport, and the
transport moves the Pregel backend's own blocks:

* :class:`~repro.pregel.vertex.MessageBlock` — per-edge messages;
* :class:`~repro.inference.strategies.BroadcastMessageBlock` — hub messages,
  split per destination bucket at the sender so every reducer that sees a
  reference also holds the payload table it indexes;
* :class:`StateBlock` — the message a node sends itself: its state row and
  out-adjacency.  Raw input rows and final output rows are state blocks too.

Placement is ``layout.owners(block.dst_ids)`` for all three, inside ``route``
— the layout's modulo is the only partitioner.  Edge rows become blocks in
:func:`~repro.inference.gas.scatter_blocks`; what is left here is the
per-bucket cut of hub blocks.
:class:`Records` prices a block as the rows this backend puts on the wire;
that is all the engine sees, and all it counts.

Incremental inference
---------------------

There is none, as in the paper: every round reads its input from storage and
recomputes, and nothing survives a run to splice into.  An
``infer(mode="incremental")`` request runs the full rounds
(:class:`~repro.inference.backends.base.Backend`'s fallback).  Landing a delta
patches the working graph the first round cuts its rows from, and an
in-place-patched working graph is byte-identical to a fresh plan's, so each
slot's rows, the fold order and therefore the scores are bit-identical to a
fresh ``prepare()+infer()``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

import numpy as np

from repro.batch.mapreduce import MapReduceJob
from repro.cluster.layout import ClusterLayout, csr_slots, stable_group_by
from repro.cluster.metrics import ID_BYTES, InstanceMetrics, tensor_bytes
from repro.gnn.model import GNNModel
from repro.graph.graph import Graph
from repro.inference import gas
from repro.inference.shadow import ReplicaMap
from repro.inference.strategies import BroadcastMessageBlock, StrategyPlan
from repro.pregel.vertex import MessageBlock, concat_messages, route

#: number of node rows processed together inside one reducer chunk; bounds
#: the reducer's working set (the "stream from external storage" property).
REDUCE_CHUNK_NODES = 4096

#: wire bytes besides the arrays: the one-character kind tag every shuffled row
#: carries, a message row's fold count, and the two-character-prefixed bucket
#: key a hub payload row travels under instead of a node id.
TAG_BYTES = 1
COUNT_BYTES = 8
BROADCAST_KEY_BYTES = 2 + ID_BYTES


class StateBlock(MessageBlock):
    """Node rows: id, one state row, out-adjacency as a CSR over the rows.

    A state row is the message a node sends itself, so it buckets and slices
    like any other block (``dst_ids`` are the node ids, ``payload`` the state
    matrix).  ``tagged=False`` marks the raw node-table rows the first round
    reads — features for state, no kind tag on the wire; the last round's
    output rows are state rows (logits) without adjacency.
    """

    combinable = False

    def __init__(self, node_ids: np.ndarray, state: np.ndarray,
                 indptr: Optional[np.ndarray] = None, nbrs: Optional[np.ndarray] = None,
                 edge_feats: Optional[np.ndarray] = None, tagged: bool = True) -> None:
        super().__init__(dst_ids=node_ids, payload=state)
        empty = nbrs is None
        self.indptr = np.zeros(self.num_records() + 1, dtype=np.int64) if empty else indptr
        self.nbrs = np.empty(0, dtype=np.int64) if empty else nbrs
        self.edge_feats = edge_feats
        self.tagged = tagged

    def with_state(self, state: np.ndarray) -> "StateBlock":
        """The same nodes and adjacency carrying a new (tagged) state matrix."""
        return StateBlock(self.dst_ids, state, self.indptr, self.nbrs, self.edge_feats)

    def take(self, rows: np.ndarray) -> "StateBlock":
        edges, _, indptr = csr_slots(self.indptr, rows)
        return StateBlock(
            self.dst_ids[rows], self.payload[rows], indptr, self.nbrs[edges],
            None if self.edge_feats is None else self.edge_feats[edges], self.tagged)

    def slice(self, start: int, stop: int) -> "StateBlock":
        """Rows ``start:stop`` as views; the adjacency is re-based on its first edge."""
        indptr = self.indptr[start:stop + 1]
        lo, hi = indptr[0], indptr[-1]
        return StateBlock(
            self.dst_ids[start:stop], self.payload[start:stop], indptr - lo,
            self.nbrs[lo:hi], None if self.edge_feats is None else self.edge_feats[lo:hi],
            self.tagged)

    @staticmethod
    def concat(blocks: Sequence["StateBlock"]) -> "StateBlock":
        """``blocks`` end to end (they agree on having edge features or not)."""
        ends = np.cumsum([0] + [block.nbrs.shape[0] for block in blocks])
        feats = [block.edge_feats for block in blocks if block.edge_feats is not None]
        return StateBlock(
            np.concatenate([block.dst_ids for block in blocks]),
            np.concatenate([block.payload for block in blocks], axis=0),
            np.concatenate([np.zeros(1, dtype=np.int64)]
                           + [block.indptr[1:] + end for block, end in zip(blocks, ends)]),
            np.concatenate([block.nbrs for block in blocks]),
            np.concatenate(feats, axis=0) if feats else None, blocks[0].tagged)


def input_rows(model: GNNModel, working_graph: Graph) -> StateBlock:
    """The (possibly shadow-expanded) node table as one untagged state block.

    Views of the graph's own feature matrix and cached out-edge index — no
    per-node scan, nothing to keep in step with a delta: the block is cut
    fresh from the graph at every execution.
    """
    indptr, nbrs, edge_ids = working_graph.out_csr()
    features = working_graph.node_features
    if features is None:
        features = np.zeros((working_graph.num_nodes, model.encoder.in_features))
    edge_feats = working_graph.edge_features
    return StateBlock(np.arange(working_graph.num_nodes), features, indptr, nbrs,
                      None if edge_feats is None else edge_feats[edge_ids], tagged=False)


class Records:
    """A block priced as the rows this backend shuffles — what the engine moves.

    Per row, besides the float arrays: a message carries its destination id,
    a kind tag and its fold count; a broadcast reference those plus the hub's
    id in place of a payload; a hub payload row (one per destination bucket —
    the sender already split the block) its bucket key, tag and hub id; a
    state row its id, tag and out-neighbour ids (+ edge features).
    """

    def __init__(self, block: MessageBlock) -> None:
        self.block = block

    def num_records(self) -> int:
        block = self.block
        if isinstance(block, BroadcastMessageBlock):
            return block.num_records() + block.unique_payloads.shape[0]
        return block.num_records()

    def nbytes(self) -> float:
        block, rows = self.block, self.block.num_records()
        if isinstance(block, StateBlock):
            edge_bytes = 0 if block.edge_feats is None else block.edge_feats.nbytes
            return float(rows * (ID_BYTES + TAG_BYTES * block.tagged)
                         + block.payload.nbytes + block.nbrs.nbytes + edge_bytes)
        if isinstance(block, BroadcastMessageBlock):
            return float(rows * (2 * ID_BYTES + TAG_BYTES + COUNT_BYTES)
                         + block.unique_payloads.shape[0]
                         * (BROADCAST_KEY_BYTES + TAG_BYTES + ID_BYTES)
                         + block.unique_payloads.nbytes)
        return float(rows * (ID_BYTES + TAG_BYTES + COUNT_BYTES) + block.payload.nbytes)


class GNNRoundJob(MapReduceJob):
    """One MapReduce round = one GNN layer.

    Round 0's map is the paper's initialisation Map phase (encode + first
    scatter); later rounds map the identity, because the previous round's
    reducers already emitted blocks addressed to their destination nodes.
    Either way the map then ``route``\\ s its blocks: plain messages fold per
    destination with the consuming layer's combiner (partial-gather, when the
    plan allows it) and every block is bucketed by owner; the reducer runs
    the layer itself (and the prediction head on the last round).
    """

    def __init__(self, model: GNNModel, plan: StrategyPlan,
                 replicas: Optional[ReplicaMap], layer_index: int,
                 original_num_nodes: int, layout: ClusterLayout) -> None:
        self.model = model
        self.plan = plan
        self.replicas = replicas
        self.layer_index = layer_index
        self.original_num_nodes = original_num_nodes
        self.layout = layout

    # ------------------------------------------------------------------ #
    def _scatter(self, layer_index: int, state: StateBlock,
                 metrics: InstanceMetrics) -> List[MessageBlock]:
        """Layer ``layer_index`` messages along the out-edges of ``state``'s rows.

        ``gas.scatter_blocks`` over the block's edge rows gives a plain block
        and a broadcast block; the broadcast block is cut per destination
        bucket here, at the sender: a hub's payload once per bucket, id-only
        references per edge.
        """
        node_pos = np.repeat(np.arange(state.num_records()), np.diff(state.indptr))
        blocks, units = gas.scatter_blocks(
            self.model, self.plan, self.replicas, layer_index, state.payload, node_pos,
            state.dst_ids[node_pos], state.nbrs, state.edge_feats, inline=True)
        metrics.add_compute(units)
        pieces: List[MessageBlock] = []
        for block in blocks:
            if isinstance(block, BroadcastMessageBlock):
                pieces.extend(piece for _, piece in block.split_by(
                    self.layout.owners(block.dst_ids), self.layout.num_partitions))
            elif block.num_records():
                pieces.append(block)
        return pieces

    # ------------------------------------------------------------------ #
    def map_partition(self, items: List[Any], metrics: InstanceMetrics) -> List[List[Any]]:
        blocks: List[MessageBlock] = [item.block for item in items]
        if self.layer_index == 0:
            rows, blocks = blocks, []
            for block in rows:
                state, units = gas.encode(self.model, block.payload)
                metrics.add_compute(units)
                metrics.observe_memory(tensor_bytes(state.shape) + float(block.payload.nbytes))
                blocks.append(block.with_state(state))
                blocks.extend(self._scatter(0, blocks[-1], metrics))
        routed = route(blocks, self.plan.layer(self.layer_index).combiner, self.layout)
        return [[Records(piece) for piece in bucket] for bucket in routed]

    # ------------------------------------------------------------------ #
    def reduce_partition(self, items: List[Any], metrics: InstanceMetrics) -> List[Any]:
        states = [item.block for item in items if isinstance(item.block, StateBlock)]
        dst, payload, counts = concat_messages(
            [item.block for item in items if not isinstance(item.block, StateBlock)])
        if not states:      # no node rows here: any message below is an orphan
            states = [StateBlock(np.empty(0, dtype=np.int64), np.zeros((0, 0)))]
        state = states[0] if len(states) == 1 else StateBlock.concat(states)
        # Node rows arrive in ascending id order: only this slot's mapper sends
        # them, round 0's split is ``layout.nodes_of`` (ascending), ``route``'s
        # buckets are stable and reducers emit their chunks in order.  Messages
        # keep their arrival order per destination (the segment reductions in
        # ``gather_apply`` accumulate in row order).
        node_ids = state.dst_ids
        if np.any(node_ids[1:] <= node_ids[:-1]):
            raise RuntimeError("state rows arrived out of ascending id order")
        rows = np.searchsorted(node_ids, dst)
        known = rows < node_ids.size
        known[known] = node_ids[rows[known]] == dst[known]
        if not known.all():
            raise RuntimeError(f"state row missing for node {int(dst[~known][0])}")

        num_chunks = -(-node_ids.size // REDUCE_CHUNK_NODES)
        by_chunk, sizes, starts = stable_group_by(rows // REDUCE_CHUNK_NODES, num_chunks)
        outputs: List[MessageBlock] = []
        for chunk in range(num_chunks):
            first = chunk * REDUCE_CHUNK_NODES
            picked = by_chunk[starts[chunk]:starts[chunk] + sizes[chunk]]
            outputs.extend(self._reduce_chunk(
                state.slice(first, first + REDUCE_CHUNK_NODES),
                payload[picked], rows[picked] - first, counts[picked], metrics))
        return [Records(block) for block in outputs]

    def _reduce_chunk(self, state: StateBlock, payload: np.ndarray, dst_index: np.ndarray,
                      counts: np.ndarray, metrics: InstanceMetrics) -> List[MessageBlock]:
        """Layer ``layer_index`` over one bounded chunk of node rows."""
        new_state, units = gas.gather_apply(self.model.layers[self.layer_index],
                                            state.payload, payload, dst_index, counts)
        metrics.add_compute(units)
        metrics.observe_memory(
            tensor_bytes(new_state.shape) + tensor_bytes(state.payload.shape)
            + float(payload.nbytes))
        if self.layer_index == self.model.num_layers - 1:
            logits, units = gas.predict(self.model, new_state)
            metrics.add_compute(units)
            original = np.nonzero(state.dst_ids < self.original_num_nodes)[0]
            return [StateBlock(state.dst_ids[original], logits[original])]
        updated = state.with_state(new_state)
        return [updated] + self._scatter(self.layer_index + 1, updated, metrics)
