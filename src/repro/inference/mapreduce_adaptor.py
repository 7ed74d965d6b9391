"""InferTurbo adaptor for the MapReduce (batch processing) backend.

The pipeline mirrors the paper's Section IV-C2:

* **Map (initialisation)** — read node-table rows, encode raw features into
  the layer-0 state, then emit (a) the node's own state + out-edge adjacency
  to itself and (b) layer-0 messages to every out-edge neighbour;
* **Reduce round r** — for every node key, gather the incoming messages, run
  layer r's ``apply_node``, and emit the updated self state plus layer r+1's
  messages (shuffle keys: the node itself, and the destination node ids);
* the prediction head is merged into the last Reduce round, which emits one
  output record per node.

Unlike the Pregel backend nothing persists in worker memory between rounds —
state is itself shuffled — so peak memory stays bounded (records stream
through bounded chunks) at the price of more bytes moved, which is exactly the
trade-off Table III measures.  The stages themselves live in
:mod:`repro.inference.gas`; what this module owns is the transport: messages
arrive as shuffled records, state leaves as a record.

Record value formats (keys are node ids unless noted):

* ``("s", h_row, out_nbrs, out_edge_feats)`` — self state + out adjacency
* ``("m", payload_row, count)``              — an in-edge message
* ``("r", hub_id, count)``                   — broadcast reference to a hub payload
* ``("p", hub_id, payload_row)``             — broadcast payload, keyed ``("bc", bucket)``
* ``("o", logits_row)``                      — final output record

Incremental inference
---------------------

The backend keeps no worker-resident state, so it cannot splice recomputed
rows into cached per-superstep matrices the way the Pregel backend does.
What it *can* do after an in-place feature delta is replay only the delta's
**dependency closure**: walking backwards from the nodes whose final score
can change (the delta's k-hop out-reach), each round ``r`` must recompute
states for ``T[r] = T[r+1] ∪ in-neighbours(T[r+1])`` (replica-closed under
shadow nodes), and the whole pipeline restarts from the cached — already
patched — input records of ``T[0] ∪ in-neighbours(T[0])``.  Per-round
destination filters keep the scatter inside the closure, per-round group
filters drop carrier-only state records, and the final output records are
spliced into the score matrix cached by the last full run.

Unlike the Pregel path this is **tolerance-identical, not bit-identical**, to
a full recompute: the restricted run batches fewer records per mapper split /
reducer chunk, and BLAS accumulation order varies with matrix shape, so
recomputed rows can drift in the last ulp (observed ~1e-15, asserted well
inside the repo's 1e-9 equivalence tolerance).  Rows outside the closure
keep their cached bits, which a fresh full run reproduces exactly.
"""

from __future__ import annotations

from typing import AbstractSet, Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.batch.mapreduce import MapReduceJob, Record, TaskContext
from repro.cluster.layout import ClusterLayout
from repro.cluster.metrics import tensor_bytes
from repro.gnn.model import GNNModel
from repro.graph.graph import Graph
from repro.inference import gas
from repro.inference.shadow import ShadowNodePlan
from repro.inference.strategies import StrategyPlan

#: number of node groups processed together inside one reducer chunk; bounds
#: the reducer's working set (the "stream from external storage" property).
REDUCE_CHUNK_NODES = 4096


def _is_broadcast_key(key: Any) -> bool:
    return isinstance(key, tuple) and len(key) == 2 and key[0] == "bc"


def _partition_fn(key: Any, num_reducers: int) -> int:
    """Route node ids by modulo; broadcast payload keys carry their bucket."""
    return int(key[1] if _is_broadcast_key(key) else key) % num_reducers


class GNNRoundJob(MapReduceJob):
    """One MapReduce round = one GNN layer.

    Round 0's map is the paper's initialisation Map phase (encode + first
    scatter); later rounds use an identity map, because the previous round's
    reducers already emitted records keyed by their destination node.  The
    combiner on the map side implements partial-gather when the consuming
    layer allows it; the reducer runs the layer itself (and the prediction
    head on the last round).

    ``targets`` restricts the rounds to a dirty-region dependency closure
    (incremental inference); ``None`` means "everything".  ``targets[r]``
    lists the nodes whose states round ``r`` must recompute (``T[r]``): state
    records of carrier-only nodes are dropped before the reduce, so a node
    outside the closure can never propagate a state built from an incomplete
    message set, and the layer-``r`` scatter is bounded to ``targets[r]`` —
    the filter runs after shadow-replica expansion, so mirror-bound copies
    survive exactly when the (replica-closed) closure contains the mirror.
    """

    def __init__(self, model: GNNModel, plan: StrategyPlan,
                 shadow_plan: Optional[ShadowNodePlan], layer_index: int,
                 original_num_nodes: int, layout: ClusterLayout,
                 targets: Optional[Sequence[AbstractSet[int]]] = None) -> None:
        self.model = model
        self.plan = plan
        self.shadow_plan = shadow_plan
        self.layer_index = layer_index
        self.original_num_nodes = original_num_nodes
        self.layout = layout
        self.targets = targets
        self.is_init_round = layer_index == 0
        self.has_combiner = plan.layer(layer_index).partial_gather

    # ------------------------------------------------------------------ #
    def _emit_messages(self, layer_index: int, node_ids: np.ndarray, state: np.ndarray,
                       out_nbrs: List[np.ndarray], out_edge_feats: List[Optional[np.ndarray]],
                       context: TaskContext) -> List[Record]:
        """Layer ``layer_index`` message records for the given nodes' out-edges.

        The scatter is columnar — one ``edge_messages`` call over the batch's
        concatenated edge rows, one shared split/fan-out — and the only Python
        iteration left builds the record tuples the engine shuffles: plain
        messages first, then per broadcasting hub one payload per destination
        bucket (so every reducer that will see a ref also gets the payload)
        followed by its id-only refs.
        """
        sizes = np.fromiter((nbrs.size for nbrs in out_nbrs), dtype=np.int64,
                            count=len(out_nbrs))
        if not sizes.sum():
            return []
        node_pos = np.repeat(np.arange(len(out_nbrs), dtype=np.int64), sizes)
        all_dst = np.concatenate([np.asarray(nbrs, dtype=np.int64) for nbrs in out_nbrs])
        feats = [out_edge_feats[position] for position in np.nonzero(sizes)[0]]
        edge_features = None
        if any(f is not None for f in feats):
            if any(f is None for f in feats):
                raise ValueError(
                    "mixed edge-feature availability across nodes in one batch")
            edge_features = np.concatenate(feats, axis=0)

        messages, units = gas.edge_messages(self.model.layers[layer_index], state,
                                            node_pos, edge_features)
        context.add_compute(units)
        source_ids = node_ids[node_pos]
        routed = gas.scatter(self.plan.layer(layer_index), self.plan.out_degree_hubs,
                             self.shadow_plan, source_ids, all_dst, inline=True)

        payload_rows = messages[routed.plain_rows]
        outputs: List[Record] = [(dst, ("m", payload_rows[index], 1))
                                 for index, dst in enumerate(routed.plain_dst.tolist())]
        # One iteration per hub *node* (rare), never per edge row; edges are
        # grouped by source and hubs come in first-appearance order, so each
        # hub's refs are one contiguous slice.
        bounds = np.searchsorted(routed.hub_refs, np.arange(routed.hub_rows.size + 1))
        for hub, row in enumerate(routed.hub_rows.tolist()):
            node_id = int(source_ids[row])
            dst = routed.hub_dst[bounds[hub]:bounds[hub + 1]]
            outputs.extend((("bc", bucket), ("p", node_id, messages[row]))
                           for bucket in np.unique(self.layout.owners(dst)).tolist())
            outputs.extend((d, ("r", node_id, 1)) for d in dst.tolist())
        if self.targets is not None:
            outputs = _filter_scatter_records(outputs, self.targets[layer_index],
                                              self.layout)
        return outputs

    # ------------------------------------------------------------------ #
    def map_partition(self, records: List[Record], context: TaskContext) -> Iterable[Record]:
        if not self.is_init_round or not records:
            # Identity map: records already carry their destination node key.
            return list(records)
        node_ids = np.asarray([key for key, _ in records], dtype=np.int64)
        features = np.stack([value[0] for _, value in records])
        out_nbrs = [value[1] for _, value in records]
        out_edge_feats = [value[2] for _, value in records]

        state, units = gas.encode(self.model, features)
        context.add_compute(units)
        context.observe_memory(tensor_bytes(state.shape) + float(features.nbytes))

        outputs: List[Record] = [
            (node_id, ("s", state[position], out_nbrs[position], out_edge_feats[position]))
            for position, node_id in enumerate(node_ids.tolist())]
        outputs.extend(self._emit_messages(0, node_ids, state, out_nbrs, out_edge_feats, context))
        return outputs

    def combine(self, key: Any, values: List[Any], context: TaskContext) -> Iterable[Record]:
        return _combine_messages(self.model, self.plan, self.layer_index, key, values)

    # ------------------------------------------------------------------ #
    def reduce_partition(self, groups: List[Tuple[Any, List[Any]]],
                         context: TaskContext) -> Iterable[Record]:
        compute_keep = None if self.targets is None else self.targets[self.layer_index]
        # Broadcast payload lookup for this reducer instance.
        payload_lookup: Dict[int, np.ndarray] = {}
        node_groups: List[Tuple[int, List[Any]]] = []
        for key, values in groups:
            if _is_broadcast_key(key):
                for value in values:
                    payload_lookup[int(value[1])] = value[2]
            elif compute_keep is None or int(key) in compute_keep:
                node_groups.append((int(key), values))

        outputs: List[Record] = []
        for start in range(0, len(node_groups), REDUCE_CHUNK_NODES):
            chunk = node_groups[start:start + REDUCE_CHUNK_NODES]
            outputs.extend(self._reduce_chunk(chunk, payload_lookup, context))
        return outputs

    def _reduce_chunk(self, chunk: List[Tuple[int, List[Any]]],
                      payload_lookup: Dict[int, np.ndarray],
                      context: TaskContext) -> List[Record]:
        layer = self.model.layers[self.layer_index]
        states: List[np.ndarray] = []
        out_nbrs: List[np.ndarray] = []
        out_edge_feats: List[Optional[np.ndarray]] = []
        message_rows: List[np.ndarray] = []
        message_dst: List[int] = []
        message_counts: List[int] = []

        for local_index, (node_id, values) in enumerate(chunk):
            state_row = None
            nbrs: np.ndarray = np.empty(0, dtype=np.int64)
            edge_feats = None
            for value in values:
                kind = value[0]
                if kind == "s":
                    state_row, nbrs, edge_feats = value[1], value[2], value[3]
                elif kind in ("m", "r"):
                    row = value[1] if kind == "m" else payload_lookup.get(int(value[1]))
                    if row is None:
                        raise RuntimeError(
                            f"broadcast payload for hub {value[1]} missing on reducer")
                    message_rows.append(row)
                    message_dst.append(local_index)
                    message_counts.append(int(value[2]))
            if state_row is None:
                # A node that only ever appears as a message destination but has
                # no own record cannot exist: the init map emits a state record
                # for every node in the node table.
                raise RuntimeError(f"state record missing for node {node_id}")
            states.append(state_row)
            out_nbrs.append(nbrs)
            out_edge_feats.append(edge_feats)

        node_ids = np.asarray([node_id for node_id, _ in chunk], dtype=np.int64)
        state_matrix = np.stack(states)
        payload = np.stack(message_rows) if message_rows else np.zeros((0, 0))
        new_state, units = gas.gather_apply(
            layer, state_matrix, payload, np.asarray(message_dst, dtype=np.int64),
            np.asarray(message_counts, dtype=np.int64))
        context.add_compute(units)
        context.observe_memory(
            tensor_bytes(new_state.shape) + tensor_bytes(state_matrix.shape)
            + float(payload.nbytes))

        if self.layer_index == self.model.num_layers - 1:
            logits, units = gas.predict(self.model, new_state)
            context.add_compute(units)
            return [(node_id, ("o", logits[position]))
                    for position, node_id in enumerate(node_ids.tolist())
                    if node_id < self.original_num_nodes]
        outputs: List[Record] = [
            (node_id, ("s", new_state[position], out_nbrs[position],
                       out_edge_feats[position]))
            for position, node_id in enumerate(node_ids.tolist())]
        outputs.extend(self._emit_messages(
            self.layer_index + 1, node_ids, new_state, out_nbrs, out_edge_feats, context))
        return outputs


def _combine_messages(model: GNNModel, plan: StrategyPlan, layer_index: int,
                      key: Any, values: List[Any]) -> List[Record]:
    """Mapper-side combiner implementing partial-gather for message records.

    Only plain ``("m", payload, count)`` records are folded; state records,
    broadcast refs and broadcast payloads pass through unchanged.  The fold
    uses the consuming layer's ``partial_reduce`` so the semantics (sum vs
    max, count bookkeeping for mean) always match the layer.
    """
    strategy = plan.layer(layer_index)
    if not strategy.partial_gather:
        return [(key, value) for value in values]
    layer = model.layers[layer_index]
    passthrough: List[Record] = []
    payloads: List[np.ndarray] = []
    counts: List[int] = []
    for value in values:
        if isinstance(value, tuple) and value and value[0] == "m":
            payloads.append(value[1])
            counts.append(int(value[2]))
        else:
            passthrough.append((key, value))
    if len(payloads) <= 1:
        if payloads:
            passthrough.append((key, ("m", payloads[0], counts[0])))
        return passthrough
    folded, total = layer.partial_reduce(np.stack(payloads), np.asarray(counts))
    passthrough.append((key, ("m", folded, total)))
    return passthrough


def _input_record(model: GNNModel, working_graph: Graph, node_id: int) -> Record:
    """``(node_id, (feature_row, out_nbrs, out_edge_feats))`` from the graph."""
    edge_feats = None
    if working_graph.edge_features is not None:
        edge_feats = working_graph.edge_features[working_graph.out_edge_ids(node_id)]
    features = (working_graph.node_features[node_id]
                if working_graph.node_features is not None
                else np.zeros(model.encoder.in_features))
    return node_id, (features, working_graph.out_neighbors(node_id).copy(), edge_feats)


def build_input_records(model: GNNModel, working_graph: Graph) -> List[Record]:
    """Ingest the (possibly shadow-expanded) node table into input records.

    This per-node scan is the expensive part of MapReduce preparation; a
    session builds the records once at ``prepare()`` time and replays them on
    every execution.  The rounds never mutate record arrays in place, so the
    cached records can be reused safely.
    """
    return [_input_record(model, working_graph, node_id)
            for node_id in range(working_graph.num_nodes)]


def patch_input_records(input_records: List[Record], model: GNNModel,
                        working_graph: Graph, node_ids: np.ndarray) -> None:
    """Rebuild the cached records of ``node_ids`` after an in-place delta.

    ``input_records`` is id-indexed (``input_records[g][0] == g`` — the
    invariant :func:`build_input_records` establishes and the rounds never
    break), so the patch is one direct scatter.  ``node_ids`` are the
    working-graph nodes whose feature row changed (replica-closed — mirror
    rows are separate records) or whose *out-edge* set changed (removed
    edges' sources plus the — already mirror-assigned — sources of appended
    edges).  Each gets the record a fresh :func:`build_input_records` over
    the patched graph would produce, byte for byte:
    :meth:`~repro.graph.graph.Graph._build_index` sorts edges by source with
    a *stable* argsort, so the rebuilt adjacency payload keeps edge order.
    """
    for g in np.unique(np.asarray(node_ids, dtype=np.int64)).tolist():
        if int(input_records[g][0]) != g:
            raise RuntimeError(
                f"input_records are no longer id-indexed (record {g} is keyed "
                f"{input_records[g][0]}); re-plan instead of patching")
        input_records[g] = _input_record(model, working_graph, g)


def collect_scores(records: Iterable[Record], scores: np.ndarray) -> np.ndarray:
    """Write a final round's ``("o", logits_row)`` records into ``scores``."""
    for key, value in records:
        if isinstance(value, tuple) and value and value[0] == "o":
            scores[int(key)] = value[1]
    return scores


# --------------------------------------------------------------------------- #
# incremental inference: dependency-closure replay over the cached records
# --------------------------------------------------------------------------- #
def _filter_scatter_records(records: List[Record], keep: AbstractSet[int],
                            layout: ClusterLayout) -> List[Record]:
    """Drop scattered messages bound outside ``keep`` (post shadow expansion).

    Plain ``("m", ...)`` messages and broadcast ``("r", ...)`` refs are kept
    iff their destination survives; broadcast ``("p", ...)`` payloads are kept
    only for ``(hub, bucket)`` pairs some surviving ref still needs, using the
    same bucket resolution the emitter used.
    """
    kept: List[Record] = []
    payloads: List[Record] = []
    hub_buckets: Set[Tuple[int, int]] = set()
    for key, value in records:
        if _is_broadcast_key(key):
            payloads.append((key, value))
            continue
        dst = int(key)
        if dst not in keep:
            continue
        kept.append((key, value))
        if value[0] == "r":
            hub_buckets.add((int(value[1]), int(layout.owner_of[dst])))
    kept.extend((key, value) for key, value in payloads
                if (int(value[1]), int(key[1])) in hub_buckets)
    return kept


def _in_neighbors_of(working_graph: Graph, node_ids: np.ndarray) -> np.ndarray:
    """Sources with an out-edge into ``node_ids`` (one isin pass over dst).

    ``dst`` arrays only ever carry original ids (mirror fan-out happens at
    scatter time), so a replica-closed ``node_ids`` — which always contains
    the origin of each of its mirrors — needs no extra translation here.
    """
    if node_ids.size == 0 or working_graph.num_edges == 0:
        return np.empty(0, dtype=np.int64)
    mask = np.isin(working_graph.dst, node_ids)
    return np.unique(working_graph.src[mask])


def dependency_closure(working_graph: Graph, frontiers: Sequence[np.ndarray],
                       shadow_plan: Optional[ShadowNodePlan],
                       ) -> Tuple[List[np.ndarray], np.ndarray]:
    """Per-round recompute targets and the input records a replay starts from.

    ``frontiers`` are the delta's per-superstep dirty frontiers
    (:func:`~repro.inference.delta.expand_frontier`, one more than there are
    layers).  Walking backwards from the changed final states, round ``r``
    must recompute ``T[r] = T[r+1] ∪ in-neighbours(T[r+1])`` (replica-closed);
    the input closure adds ``T[0]``'s message sources.
    """
    def close(ids: np.ndarray) -> np.ndarray:
        if shadow_plan is None or not shadow_plan.has_mirrors:
            return ids
        return shadow_plan.replicas_of(ids)

    def with_sources(ids: np.ndarray) -> np.ndarray:
        return close(np.union1d(ids, _in_neighbors_of(working_graph, ids)))

    targets = [frontiers[-1]]
    for _ in range(len(frontiers) - 2):
        targets.insert(0, with_sources(targets[0]))
    return targets, with_sources(targets[0])
