"""The GAS stages of GNN inference, each implemented exactly once.

One layer per iteration: **gather** the in-messages, **apply_node**, then
**apply_edge** + **scatter** the next layer's messages (``scatter_blocks``
runs the two and packs the result as message blocks); ``encode`` opens the
pipeline and ``predict`` closes it.  Every function here takes raw ndarrays
(state rows, edge endpoints, message rows), runs under ``no_grad`` and returns
arrays plus the compute units the stage costs.  None of them knows which
backend called: both run them through one partition program (the Pregel
adaptor's), which feeds them a mailbox and keeps state in ``block_state``;
the MapReduce round driver only prices that data flow as shuffled records.

``encode`` and ``gather_apply`` take an optional ``rows`` set (incremental
inference) and compute and charge exactly those rows, bit-equal to
``stage(...)[rows]`` because every op in a layer is exact per row at any
shape — the matmul included (:data:`~repro.tensor.tensor.ROW_BLOCK`);
``predict`` is given the rows' state itself.  The
edge stages take the edge arrays they are given: a caller that sends only
some edges passes those edges' arrays and a :class:`Routed` over them (the
Pregel adaptor selects both from its resident send schedule).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.cluster.cost_model import gnn_layer_compute_units
from repro.gnn.gasconv import GASConv
from repro.gnn.model import GNNModel
from repro.inference.shadow import ReplicaMap
from repro.inference.strategies import (
    BroadcastMessageBlock,
    LayerStrategy,
    StrategyPlan,
    split_hub_edges,
)
from repro.pregel.vertex import MessageBlock
from repro.tensor.tensor import Tensor, no_grad

_EMPTY = np.empty(0, dtype=np.int64)


def splice(cached: np.ndarray, part: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Write the rows-shaped ``part`` into ``rows`` of ``cached``; return ``cached``."""
    cached[rows] = part
    return cached


@no_grad()
def encode(model: GNNModel, features: np.ndarray,
           rows: Optional[np.ndarray] = None) -> Tuple[np.ndarray, float]:
    """Raw feature rows → layer-0 input state."""
    encoder = model.encoder
    if rows is not None:
        features = features[rows]
    state = (model.encode(Tensor(features)).data if features.shape[0]
             else np.zeros((0, encoder.out_features)))
    return state, features.shape[0] * encoder.in_features * encoder.out_features


@no_grad()
def gather_apply(layer: GASConv, state: np.ndarray, payload: np.ndarray,
                 dst_index: np.ndarray, counts: np.ndarray,
                 rows: Optional[np.ndarray] = None) -> Tuple[np.ndarray, float]:
    """``gather`` + ``apply_node`` over one block of destination rows.

    ``payload[i]`` is a message (standing for ``counts[i]`` raw ones after
    partial-gather) for ``state`` row ``dst_index[i]``.  Message order per
    destination is the caller's: segment reductions are order-sensitive, so
    the transport decides the bits, never this function.  With ``rows`` every
    message must be for one of them (else ``IndexError``).
    """
    if rows is not None:
        position = np.full(state.shape[0], -1, dtype=np.int64)
        position[rows] = np.arange(rows.size)
        state, dst_index = state[rows], position[dst_index]
    num_nodes = state.shape[0]
    if payload.shape[0] == 0:
        payload = np.zeros((0, layer.message_dim))
    aggr = layer.gather(Tensor(payload), dst_index, num_nodes, counts)
    new_state = layer.apply_node(Tensor(state), aggr).data
    return new_state, gnn_layer_compute_units(
        num_messages=payload.shape[0], message_dim=layer.message_dim,
        num_nodes=num_nodes, in_dim=layer.in_dim, out_dim=layer.output_dim)


@no_grad()
def edge_messages(layer: GASConv, state: np.ndarray, src_pos: np.ndarray,
                  edge_features: Optional[np.ndarray]) -> Tuple[np.ndarray, float]:
    """``apply_edge`` over out-edges: one message row per edge.

    ``src_pos[e]`` is the ``state`` row of edge ``e``'s source.  The cost is
    one pass over every outgoing message element; per-edge projections are
    folded into that rate.
    """
    edge_tensor = None if edge_features is None else Tensor(edge_features)
    messages = layer.apply_edge(Tensor(state[src_pos]), edge_tensor).data
    return messages, messages.shape[0] * messages.shape[1]


class Routed(NamedTuple):
    """Where one scatter's messages go, as index arrays into its edge rows.

    Per-edge path: output message ``i`` carries ``messages[plain_rows[i]]`` to
    ``plain_dst[i]``.  Broadcast path: hub ``k``'s one shared payload is
    ``messages[hub_rows[k]]`` (hubs in first-appearance order; any edge of
    the hub gives the same payload) and reference ``j``, standing for edge
    ``ref_rows[j]``, delivers hub ``hub_refs[j]``'s payload to ``hub_dst[j]``.
    Destinations already include the shadow-mirror fan-out.
    """

    plain_rows: np.ndarray
    plain_dst: np.ndarray
    hub_rows: np.ndarray
    hub_refs: np.ndarray
    hub_dst: np.ndarray
    ref_rows: np.ndarray


def _fan_out(replicas: Optional[ReplicaMap],
             dst_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(row_index, expanded_dst)``: every destination plus its mirrors.

    Untouched rows first, then the replicas — the operand order the
    receivers' segment reductions see, frozen by the bit-identity contracts.
    """
    rows = np.arange(dst_ids.shape[0], dtype=np.int64)
    if replicas is None or not replicas.has_mirrors:
        return rows, dst_ids
    expanded_dst, row_index, _ = replicas.expand_destinations(dst_ids, rows)
    return row_index, expanded_dst


def scatter(strategy: LayerStrategy, plan: StrategyPlan,
            replicas: Optional[ReplicaMap], source_ids: np.ndarray,
            dst_ids: np.ndarray) -> Routed:
    """Split out-edge rows into per-edge and broadcast paths; fan out mirrors.

    The index-only half of :func:`scatter_blocks`: it reads topology and
    plan, never a state value.  An edge takes the broadcast path iff the
    layer's strategy enables it and its source is one of ``plan``'s
    out-degree hubs (read off :attr:`StrategyPlan.is_hub`) —
    ``LayerStrategy.broadcast`` already excludes layers whose messages depend
    on edge features, so this is the whole rule, on every backend.
    """
    if strategy.broadcast and plan.out_degree_hubs.size:
        hub_edges, plain_edges = split_hub_edges(source_ids, plan.is_hub)
    else:
        hub_edges, plain_edges = _EMPTY, np.arange(dst_ids.shape[0])
    plain_index, plain_dst = _fan_out(replicas, dst_ids[plain_edges])
    if hub_edges.size == 0:
        return Routed(plain_edges[plain_index], plain_dst, _EMPTY, _EMPTY, _EMPTY, _EMPTY)
    # Every out-edge of a hub carries the same payload: keep one row per hub
    # (its first edge) and an integer reference per edge.
    _, first, inverse = np.unique(source_ids[hub_edges], return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    hub_index, hub_dst = _fan_out(replicas, dst_ids[hub_edges])
    return Routed(plain_edges[plain_index], plain_dst,
                  hub_edges[first[order]], rank[inverse][hub_index],
                  hub_dst, hub_edges[hub_index])


def scatter_blocks(model: GNNModel, plan: StrategyPlan,
                   replicas: Optional[ReplicaMap], layer_index: int,
                   state: np.ndarray, src_pos: np.ndarray, source_ids: np.ndarray,
                   dst_ids: np.ndarray, edge_features: Optional[np.ndarray],
                   routed: Optional[Routed] = None) -> Tuple[List[MessageBlock], float]:
    """``apply_edge`` + ``scatter`` as the blocks a transport ships, plus the cost.

    Edge ``e`` runs from ``state`` row ``src_pos[e]`` (node ``source_ids[e]``)
    to node ``dst_ids[e]``; every edge given is computed and charged.  What
    comes back is layer ``layer_index``'s per-edge messages as one plain
    :class:`~repro.pregel.vertex.MessageBlock`, then the hub messages as one
    :class:`~repro.inference.strategies.BroadcastMessageBlock` (one payload
    row per hub, an id-only reference per edge) — whichever of the two have
    rows.

    :func:`scatter` is the index-only half (pass a ``routed`` over these
    edges to skip it); the rest only gathers values.  The plain block is
    row-indexed (:class:`~repro.pregel.vertex.MessageBlock` ``rows``) into
    the table its messages come from: ``state`` itself when ``apply_edge``
    is the identity — a message *is* its source's state row — else the
    edges' message table (:func:`edge_messages`), which only a projecting
    layer builds.  So no per-message table exists until a combiner folds
    the rows or ``route`` cuts them.  Same bytes, same units either way.
    """
    if routed is None:
        routed = scatter(plan.layer(layer_index), plan, replicas,
                         source_ids, dst_ids)
    layer = model.layers[layer_index]
    if not layer.apply_edge_is_identity(edge_features is not None):
        table, units = edge_messages(layer, state, src_pos, edge_features)
        plain_rows, hub_rows = routed.plain_rows, routed.hub_rows
    else:
        table, plain_rows, hub_rows = state, src_pos[routed.plain_rows], src_pos[routed.hub_rows]
        units = src_pos.shape[0] * state.shape[1]
    blocks = [MessageBlock(routed.plain_dst, table, rows=plain_rows),
              BroadcastMessageBlock(routed.hub_dst, table[hub_rows], rows=routed.hub_refs)]
    return [block for block in blocks if block.num_records()], units


@no_grad()
def predict(model: GNNModel, state: np.ndarray) -> Tuple[np.ndarray, float]:
    """Last layer's state rows → their logits (the prediction head)."""
    logits = (model.predict(Tensor(state)).data if state.shape[0]
              else np.zeros((0, model.output_dim)))
    return logits, state.shape[0] * state.shape[1] * max(logits.shape[1], 1)
