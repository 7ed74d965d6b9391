"""The GAS stage module, driven directly — no backend, no engine, no records.

One tiny hub graph, shadow mirrors on, the whole working graph treated as a
single partition, odd widths throughout (hidden 17, 3 heads, 3 classes).
``edge_messages → scatter → gather_apply`` must reproduce
``layer.forward(...)`` over the *original* graph bit for bit,
and every stage's row-subset path must compute exactly the corresponding rows
of its full path — the two facts both adaptors (full and incremental) build on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cost_model import gnn_layer_compute_units
from repro.gnn.model import build_model
from repro.graph.graph import Graph
from repro.inference import gas
from repro.inference.backends import merge_hub_mirrors
from repro.inference.config import StrategyConfig
from repro.inference.shadow import apply_shadow_nodes
from repro.inference.strategies import build_strategy_plan
from repro.tensor.tensor import Tensor, no_grad

NUM_NODES = 40
HUBS = (0, 1)
THRESHOLD = 6
WORKERS = 4
HIDDEN = 17
HEADS = 3


def hub_graph(edge_dim: int) -> Graph:
    """Random sparse edges first, then two out-degree hubs' edges.

    Hub edges come last on purpose: the scatter delivers the per-edge block
    before the broadcast block, so a destination sees its in-messages in
    *edge order* — and therefore sums them to the same bits as the reference
    forward pass — exactly when no hub edge precedes a plain one.
    """
    rng = np.random.default_rng(11)
    plain_src = rng.integers(len(HUBS), NUM_NODES, size=60)
    plain_dst = rng.integers(0, NUM_NODES, size=60)      # hubs receive too
    hub_src = np.repeat(HUBS, 17)
    hub_dst = rng.integers(len(HUBS), NUM_NODES, size=hub_src.size)
    src = np.concatenate([plain_src, hub_src])
    dst = np.concatenate([plain_dst, hub_dst])
    edge_features = rng.normal(size=(src.size, edge_dim)) if edge_dim else None
    return Graph(src, dst, node_features=rng.normal(size=(NUM_NODES, 5)),
                 edge_features=edge_features, num_nodes=NUM_NODES)


def one_partition_layer(layer, strategy, plan, shadow, state):
    """Run one layer through the stages over the whole working graph."""
    working = shadow.graph
    messages, edge_units = gas.edge_messages(layer, state, working.src,
                                             working.edge_features)
    routed = gas.scatter(strategy, plan, shadow, working.src, working.dst)
    payload = np.concatenate([messages[routed.plain_rows],
                              messages[routed.hub_rows][routed.hub_refs]])
    dst_index = np.concatenate([routed.plain_dst, routed.hub_dst])
    new_state, node_units = gas.gather_apply(
        layer, state, payload, dst_index, np.ones(dst_index.size, dtype=np.int64))
    return new_state, messages, routed, payload, dst_index, edge_units, node_units


def hub_model_and_plan(arch, edge_dim):
    graph = hub_graph(edge_dim)
    model = build_model(arch, graph.feature_dim, HIDDEN, 3, num_layers=2,
                        heads=HEADS, edge_dim=edge_dim, seed=3)
    config = StrategyConfig(partial_gather=False, broadcast=True, shadow_nodes=True,
                            hub_threshold_override=THRESHOLD)
    plan = build_strategy_plan(model, graph, WORKERS, config, edge_dim > 0)
    shadow = apply_shadow_nodes(graph, plan.threshold, WORKERS)
    merge_hub_mirrors(plan, shadow)
    return graph, model, plan, shadow


@pytest.mark.parametrize("edge_dim", [0, 3], ids=["identity", "projecting"])
@pytest.mark.parametrize("arch", ["gcn", "sage", "gat"])
def test_stages_reproduce_the_reference_layer_and_its_row_subsets(arch, edge_dim):
    graph, model, plan, shadow = hub_model_and_plan(arch, edge_dim)
    assert shadow.num_mirrors >= 2 and set(HUBS) <= set(plan.out_degree_hubs.tolist())
    layer, strategy = model.layers[0], plan.layer(0)
    identity = layer.apply_edge_is_identity(edge_dim > 0)
    assert identity == (arch != "gat" and edge_dim == 0)
    assert strategy.broadcast == (edge_dim == 0)

    # ---- encode, full and over a row subset.
    encoded, units = gas.encode(model, graph.node_features)
    assert units == NUM_NODES * graph.feature_dim * HIDDEN
    some_nodes = np.array([8, 1, 7])
    again, subset_units = gas.encode(model, graph.node_features, some_nodes)
    assert again.tobytes() == encoded[some_nodes].tobytes()
    assert subset_units == some_nodes.size * graph.feature_dim * HIDDEN
    with no_grad():
        np.testing.assert_array_equal(
            encoded, model.encode(Tensor(graph.node_features)).data)

    # ---- one full layer over the single partition == the reference forward.
    state = encoded[shadow.origin_of]          # mirrors carry their origin's state
    new_state, messages, routed, payload, dst_index, edge_units, node_units = (
        one_partition_layer(layer, strategy, plan, shadow, state))
    with no_grad():
        edge_state = None if edge_dim == 0 else Tensor(graph.edge_features)
        expected = layer.forward(Tensor(encoded), graph.src, graph.dst,
                                 edge_state=edge_state).data
    np.testing.assert_array_equal(new_state[:NUM_NODES], expected)
    np.testing.assert_array_equal(new_state, new_state[shadow.origin_of])
    # hub edges took the broadcast path iff the layer may broadcast, one shared
    # payload per (mirror of a) hub; every hub in-message fanned out to mirrors.
    hub_edges = int(np.isin(shadow.graph.src, plan.out_degree_hubs).sum())
    assert routed.hub_dst.size == (hub_edges if strategy.broadcast else 0)
    assert routed.hub_rows.size == (np.unique(
        shadow.graph.src[np.isin(shadow.graph.src, plan.out_degree_hubs)]).size
        if strategy.broadcast else 0)
    fan_out = np.diff(shadow.replica_indptr)[shadow.graph.dst].sum()
    assert routed.plain_dst.size + routed.hub_dst.size == fan_out
    assert edge_units == graph.num_edges * layer.message_dim
    assert node_units == gnn_layer_compute_units(
        num_messages=fan_out, message_dim=layer.message_dim,
        num_nodes=shadow.graph.num_nodes, in_dim=layer.in_dim,
        out_dim=layer.output_dim)

    # ---- row subsets compute exactly the corresponding rows of the full path.
    edge_rows = np.array([80, 3, 0, 61, 59, 4, 60, graph.num_edges - 1])   # unsorted
    edge_features = shadow.graph.edge_features
    subset, subset_units = gas.edge_messages(
        layer, state, shadow.graph.src[edge_rows],
        None if edge_features is None else edge_features[edge_rows])
    assert subset.tobytes() == messages[edge_rows].tobytes()
    assert subset_units == edge_rows.size * layer.message_dim
    # a hub, a mirror and plain nodes, unsorted; every message bound for them
    frontier = np.array([30, 2, NUM_NODES, 9, 0, 5])
    keep = np.isin(dst_index, frontier)
    counts = np.ones(int(keep.sum()), dtype=np.int64)
    part, part_units = gas.gather_apply(layer, state, payload[keep], dst_index[keep],
                                        counts, frontier)
    assert part.tobytes() == new_state[frontier].tobytes()
    assert part_units == gnn_layer_compute_units(
        num_messages=counts.size, message_dim=layer.message_dim,
        num_nodes=frontier.size, in_dim=layer.in_dim, out_dim=layer.output_dim)
    cached = np.zeros_like(new_state)
    spliced = gas.splice(cached, part, frontier)
    np.testing.assert_array_equal(spliced[frontier], new_state[frontier])
    assert not spliced[np.setdiff1d(np.arange(new_state.shape[0]), frontier)].any()
    assert spliced is cached                   # splice writes into the cache, no copy

    # ---- predict closes the pipeline the same way.
    last = np.random.default_rng(5).normal(size=(6, model.layers[-1].output_dim))
    logits, units = gas.predict(model, last)
    tail, subset_units = gas.predict(model, last[[4, 1]])
    with no_grad():
        np.testing.assert_array_equal(logits, model.predict(Tensor(last)).data)
    assert tail.tobytes() == logits[[4, 1]].tobytes()
    assert (units, subset_units) == (6 * last.shape[1] * 3, 2 * last.shape[1] * 3)


@pytest.mark.parametrize("arch", ["gcn", "sage", "gat"])
def test_gather_apply_rejects_a_message_outside_its_rows(arch):
    """A message for a row the caller did not name is a transport bug: it
    raises instead of being dropped (or summed into some other row)."""
    graph, model, plan, shadow = hub_model_and_plan(arch, 0)
    state = gas.encode(model, graph.node_features)[0][shadow.origin_of]
    *_, payload, dst_index, _, _ = one_partition_layer(
        model.layers[0], plan.layer(0), plan, shadow, state)
    frontier = np.array([9, 2])
    stray = np.isin(dst_index, frontier) | (dst_index == 5)
    assert (dst_index[stray] == 5).any()
    with pytest.raises(IndexError):
        gas.gather_apply(model.layers[0], state, payload[stray], dst_index[stray],
                         np.ones(int(stray.sum()), dtype=np.int64), frontier)


@pytest.mark.parametrize("subset", [False, True], ids=["all-edges", "row-subset"])
@pytest.mark.parametrize("arch,edge_dim", [("gcn", 0), ("sage", 0), ("sage", 3), ("gat", 0)],
                         ids=["gcn", "sage", "sage-edge-features", "gat"])
def test_scatter_blocks_equals_edge_messages_then_slice(arch, edge_dim, subset):
    """``scatter_blocks`` against the composition it used to be, block by block.

    An identity ``apply_edge`` (GCN / SAGE without edge features) row-indexes
    the state itself; a projecting one still builds the message table.
    Either way every array of every (densified) block, and the units charged,
    equal ``edge_messages(...)[routed.*_rows]`` — with out-degree hubs on the
    broadcast path and their destinations fanned out to shadow mirrors.
    """
    graph = hub_graph(edge_dim)
    model = build_model(arch, graph.feature_dim, HIDDEN, 3, num_layers=2,
                        heads=HEADS, edge_dim=edge_dim, seed=3)
    plan = build_strategy_plan(model, graph, WORKERS, StrategyConfig(
        broadcast=True, shadow_nodes=True, hub_threshold_override=THRESHOLD), edge_dim > 0)
    shadow = apply_shadow_nodes(graph, plan.threshold, WORKERS)
    merge_hub_mirrors(plan, shadow)
    working = shadow.graph
    layer = model.layers[0]
    assert layer.apply_edge_is_identity(edge_dim > 0) == (arch != "gat" and edge_dim == 0)
    state = gas.encode(model, graph.node_features)[0][shadow.origin_of]
    # unsorted; hub sources repeat (rows 61/66/62, 60/65) and the destinations
    # of rows 4 and 21 have mirrors
    rows = np.array([80, 4, 61, 0, 59, 66, 60, 21, 62, 65]) if subset else None

    src, dst, edge_features = working.src, working.dst, working.edge_features
    if rows is not None:                        # an edge subset is its arrays' rows
        src, dst = src[rows], dst[rows]
        edge_features = None if edge_features is None else edge_features[rows]
    blocks, units = gas.scatter_blocks(model, plan, shadow, 0, state, src, src, dst,
                                       edge_features)

    messages, expected_units = gas.edge_messages(layer, state, src, edge_features)
    routed = gas.scatter(plan.layer(0), plan, shadow, src, dst)
    assert units == expected_units and type(units) is type(expected_units)
    plain = blocks[0]
    assert type(plain) is gas.MessageBlock
    if layer.apply_edge_is_identity(edge_dim > 0):    # row-indexed into the state itself
        assert plain.payload is state
    np.testing.assert_array_equal(plain.dst_ids, routed.plain_dst)
    np.testing.assert_array_equal(plain.dense_payload(), messages[routed.plain_rows])
    np.testing.assert_array_equal(plain.counts, np.ones(routed.plain_dst.size, np.int64))
    assert np.unique(routed.plain_rows).size < routed.plain_rows.size   # mirror fan-out
    if plan.layer(0).broadcast:
        assert 2 <= routed.hub_rows.size < routed.hub_refs.size   # shared payloads
        shared = blocks[1]
        assert type(shared) is gas.BroadcastMessageBlock
        np.testing.assert_array_equal(shared.dst_ids, routed.hub_dst)
        np.testing.assert_array_equal(shared.rows, routed.hub_refs)
        np.testing.assert_array_equal(shared.payload, messages[routed.hub_rows])
        np.testing.assert_array_equal(shared.counts, np.ones(routed.hub_dst.size, np.int64))
    else:
        assert len(blocks) == 1 and routed.hub_rows.size == 0


def test_empty_inputs_keep_their_widths():
    """A partition that owns nothing still produces correctly shaped blocks."""
    model = build_model("sage", 5, HIDDEN, 3, num_layers=2, seed=0)
    state, units = gas.encode(model, np.zeros((0, 5)))
    assert state.shape == (0, HIDDEN) and units == 0
    layer = model.layers[0]
    empty = np.empty(0, dtype=np.int64)
    new_state, units = gas.gather_apply(layer, np.ones((3, HIDDEN)), np.zeros((0, 0)),
                                        empty, empty)
    assert new_state.shape == (3, HIDDEN)
    assert units == 3 * layer.in_dim * layer.output_dim      # no messages gathered
    logits, units = gas.predict(model, np.zeros((0, HIDDEN)))
    assert logits.shape == (0, 3) and units == 0
