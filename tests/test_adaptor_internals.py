"""White-box tests for what the backend adaptors still own: the transport.

Record formats and shuffle keys on the MapReduce side, mailbox assembly and
block packaging on the Pregel side.  The stages themselves are tested in
``test_gas_stages.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch.mapreduce import TaskContext
from repro.gnn.model import build_model
from repro.graph.generators import labeled_community_graph, star_graph
from repro.cluster.layout import ClusterLayout
from repro.graph.partition import HashPartitioner
from repro.inference import InferenceConfig, InferenceSession, StrategyConfig
from repro.inference.mapreduce_adaptor import (
    GNNRoundJob,
    _combine_messages,
    _filter_scatter_records,
    _partition_fn,
)
from repro.inference.pregel_adaptor import GNNInferenceProgram
from repro.inference.strategies import BroadcastMessageBlock, build_strategy_plan
from repro.pregel.engine import PregelEngine
from repro.pregel.vertex import MessageBlock


@pytest.fixture()
def graph():
    return labeled_community_graph(num_nodes=60, num_classes=3, feature_dim=6,
                                   avg_degree=4.0, seed=2)


@pytest.fixture()
def layout(graph):
    return ClusterLayout.build(graph.num_nodes, HashPartitioner(4))


@pytest.fixture()
def sage(graph):
    return build_model("sage", graph.feature_dim, 8, 3, num_layers=2, seed=0)


@pytest.fixture()
def gat(graph):
    return build_model("gat", graph.feature_dim, 8, 3, num_layers=2, seed=0)


class TestPartitionFn:
    def test_integer_keys_by_modulo(self):
        assert _partition_fn(13, 4) == 1
        assert _partition_fn(8, 4) == 0

    def test_broadcast_keys_carry_bucket(self):
        assert _partition_fn(("bc", 2), 8) == 2
        assert _partition_fn(("bc", 11), 8) == 3


class TestCombineMessages:
    def test_folds_only_message_records(self, graph, sage):
        plan = build_strategy_plan(sage, graph, 4, StrategyConfig(partial_gather=True), False)
        values = [("m", np.ones(8), 1), ("m", np.ones(8) * 3, 1),
                  ("s", np.zeros(8), np.array([1]), None)]
        combined = _combine_messages(sage, plan, 0, 7, values)
        kinds = sorted(value[0] for _, value in combined)
        assert kinds == ["m", "s"]
        message = [value for _, value in combined if value[0] == "m"][0]
        np.testing.assert_allclose(message[1], np.ones(8) * 4)
        assert message[2] == 2

    def test_passthrough_when_partial_gather_disabled(self, graph, sage):
        plan = build_strategy_plan(sage, graph, 4, StrategyConfig(partial_gather=False), False)
        values = [("m", np.ones(8), 1), ("m", np.ones(8), 1)]
        combined = _combine_messages(sage, plan, 0, 7, values)
        assert len(combined) == 2

    def test_single_message_kept_as_is(self, graph, sage):
        plan = build_strategy_plan(sage, graph, 4, StrategyConfig(partial_gather=True), False)
        combined = _combine_messages(sage, plan, 0, 7, [("m", np.ones(8), 2)])
        assert combined[0][1][2] == 2

    def test_gat_never_combines(self, graph, gat):
        plan = build_strategy_plan(gat, graph, 4, StrategyConfig(partial_gather=True), False)
        values = [("m", np.ones(gat.layers[0].message_dim), 1)] * 3
        combined = _combine_messages(gat, plan, 0, 7, values)
        assert len(combined) == 3


class TestGNNRoundJob:
    def test_identity_map_for_later_rounds(self, graph, sage, layout):
        plan = build_strategy_plan(sage, graph, 4, StrategyConfig(), False)
        job = GNNRoundJob(sage, plan, None, 1, graph.num_nodes, layout)
        records = [(3, ("m", np.ones(8), 1))]
        assert list(job.map_partition(records, TaskContext("map", 0))) == records

    def test_init_round_emits_state_and_messages(self, graph, sage, layout):
        plan = build_strategy_plan(sage, graph, 4, StrategyConfig(), False)
        job = GNNRoundJob(sage, plan, None, 0, graph.num_nodes, layout)
        node_id = 0
        neighbors = graph.out_neighbors(node_id)
        records = [(node_id, (graph.node_features[node_id], neighbors, None))]
        context = TaskContext("map", 0)
        emitted = list(job.map_partition(records, context))
        kinds = [value[0] for _, value in emitted]
        assert kinds.count("s") == 1
        assert kinds.count("m") == neighbors.size
        # ("s", h_row, out_nbrs, out_edge_feats) keyed by the node itself;
        # ("m", payload_row, count) keyed by the destination.
        key, (_, h_row, out_nbrs, out_edge_feats) = emitted[0]
        assert key == node_id and h_row.shape == (8,) and out_edge_feats is None
        np.testing.assert_array_equal(out_nbrs, neighbors)
        assert [key for key, value in emitted if value[0] == "m"] == neighbors.tolist()
        assert all(value[2] == 1 for _, value in emitted if value[0] == "m")
        # encode + one pass over the outgoing message elements
        assert context.compute_units == graph.feature_dim * 8 + neighbors.size * 8

    def test_hub_emits_one_payload_per_bucket_plus_refs(self):
        star = star_graph(40, direction="out", seed=0)
        model = build_model("sage", star.feature_dim, 8, 2, num_layers=2, seed=0)
        layout = ClusterLayout.build(star.num_nodes, HashPartitioner(4))
        plan = build_strategy_plan(model, star, 4, StrategyConfig(
            broadcast=True, hub_threshold_override=10), False)
        job = GNNRoundJob(model, plan, None, 0, star.num_nodes, layout)
        neighbors = star.out_neighbors(0)
        emitted = list(job.map_partition(
            [(0, (star.node_features[0], neighbors, None))], TaskContext("map", 0)))
        payloads = [(key, value) for key, value in emitted if value[0] == "p"]
        refs = [(key, value) for key, value in emitted if value[0] == "r"]
        # ("p", hub_id, payload_row) keyed ("bc", bucket): once per bucket;
        # ("r", hub_id, count) keyed by destination: once per out-edge.
        assert sorted(key for key, _ in payloads) == [
            ("bc", bucket) for bucket in np.unique(layout.owners(neighbors)).tolist()]
        assert [key for key, _ in refs] == neighbors.tolist()
        assert all(value[1] == 0 and value[2] == 1 for _, value in refs)
        assert not any(value[0] == "m" for _, value in emitted)

    def test_edge_features_the_layer_ignores_do_not_block_broadcast(self):
        """One rule on every backend: ``LayerStrategy.broadcast`` decides.  A
        model without an edge projection sends identical payloads along every
        hub out-edge even when the records carry edge features."""
        star = star_graph(40, direction="out", seed=0)
        model = build_model("sage", star.feature_dim, 8, 2, num_layers=2, seed=0)
        layout = ClusterLayout.build(star.num_nodes, HashPartitioner(4))
        plan = build_strategy_plan(model, star, 4, StrategyConfig(
            broadcast=True, hub_threshold_override=10), has_edge_features=True)
        assert plan.layer(0).broadcast
        job = GNNRoundJob(model, plan, None, 0, star.num_nodes, layout)
        neighbors = star.out_neighbors(0)
        edge_feats = np.ones((neighbors.size, 3))
        emitted = list(job.map_partition(
            [(0, (star.node_features[0], neighbors, edge_feats))], TaskContext("map", 0)))
        assert [value[0] for _, value in emitted].count("r") == neighbors.size
        assert not any(value[0] == "m" for _, value in emitted)

    def test_scatter_filter_keeps_payloads_only_for_surviving_refs(self, layout):
        owner = layout.owner_of
        keep_dst = 5
        other = next(g for g in range(layout.num_nodes) if owner[g] != owner[keep_dst])
        payload = np.ones(3)
        records = [(keep_dst, ("m", payload, 1)), (other, ("m", payload, 1)),
                   (("bc", int(owner[keep_dst])), ("p", 9, payload)),
                   (("bc", int(owner[other])), ("p", 9, payload)),
                   (keep_dst, ("r", 9, 1)), (other, ("r", 9, 1))]
        kept = _filter_scatter_records(records, {keep_dst}, layout)
        assert [(key, value[0]) for key, value in kept] == [
            (keep_dst, "m"), (keep_dst, "r"), (("bc", int(owner[keep_dst])), "p")]

    def test_combiner_flag_follows_plan(self, graph, sage, gat, layout):
        sage_plan = build_strategy_plan(sage, graph, 4, StrategyConfig(partial_gather=True), False)
        gat_plan = build_strategy_plan(gat, graph, 4, StrategyConfig(partial_gather=True), False)
        assert GNNRoundJob(sage, sage_plan, None, 0, graph.num_nodes, layout).has_combiner
        assert not GNNRoundJob(gat, gat_plan, None, 0, graph.num_nodes, layout).has_combiner


class TestPregelProgram:
    def test_supersteps_equal_layers_plus_one(self, graph, sage):
        plan = build_strategy_plan(sage, graph, 4, StrategyConfig(), False)
        program = GNNInferenceProgram(sage, plan)
        assert program.max_supersteps() == 3

    def test_combiner_only_for_partial_layers(self, graph, sage, gat):
        sage_plan = build_strategy_plan(sage, graph, 4, StrategyConfig(partial_gather=True), False)
        program = GNNInferenceProgram(sage, sage_plan)
        assert program.combiner_for_superstep(0) is not None
        assert program.combiner_for_superstep(2) is None     # final superstep sends nothing
        gat_plan = build_strategy_plan(gat, graph, 4, StrategyConfig(partial_gather=True), False)
        gat_program = GNNInferenceProgram(gat, gat_plan)
        assert gat_program.combiner_for_superstep(0) is None

    def test_setup_partition_caches_local_indices(self, graph, sage):
        plan = build_strategy_plan(sage, graph, 4, StrategyConfig(), False)
        program = GNNInferenceProgram(sage, plan)
        engine = PregelEngine(graph, num_workers=4)
        partition = engine.partitions[0]
        program.setup_partition(partition)
        cached = partition.block_state["out_src_local"]
        np.testing.assert_array_equal(partition.node_ids[cached], partition.out_src)

    def test_assemble_messages_empty(self, graph, sage):
        plan = build_strategy_plan(sage, graph, 4, StrategyConfig(), False)
        program = GNNInferenceProgram(sage, plan)
        engine = PregelEngine(graph, num_workers=4)
        payload, local_dst, counts = program._assemble_messages(engine.partitions[0], [])
        assert local_dst.size == 0 and counts.size == 0
        assert payload.shape[0] == 0

    def test_assemble_messages_concatenates_blocks(self, graph, sage):
        plan = build_strategy_plan(sage, graph, 4, StrategyConfig(), False)
        program = GNNInferenceProgram(sage, plan)
        engine = PregelEngine(graph, num_workers=4)
        partition = engine.partitions[0]
        owned = partition.node_ids[:2]
        blocks = [MessageBlock(dst_ids=np.array([owned[0]]), payload=np.ones((1, 8))),
                  MessageBlock(dst_ids=np.array([owned[1]]), payload=np.zeros((1, 8)))]
        payload, local_dst, counts = program._assemble_messages(partition, blocks)
        assert payload.shape == (2, 8)
        np.testing.assert_array_equal(local_dst, [0, 1])
        np.testing.assert_array_equal(counts, [1, 1])

    def test_assemble_messages_densifies_broadcast_blocks(self, graph, sage):
        plan = build_strategy_plan(sage, graph, 4, StrategyConfig(), False)
        program = GNNInferenceProgram(sage, plan)
        partition = PregelEngine(graph, num_workers=4).partitions[0]
        owned = partition.node_ids[:3]
        block = BroadcastMessageBlock(dst_ids=owned, payload_refs=np.array([1, 0, 1]),
                                      unique_payloads=np.array([[1.0] * 8, [2.0] * 8]))
        payload, local_dst, _ = program._assemble_messages(partition, [block])
        np.testing.assert_array_equal(payload[:, 0], [2.0, 1.0, 2.0])
        np.testing.assert_array_equal(local_dst, [0, 1, 2])

    def test_star_hub_broadcast_block_used(self):
        """On an out-degree star with broadcast enabled, the hub's partition
        sends a reference-compressed block (far fewer payload bytes than rows)."""
        star = star_graph(200, direction="out", seed=0)
        model = build_model("sage", star.feature_dim, 8, 2, num_layers=2, seed=0)
        base = InferenceSession(model, InferenceConfig(
            backend="pregel", num_workers=4,
            strategies=StrategyConfig(partial_gather=False))).infer(star)
        broadcast = InferenceSession(model, InferenceConfig(
            backend="pregel", num_workers=4,
            strategies=StrategyConfig(partial_gather=False, broadcast=True,
                                      hub_threshold_override=10))).infer(star)
        hub_worker = 0  # node 0 lives on partition 0 with mod-hash partitioning
        assert (broadcast.metrics.per_instance("bytes_out")[hub_worker]
                < base.metrics.per_instance("bytes_out")[hub_worker])
