"""White-box tests for what the backend adaptors still own: the transport.

Block kinds, bucketing and the map-side fold on the MapReduce side, mailbox
assembly and block packaging on the Pregel side.  The stages themselves are
tested in ``test_gas_stages.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gnn.model import build_model
from repro.graph.generators import labeled_community_graph, star_graph
from repro.cluster.layout import ClusterLayout
from repro.cluster.metrics import InstanceMetrics
from repro.graph.partition import HashPartitioner
from repro.inference import InferenceConfig, InferenceSession, StrategyConfig, gas
from repro.inference.mapreduce_adaptor import GNNRoundJob, Records, StateBlock, input_rows
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


def task_metrics():
    """A fresh accounting record, as the engine hands one to every task."""
    return InstanceMetrics("round/test", 0)


def flatten(buckets):
    """Every bucketed block of one ``map_partition`` call, in bucket order."""
    return [item.block for bucket in buckets for item in bucket]


def plain_blocks(blocks):
    return [block for block in blocks if type(block) is MessageBlock]


def round_job(model, graph, layout, layer_index, shadow_plan=None, **strategies):
    plan = build_strategy_plan(model, graph, 4, StrategyConfig(**strategies),
                               graph.edge_features is not None)
    return GNNRoundJob(model, plan, shadow_plan, layer_index, graph.num_nodes, layout)


class TestBucketing:
    def test_every_row_lands_on_its_owner(self, graph, sage, layout):
        """Placement is ``layout.owners`` and nothing else — state rows,
        messages and hub references alike (hub threshold 3: most nodes)."""
        job = round_job(sage, graph, layout, 0, broadcast=True, hub_threshold_override=3)
        buckets = job.map_partition([Records(input_rows(sage, graph))], task_metrics())
        assert len(buckets) == layout.num_partitions
        kinds = set()
        for bucket, items in enumerate(buckets):
            for item in items:
                kinds.add(type(item.block))
                assert (layout.owners(item.block.dst_ids) == bucket).all()
        assert kinds == {StateBlock, MessageBlock, BroadcastMessageBlock}
        states = [block for block in flatten(buckets) if isinstance(block, StateBlock)]
        assert sorted(np.concatenate([b.dst_ids for b in states]).tolist()) == list(
            range(graph.num_nodes))


class TestCombineMessages:
    """Partial-gather on the map side is the plan's ``MessageCombiner``."""

    @staticmethod
    def later_round_items(dim):
        state = StateBlock(np.array([7]), np.zeros((1, dim)), np.array([0, 1]), np.array([1]))
        messages = MessageBlock(np.array([7, 2, 7]),
                                np.stack([np.ones(dim), np.ones(dim) * 5, np.ones(dim) * 3]),
                                np.array([1, 2, 1]))
        return [Records(state), Records(messages)]

    def test_folds_only_message_records(self, graph, sage, layout):
        job = round_job(sage, graph, layout, 1, partial_gather=True)
        blocks = flatten(job.map_partition(self.later_round_items(8), task_metrics()))
        (state,) = [block for block in blocks if isinstance(block, StateBlock)]
        np.testing.assert_array_equal(state.dst_ids, [7])
        np.testing.assert_array_equal(state.nbrs, [1])
        folded = {int(block.dst_ids[0]): block for block in plain_blocks(blocks)}
        assert sorted(folded) == [2, 7]
        np.testing.assert_allclose(folded[7].payload, np.ones((1, 8)) * 4)
        assert folded[7].counts.tolist() == [2]

    def test_single_message_kept_as_is(self, graph, sage, layout):
        job = round_job(sage, graph, layout, 1, partial_gather=True)
        blocks = flatten(job.map_partition(self.later_round_items(8), task_metrics()))
        (lone,) = [block for block in plain_blocks(blocks) if block.dst_ids[0] == 2]
        np.testing.assert_allclose(lone.payload, np.ones((1, 8)) * 5)
        assert lone.counts.tolist() == [2]      # the count it arrived with

    def test_passthrough_when_partial_gather_disabled(self, graph, sage, layout):
        job = round_job(sage, graph, layout, 1, partial_gather=False)
        blocks = flatten(job.map_partition(self.later_round_items(8), task_metrics()))
        assert sum(block.num_records() for block in plain_blocks(blocks)) == 3

    def test_gat_never_combines(self, graph, gat, layout):
        job = round_job(gat, graph, layout, 1, partial_gather=True)
        assert job.plan.layer(1).combiner is None
        dim = gat.layers[1].message_dim
        blocks = flatten(job.map_partition(self.later_round_items(dim), task_metrics()))
        assert sum(block.num_records() for block in plain_blocks(blocks)) == 3


class TestGNNRoundJob:
    def test_identity_map_for_later_rounds(self, graph, sage, layout):
        """Without a combiner a later round's map only buckets: the same rows
        come out, each in its owner's bucket, in arrival order."""
        job = round_job(sage, graph, layout, 1, partial_gather=False)
        rng = np.random.default_rng(0)
        dst = rng.integers(0, graph.num_nodes, size=30)
        payload = rng.normal(size=(30, 8))
        metrics = task_metrics()
        buckets = job.map_partition([Records(MessageBlock(dst, payload))], metrics)
        assert metrics.compute_units == 0
        for bucket, items in enumerate(buckets):
            rows = np.nonzero(layout.owners(dst) == bucket)[0]
            (block,) = [item.block for item in items] or [MessageBlock(dst[:0], payload[:0])]
            np.testing.assert_array_equal(block.dst_ids, dst[rows])
            np.testing.assert_array_equal(block.payload, payload[rows])

    def test_init_round_emits_state_and_messages(self, graph, sage, layout):
        job = round_job(sage, graph, layout, 0, partial_gather=False)
        node_id = 0
        neighbors = graph.out_neighbors(node_id)
        rows = input_rows(sage, graph).take(np.array([node_id]))
        assert not rows.tagged
        np.testing.assert_array_equal(rows.payload[0], graph.node_features[node_id])
        metrics = task_metrics()
        blocks = flatten(job.map_partition([Records(rows)], metrics))
        (state,) = [block for block in blocks if isinstance(block, StateBlock)]
        # the node's own encoded state + out-adjacency, addressed to itself;
        # one count-1 message per out-edge, addressed to the destination.
        assert state.tagged and state.edge_feats is None
        assert state.dst_ids.tolist() == [node_id] and state.payload.shape == (1, 8)
        np.testing.assert_array_equal(state.nbrs, neighbors)
        messages = plain_blocks(blocks)
        assert sorted(np.concatenate([b.dst_ids for b in messages]).tolist()) == sorted(
            neighbors.tolist())
        assert all((block.counts == 1).all() for block in messages)
        assert all((block.payload == state.payload[0]).all() for block in messages)
        # encode + one pass over the outgoing message elements
        assert metrics.compute_units == graph.feature_dim * 8 + neighbors.size * 8

    @staticmethod
    def star_hub_round(edge_feature_dim):
        """Init-round map over the hub row of an out-star, broadcast on."""
        star = star_graph(40, direction="out", seed=0)
        if edge_feature_dim:
            star.edge_features = np.ones((star.num_edges, edge_feature_dim))
        model = build_model("sage", star.feature_dim, 8, 2, num_layers=2, seed=0)
        layout = ClusterLayout.build(star.num_nodes, HashPartitioner(4))
        job = round_job(model, star, layout, 0, broadcast=True, hub_threshold_override=10)
        assert job.plan.layer(0).broadcast
        buckets = job.map_partition(
            [Records(input_rows(model, star).take(np.array([0])))], task_metrics())
        return star.out_neighbors(0), layout, buckets

    def test_hub_emits_one_payload_per_bucket_plus_refs(self):
        neighbors, layout, buckets = self.star_hub_round(edge_feature_dim=0)
        blocks = flatten(buckets)
        assert not plain_blocks(blocks)
        hubs = [block for block in blocks if isinstance(block, BroadcastMessageBlock)]
        # one block per destination bucket: the hub's payload once, an id-only
        # reference per out-edge bound there.
        assert [int(layout.owners(block.dst_ids)[0]) for block in hubs] == np.unique(
            layout.owners(neighbors)).tolist()
        assert all(block.unique_payloads.shape == (1, 8) for block in hubs)
        assert all((block.payload_refs == 0).all() and (block.counts == 1).all()
                   for block in hubs)
        assert sorted(np.concatenate([b.dst_ids for b in hubs]).tolist()) == sorted(
            neighbors.tolist())
        assert sum(item.num_records() for bucket in buckets for item in bucket) == (
            1 + neighbors.size + len(hubs))

    def test_edge_features_the_layer_ignores_do_not_block_broadcast(self):
        """One rule on every backend: ``LayerStrategy.broadcast`` decides.  A
        model without an edge projection sends identical payloads along every
        hub out-edge even when the rows carry edge features."""
        neighbors, _, buckets = self.star_hub_round(edge_feature_dim=3)
        blocks = flatten(buckets)
        assert not plain_blocks(blocks)
        assert sum(block.num_records() for block in blocks
                   if isinstance(block, BroadcastMessageBlock)) == neighbors.size

    def test_state_slice_is_a_contiguous_take(self, graph, sage):
        rows = input_rows(sage, graph)
        part, whole = rows.slice(10, 25), rows.take(np.arange(10, 25))
        for name in ("dst_ids", "payload", "indptr", "nbrs"):
            np.testing.assert_array_equal(getattr(part, name), getattr(whole, name))
        assert np.shares_memory(part.payload, rows.payload)

    def test_reducer_refuses_state_rows_out_of_id_order(self, graph, sage, layout):
        """The reducer slices its node rows in arrival order, so it checks
        that they arrive ascending instead of sorting them."""
        job = round_job(sage, graph, layout, 1, partial_gather=False)
        first = StateBlock(np.array([8]), np.zeros((1, 8)), np.array([0, 1]), np.array([1]))
        second = StateBlock(np.array([4]), np.zeros((1, 8)), np.array([0, 1]), np.array([2]))
        with pytest.raises(RuntimeError, match="ascending"):
            job.reduce_partition([Records(first), Records(second)], task_metrics())

    def test_reducer_chunks_bound_the_working_set_not_the_scores(self, monkeypatch):
        """``REDUCE_CHUNK_NODES`` cuts a reducer's ascending node rows into row
        ranges: many small chunks give the same score bits and counters as one,
        with a smaller peak working set."""
        import repro.inference.mapreduce_adaptor as adaptor

        graph = labeled_community_graph(num_nodes=300, num_classes=3, feature_dim=6,
                                        avg_degree=5.0, seed=4)
        model = build_model("sage", graph.feature_dim, 8, 3, num_layers=2, seed=0)
        config = InferenceConfig(backend="mapreduce", num_workers=4, executor="serial",
                                 strategies=StrategyConfig(partial_gather=False))
        whole = InferenceSession(model, config).infer(graph)
        monkeypatch.setattr(adaptor, "REDUCE_CHUNK_NODES", 16)
        chunked = InferenceSession(model, config).infer(graph)
        np.testing.assert_array_equal(chunked.scores, whole.scores)
        for counter in ("compute_units", "bytes_out", "records_out"):
            assert chunked.metrics.total(counter) == whole.metrics.total(counter)
        peak = [max(m.peak_memory_bytes for m in result.metrics.instances("round_1/reduce"))
                for result in (chunked, whole)]
        assert peak[0] < peak[1]


class TestScatterBlocks:
    """``gas.scatter_blocks``: the one place edge rows become message blocks."""

    @staticmethod
    def star_blocks(rows=None, **strategies):
        star = star_graph(12, direction="out", seed=0)
        star.src = np.concatenate([star.src, [3]])       # one non-hub edge 3 -> 4
        star.dst = np.concatenate([star.dst, [4]])
        model = build_model("sage", star.feature_dim, 8, 2, num_layers=2, seed=0)
        plan = build_strategy_plan(model, star, 4, StrategyConfig(**strategies), False)
        state = np.arange(star.num_nodes * 8, dtype=np.float64).reshape(-1, 8)
        edges = slice(None) if rows is None else rows
        src, dst = star.src[edges], star.dst[edges]
        blocks, units = gas.scatter_blocks(model, plan, None, 0, state, src, src, dst,
                                           None, inline=False)
        return star, state, blocks, units

    def test_plain_block_then_broadcast_block(self):
        star, state, blocks, units = self.star_blocks(broadcast=True,
                                                      hub_threshold_override=5)
        plain, hubs = blocks
        assert type(plain) is MessageBlock and type(hubs) is BroadcastMessageBlock
        np.testing.assert_array_equal(plain.dst_ids, [4])
        np.testing.assert_array_equal(plain.payload, state[[3]])
        np.testing.assert_array_equal(hubs.dst_ids, star.dst[:-1])
        np.testing.assert_array_equal(hubs.unique_payloads, state[[0]])
        assert (hubs.payload_refs == 0).all()
        assert units == star.num_edges * 8

    def test_a_path_without_rows_sends_no_block(self):
        star, _, blocks, _ = self.star_blocks(broadcast=False)
        assert [type(block) for block in blocks] == [MessageBlock]
        assert blocks[0].num_records() == star.num_edges

    def test_rows_restrict_the_edges_not_the_state(self):
        star, state, (block,), units = self.star_blocks(rows=np.array([11, 2]),
                                                        broadcast=False)
        np.testing.assert_array_equal(block.dst_ids, star.dst[[11, 2]])
        np.testing.assert_array_equal(block.payload, state[star.src[[11, 2]]])
        assert units == 2 * 8


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
