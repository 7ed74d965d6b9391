"""White-box tests for what the backend drivers still own: transport and pricing.

Bucketing and the priced rows of a MapReduce slot, mailbox assembly and block
packaging in the Pregel program both drive.  The stages themselves are tested
in ``test_gas_stages.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.metrics import tensor_bytes
from repro.gnn.model import build_model
from repro.graph.generators import labeled_community_graph, powerlaw_graph, star_graph
from repro.inference import InferenceConfig, InferenceSession, StrategyConfig, gas
from repro.inference.mapreduce_adaptor import Records, StateRows
from repro.inference.pregel_adaptor import GNNInferenceProgram
from repro.inference.strategies import BroadcastMessageBlock, build_strategy_plan
from repro.pregel.engine import PregelEngine
from repro.pregel.vertex import MessageBlock
from tests.test_mapreduce import round_slots, step_all


@pytest.fixture()
def graph():
    return labeled_community_graph(num_nodes=60, num_classes=3, feature_dim=6,
                                   avg_degree=4.0, seed=2)


@pytest.fixture()
def sage(graph):
    return build_model("sage", graph.feature_dim, 8, 3, num_layers=2, seed=0)


@pytest.fixture()
def gat(graph):
    return build_model("gat", graph.feature_dim, 8, 3, num_layers=2, seed=0)


def plain_blocks(blocks):
    return [block for block in blocks if type(block) is MessageBlock]


class TestBucketing:
    def test_every_row_lands_on_its_owner(self, graph, sage):
        """Placement is ``layout.owners`` and nothing else — messages and hub
        references alike (hub threshold 3: most nodes); a slot's state rows
        go to its own reducer."""
        engine, slots = round_slots(sage, graph, broadcast=True, hub_threshold_override=3)
        kinds, state_rows = set(), 0
        for slot, harness in enumerate(slots):
            _, outgoing = harness.step((0, "map"), [])
            for bucket, items in outgoing:
                for item in items:
                    if isinstance(item, StateRows):
                        assert bucket == slot
                        state_rows += item.rows
                        kinds.add(StateRows)
                        continue
                    kinds.add(type(item.block))
                    assert (engine.layout.owners(item.block.dst_ids) == bucket).all()
        assert kinds == {StateRows, MessageBlock, BroadcastMessageBlock}
        assert state_rows == graph.num_nodes


def round_1_maps(model, graph, **strategies):
    """Every slot's round-1 map, stepped by hand after round 0: per slot the
    sends its reduce left unrouted, the map's record and its buckets."""
    _, slots = round_slots(model, graph, **strategies)
    _, mail = step_all(slots, 0, "map")
    step_all(slots, 0, "reduce", mail)
    maps = []
    for harness in slots:
        raw = list(harness.sends.outgoing_blocks)
        metrics, outgoing = harness.step((1, "map"), [])
        maps.append((raw, metrics, outgoing))
    return slots, maps


def routed_blocks(outgoing):
    """``(bucket, block)`` for every message block a map bucketed."""
    return [(bucket, item.block) for bucket, items in outgoing for item in items
            if isinstance(item, Records)]


def per_destination(blocks, num_nodes):
    """Payload sums, count sums and row counts per destination id."""
    width = blocks[0].width
    payload = np.zeros((num_nodes, width))
    counts = np.zeros(num_nodes, dtype=np.int64)
    rows = np.zeros(num_nodes, dtype=np.int64)
    for block in blocks:
        np.add.at(payload, block.dst_ids, block.dense_payload())
        np.add.at(counts, block.dst_ids, block.counts)
        np.add.at(rows, block.dst_ids, 1)
    return payload, counts, rows


class TestCombineMessages:
    """Partial-gather on the map side is the plan's ``MessageCombiner``: a
    later round's map folds the sends its reduce wrote, per destination."""

    def test_folds_only_message_records(self, graph, sage):
        slots, maps = round_1_maps(sage, graph, partial_gather=True)
        raw_rows = routed_rows = 0
        for harness, (raw, _, outgoing) in zip(slots, maps):
            partition = harness.partition
            (state,) = [(bucket, item) for bucket, items in outgoing for item in items
                        if isinstance(item, StateRows)]
            assert state == (partition.partition_id, harness._state_rows())
            assert state[1].rows == partition.num_nodes and state[1].tagged
            routed = routed_blocks(outgoing)
            blocks = [block for _, block in routed]
            assert plain_blocks(blocks) == blocks
            for bucket, block in routed:
                assert (harness.layout.owners(block.dst_ids) == bucket).all()
            dst_ids = np.concatenate([block.dst_ids for block in blocks])
            assert np.unique(dst_ids).size == dst_ids.size     # one row per destination
            expected, folded = (per_destination(blocks_, graph.num_nodes)
                                for blocks_ in (raw, blocks))
            np.testing.assert_allclose(folded[0], expected[0], rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(folded[1], expected[1])
            raw_rows += sum(block.num_records() for block in raw)
            routed_rows += dst_ids.size
        assert routed_rows < raw_rows

    def test_single_message_kept_as_is(self, graph, sage):
        _, maps = round_1_maps(sage, graph, partial_gather=True)
        singles = 0
        for raw, _, outgoing in maps:
            _, _, rows = per_destination(raw, graph.num_nodes)
            routed = {int(dst): (block.payload[row], int(block.counts[row]))
                      for _, block in routed_blocks(outgoing)
                      for row, dst in enumerate(block.dst_ids)}
            for block in raw:
                for row, dst in enumerate(block.dst_ids):
                    if rows[dst] == 1:
                        payload, count = routed[int(dst)]
                        np.testing.assert_array_equal(payload, block.dense_payload()[row])
                        assert count == block.counts[row]   # the count it arrived with
                        singles += 1
        assert singles > 0

    def test_passthrough_when_partial_gather_disabled(self, graph, sage):
        slots, maps = round_1_maps(sage, graph, partial_gather=False)
        assert slots[0].program.combiner_for_superstep(1) is None
        for raw, _, outgoing in maps:
            blocks = [block for _, block in routed_blocks(outgoing)]
            assert sum(block.num_records() for block in blocks) == sum(
                block.num_records() for block in raw)
            assert all((block.counts == 1).all() for block in blocks)
            np.testing.assert_array_equal(
                np.sort(np.concatenate([block.dst_ids for block in blocks])),
                np.sort(np.concatenate([block.dst_ids for block in raw])))

    def test_gat_never_combines(self, graph, gat):
        slots, maps = round_1_maps(gat, graph, partial_gather=True)
        assert slots[0].program.plan.layer(1).combiner is None
        assert slots[0].program.combiner_for_superstep(1) is None
        for raw, _, outgoing in maps:
            blocks = [block for _, block in routed_blocks(outgoing)]
            assert sum(block.num_records() for block in blocks) == sum(
                block.num_records() for block in raw)


class TestRoundHarness:
    def test_identity_map_for_later_rounds(self, graph, sage):
        """Without a combiner a later round's map only buckets: the same rows
        come out, each in its owner's bucket, in arrival order."""
        slots, maps = round_1_maps(sage, graph, partial_gather=False)
        for harness, (raw, metrics, outgoing) in zip(slots, maps):
            assert metrics.compute_units == 0
            routed = routed_blocks(outgoing)
            for bucket in range(len(slots)):
                mine = [block for target, block in routed if target == bucket]
                rows = [harness.layout.owners(block.dst_ids) == bucket for block in raw]
                expected_dst = np.concatenate(
                    [block.dst_ids[keep] for block, keep in zip(raw, rows)])
                if not mine:
                    assert expected_dst.size == 0
                    continue
                np.testing.assert_array_equal(
                    np.concatenate([block.dst_ids for block in mine]), expected_dst)
                np.testing.assert_array_equal(
                    np.concatenate([block.payload for block in mine]),
                    np.concatenate([block.dense_payload()[keep]
                                    for block, keep in zip(raw, rows)]))

    def test_init_round_emits_state_and_messages(self, graph, sage):
        """Round 0's map: the slot's encoded state rows and out-adjacency,
        addressed to its own reducer, and one count-1 message per out-edge
        carrying the source's encoded state."""
        engine, slots = round_slots(sage, graph, partial_gather=False)
        for harness in slots:
            partition = harness.partition
            metrics, outgoing = harness.step((0, "map"), [])
            state = partition.block_state["h"]
            assert state.shape == (partition.num_nodes, 8)
            (own,) = [(bucket, item) for bucket, items in outgoing for item in items
                      if isinstance(item, StateRows)]
            assert own == (partition.partition_id, StateRows(
                partition.num_nodes, tensor_bytes(state.shape),
                float(partition.out_dst.nbytes)))
            blocks = [block for _, block in routed_blocks(outgoing)]
            assert plain_blocks(blocks) == blocks
            np.testing.assert_array_equal(
                np.sort(np.concatenate([block.dst_ids for block in blocks])),
                np.sort(partition.out_dst))
            assert all((block.counts == 1).all() for block in blocks)
            sent, _, _ = per_destination(blocks, graph.num_nodes)
            expected = np.zeros_like(sent)
            np.add.at(expected, partition.out_dst,
                      state[engine.layout.local_of[partition.out_src]])
            np.testing.assert_allclose(sent, expected, rtol=1e-12, atol=1e-12)
            # encode + one pass over the outgoing message elements
            assert metrics.compute_units == (partition.num_nodes * graph.feature_dim * 8
                                             + partition.num_out_edges * 8)

    @staticmethod
    def star_hub_map(edge_feature_dim):
        """Round 0's map of the slot holding an out-star's hub, broadcast on."""
        star = star_graph(40, direction="out", seed=0)
        if edge_feature_dim:
            star.edge_features = np.ones((star.num_edges, edge_feature_dim))
        model = build_model("sage", star.feature_dim, 8, 2, num_layers=2, seed=0)
        engine, slots = round_slots(model, star, broadcast=True, hub_threshold_override=10)
        assert slots[0].program.plan.layer(0).broadcast
        _, outgoing = slots[0].step((0, "map"), [])
        return star.out_neighbors(0), engine, slots[0].partition, outgoing

    def test_hub_emits_one_payload_per_bucket_plus_refs(self):
        neighbors, engine, partition, outgoing = self.star_hub_map(edge_feature_dim=0)
        items = [item for _, bucket in outgoing for item in bucket]
        blocks = [item.block for item in items if isinstance(item, Records)]
        assert not plain_blocks(blocks)
        # one block per destination bucket: the hub's payload once, an id-only
        # reference per out-edge bound there.
        assert [int(engine.layout.owners(block.dst_ids)[0]) for block in blocks] == np.unique(
            engine.layout.owners(neighbors)).tolist()
        assert all(block.payload.shape == (1, 8) for block in blocks)
        assert all((block.rows == 0).all() and (block.counts == 1).all()
                   for block in blocks)
        assert sorted(np.concatenate([b.dst_ids for b in blocks]).tolist()) == sorted(
            neighbors.tolist())
        assert sum(item.num_records() for item in items) == (
            partition.num_nodes + neighbors.size + len(blocks))

    def test_edge_features_the_layer_ignores_do_not_block_broadcast(self):
        """One rule on every backend: ``LayerStrategy.broadcast`` decides.  A
        model without an edge projection sends identical payloads along every
        hub out-edge even when the rows carry edge features."""
        neighbors, _, _, outgoing = self.star_hub_map(edge_feature_dim=3)
        blocks = [item.block for _, bucket in outgoing for item in bucket
                  if isinstance(item, Records)]
        assert not plain_blocks(blocks)
        assert sum(block.num_records() for block in blocks
                   if isinstance(block, BroadcastMessageBlock)) == neighbors.size

    def test_reducer_chunks_bound_the_working_set_not_the_scores(self, monkeypatch):
        """``REDUCE_CHUNK_NODES`` prices a reducer's ascending node rows as
        streamed in row ranges: many small chunks give the same score bits
        and counters as one, with a smaller peak working set."""
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
                                           None)
        return star, state, blocks, units

    def test_plain_block_then_broadcast_block(self):
        star, state, blocks, units = self.star_blocks(broadcast=True,
                                                      hub_threshold_override=5)
        plain, hubs = blocks
        assert type(plain) is MessageBlock and type(hubs) is BroadcastMessageBlock
        np.testing.assert_array_equal(plain.dst_ids, [4])
        assert plain.payload is state                   # row-indexed: no message table
        np.testing.assert_array_equal(plain.dense_payload(), state[[3]])
        np.testing.assert_array_equal(hubs.dst_ids, star.dst[:-1])
        np.testing.assert_array_equal(hubs.payload, state[[0]])
        assert (hubs.rows == 0).all()
        assert units == star.num_edges * 8

    def test_a_path_without_rows_sends_no_block(self):
        star, _, blocks, _ = self.star_blocks(broadcast=False)
        assert [type(block) for block in blocks] == [MessageBlock]
        assert blocks[0].num_records() == star.num_edges

    def test_rows_restrict_the_edges_not_the_state(self):
        star, state, (block,), units = self.star_blocks(rows=np.array([11, 2]),
                                                        broadcast=False)
        np.testing.assert_array_equal(block.dst_ids, star.dst[[11, 2]])
        np.testing.assert_array_equal(block.dense_payload(), state[star.src[[11, 2]]])
        assert units == 2 * 8


class TestFoldFromStateRows:
    """Partial-gather folds a full superstep's plain block straight from the
    sender's state: the combiner gets the block row-indexed into the state and
    never builds its ``(plain rows × width)`` message table."""

    @pytest.mark.parametrize("shadow", [False, True], ids=["no-shadow", "shadow"])
    @pytest.mark.parametrize("arch, aggregator", [("gcn", "mean"), ("sage", "sum"),
                                                  ("sage", "mean"), ("sage", "max")])
    def test_the_fold_of_state_rows_is_the_dense_fold(self, monkeypatch, arch, aggregator,
                                                      shadow):
        from repro.pregel import combiners
        from tests.test_tensor import NoGather

        graph = powerlaw_graph(1500, avg_degree=4.0, skew="both", feature_dim=16,
                               num_classes=3, seed=1)
        model = build_model(arch, graph.feature_dim, 8, 3, num_layers=2,
                            aggregator=aggregator, seed=0)
        config = InferenceConfig(backend="pregel", num_workers=4, executor="serial",
                                 strategies=StrategyConfig(partial_gather=True, broadcast=True,
                                                           shadow_nodes=shadow))
        real_fold, real_reduce = combiners.MessageCombiner.combine_block, combiners.segment_reduce
        folds, by_rows = [], []

        def fold(self, block, fold=None):
            folded = real_fold(self, block, fold)
            dense = real_fold(self, MessageBlock(block.dst_ids, block.dense_payload(),
                                                 block.counts), fold)
            for name in ("dst_ids", "payload", "counts"):
                assert getattr(folded, name).tobytes() == getattr(dense, name).tobytes()
            folds.append((block, self.op))
            return folded

        def reduce(values, ids, num_segments, op, rows=None):
            if rows is not None:
                by_rows.append(op)
                if op == "sum":                     # an index array read raises
                    values = values.view(NoGather)
            return real_reduce(values, ids, num_segments, op, rows=rows)

        monkeypatch.setattr(combiners.MessageCombiner, "combine_block", fold)
        monkeypatch.setattr(combiners, "segment_reduce", reduce)
        session = InferenceSession(model, config)
        try:
            session.infer(graph)
            assert (session.plan.shadow_plan is not None
                    and session.plan.shadow_plan.has_mirrors) == shadow
        finally:
            session.close()
        assert len(folds) == 2 * 4                          # two layers, four workers
        assert all(type(block) is MessageBlock and block.rows is not None
                   and block.width == 8 for block, _ in folds)
        assert {op for _, op in folds} == {"max" if aggregator == "max" else "sum"}
        assert by_rows == [op for _, op in folds]           # each folded through ``rows``


class TestPregelProgram:
    def test_supersteps_equal_layers_plus_one(self, graph, sage):
        plan = build_strategy_plan(sage, graph, 4, StrategyConfig(), False)
        program = GNNInferenceProgram(sage, plan, num_outputs=graph.num_nodes)
        assert program.max_supersteps() == 3

    def test_combiner_only_for_partial_layers(self, graph, sage, gat):
        sage_plan = build_strategy_plan(sage, graph, 4, StrategyConfig(partial_gather=True), False)
        program = GNNInferenceProgram(sage, sage_plan, num_outputs=graph.num_nodes)
        assert program.combiner_for_superstep(0) is not None
        assert program.combiner_for_superstep(2) is None     # final superstep sends nothing
        gat_plan = build_strategy_plan(gat, graph, 4, StrategyConfig(partial_gather=True), False)
        gat_program = GNNInferenceProgram(gat, gat_plan, num_outputs=graph.num_nodes)
        assert gat_program.combiner_for_superstep(0) is None

    def test_setup_partition_caches_local_indices(self, graph, sage):
        plan = build_strategy_plan(sage, graph, 4, StrategyConfig(), False)
        program = GNNInferenceProgram(sage, plan, num_outputs=graph.num_nodes)
        engine = PregelEngine(graph, num_workers=4)
        partition = engine.partitions[0]
        program.setup_partition(partition)
        cached = partition.block_state["out_src_local"]
        np.testing.assert_array_equal(partition.node_ids[cached], partition.out_src)

    def test_assemble_messages_empty(self, graph, sage):
        plan = build_strategy_plan(sage, graph, 4, StrategyConfig(), False)
        program = GNNInferenceProgram(sage, plan, num_outputs=graph.num_nodes)
        engine = PregelEngine(graph, num_workers=4)
        payload, local_dst, counts = program._assemble_messages(engine.partitions[0], [])
        assert local_dst.size == 0 and counts.size == 0
        assert payload.shape[0] == 0

    def test_assemble_messages_concatenates_blocks(self, graph, sage):
        plan = build_strategy_plan(sage, graph, 4, StrategyConfig(), False)
        program = GNNInferenceProgram(sage, plan, num_outputs=graph.num_nodes)
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
        program = GNNInferenceProgram(sage, plan, num_outputs=graph.num_nodes)
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
