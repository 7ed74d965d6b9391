"""Tests for the GAS-abstraction GNN layers, annotations and model builder."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gnn.annotations import (
    StageAnnotation,
    apply_edge_stage,
    apply_node_stage,
    collect_annotations,
    gather_stage,
    stage_annotation,
)
from repro.gnn.gasconv import GASConv
from repro.gnn.gat import GATConv
from repro.gnn.gcn import GCNConv
from repro.gnn.model import GNNModel, build_model, layer_class
from repro.gnn.sage import SAGEConv
from repro.pregel.combiners import combiner_for_aggregate_kind
from repro.pregel.vertex import MessageBlock
from repro.tensor.nn import Linear
from repro.tensor.tensor import Tensor


def random_subgraph(num_nodes=12, num_edges=40, in_dim=6, seed=0, edge_dim=0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    state = rng.normal(size=(num_nodes, in_dim))
    edge_state = rng.normal(size=(num_edges, edge_dim)) if edge_dim else None
    return src, dst, state, edge_state


class TestAnnotations:
    def test_gather_annotation_records_partial(self):
        annotation = stage_annotation(SAGEConv.gather)
        assert annotation is not None
        assert annotation.stage == "gather"
        assert annotation.partial is True

    def test_gat_gather_not_partial(self):
        annotation = stage_annotation(GATConv.gather)
        assert annotation.partial is False

    def test_apply_node_and_edge_annotations(self):
        assert stage_annotation(SAGEConv.apply_node).stage == "apply_node"
        assert stage_annotation(SAGEConv.apply_edge).stage == "apply_edge"

    def test_collect_annotations_from_instance(self):
        layer = SAGEConv(4, 4)
        collected = collect_annotations(layer)
        assert set(collected) == {"gather", "apply_node", "apply_edge"}

    def test_annotation_serialisation_roundtrip(self):
        annotation = StageAnnotation("gather", partial=True, options={"pool": "mean"})
        rebuilt = StageAnnotation.from_dict(annotation.to_dict())
        assert rebuilt == annotation

    def test_custom_decorated_function(self):
        @gather_stage(partial=True, pool="sum")
        def my_gather():
            return "ok"

        @apply_node_stage
        def my_apply():
            return "ok"

        @apply_edge_stage()
        def my_edge():
            return "ok"

        assert my_gather() == "ok"
        assert stage_annotation(my_gather).options == {"pool": "sum"}
        assert stage_annotation(my_apply).stage == "apply_node"
        assert stage_annotation(my_edge).stage == "apply_edge"


class TestSAGEConv:
    @pytest.mark.parametrize("aggregator", ["mean", "sum", "max"])
    def test_forward_shapes(self, aggregator):
        src, dst, state, _ = random_subgraph()
        layer = SAGEConv(6, 5, aggregator=aggregator)
        out = layer.forward(Tensor(state), src, dst)
        assert out.shape == (12, 5)

    def test_invalid_aggregator(self):
        with pytest.raises(ValueError):
            SAGEConv(4, 4, aggregator="median")

    def test_supports_partial_gather(self):
        assert SAGEConv(4, 4).supports_partial_gather is True

    def test_gather_counts_weighting_exact(self):
        """Partial sums + counts must give exactly the full mean."""
        layer = SAGEConv(3, 3, aggregator="mean")
        rng = np.random.default_rng(0)
        messages = rng.normal(size=(6, 3))
        dst = np.array([0, 0, 0, 1, 1, 1])
        full = layer.gather(Tensor(messages), dst, 2).data
        # Fold the first two rows of each destination into one partial row.
        folded = np.stack([messages[0] + messages[1], messages[2],
                           messages[3] + messages[4], messages[5]])
        folded_dst = np.array([0, 0, 1, 1])
        counts = np.array([2, 1, 2, 1])
        partial = layer.gather(Tensor(folded), folded_dst, 2, counts).data
        np.testing.assert_allclose(partial, full, atol=1e-12)

    def test_edge_features_change_messages(self):
        src, dst, state, edge_state = random_subgraph(edge_dim=4, seed=7)
        layer = SAGEConv(6, 5, edge_dim=4)
        with_edges = layer.forward(Tensor(state), src, dst, edge_state=Tensor(edge_state))
        without = layer.forward(Tensor(state), src, dst)
        assert not np.allclose(with_edges.data, without.data)

    def test_message_dim_is_input_dim(self):
        assert SAGEConv(7, 3).message_dim == 7

    def test_node_with_no_in_edges_gets_zero_aggregate(self):
        layer = SAGEConv(2, 2, activation="none")
        state = np.ones((3, 2))
        src = np.array([0])
        dst = np.array([1])
        out = layer.forward(Tensor(state), src, dst)
        # Node 2 has no in-edges: output = self transform only.
        expected = layer.self_linear(Tensor(state[2:3])).data
        np.testing.assert_allclose(out.data[2], expected[0], atol=1e-12)


class TestGATConv:
    def test_forward_shapes_concat(self):
        src, dst, state, _ = random_subgraph()
        layer = GATConv(6, 4, heads=3, concat=True)
        out = layer.forward(Tensor(state), src, dst)
        assert out.shape == (12, 12)
        assert layer.output_dim == 12

    def test_forward_shapes_mean_heads(self):
        src, dst, state, _ = random_subgraph()
        layer = GATConv(6, 4, heads=3, concat=False)
        assert layer.forward(Tensor(state), src, dst).shape == (12, 4)

    def test_attention_weights_sum_to_one(self):
        """Apply a single-head GAT on a star: attention must be a convex combination."""
        num_leaves = 5
        state = np.random.default_rng(0).normal(size=(num_leaves + 1, 3))
        src = np.arange(1, num_leaves + 1)
        dst = np.zeros(num_leaves, dtype=np.int64)
        layer = GATConv(3, 3, heads=1, concat=True, activation="none")
        out = layer.forward(Tensor(state), src, dst)
        projected = layer.linear(Tensor(state)).data
        hub = out.data[0] - layer.bias.data
        # The hub output must lie in the convex hull of projected leaf features.
        assert hub.min() >= projected[1:].min() - 1e-9
        assert hub.max() <= projected[1:].max() + 1e-9

    def test_partial_gather_not_supported(self):
        layer = GATConv(4, 4)
        assert layer.supports_partial_gather is False
        assert combiner_for_aggregate_kind(layer.aggregate_kind) is None

    def test_gather_rejects_preaggregated_counts(self):
        layer = GATConv(4, 4)
        with pytest.raises(RuntimeError):
            layer.gather(Tensor(np.ones((2, layer.message_dim))), np.array([0, 0]), 1,
                         counts=np.array([3, 1]))

    def test_message_dim_includes_logits(self):
        layer = GATConv(6, 4, heads=3)
        assert layer.message_dim == 3 * 4 + 3

    def test_no_in_edges_anywhere(self):
        layer = GATConv(3, 3, heads=2)
        state = np.ones((4, 3))
        out = layer.forward(Tensor(state), np.array([], dtype=np.int64),
                            np.array([], dtype=np.int64))
        assert out.shape == (4, 6)

    def test_edge_features_change_output(self):
        src, dst, state, edge_state = random_subgraph(edge_dim=3, seed=9)
        layer = GATConv(6, 4, heads=2, edge_dim=3)
        with_edges = layer.forward(Tensor(state), src, dst, edge_state=Tensor(edge_state))
        without = layer.forward(Tensor(state), src, dst)
        assert not np.allclose(with_edges.data, without.data)


class TestGCNConv:
    def test_forward_shapes(self):
        src, dst, state, _ = random_subgraph()
        out = GCNConv(6, 8).forward(Tensor(state), src, dst)
        assert out.shape == (12, 8)

    def test_supports_partial_gather(self):
        assert GCNConv(4, 4).supports_partial_gather is True

    def test_isolated_node_uses_self_only(self):
        layer = GCNConv(2, 2, activation="none")
        state = np.array([[2.0, 4.0], [1.0, 1.0]])
        out = layer.forward(Tensor(state), np.array([0]), np.array([0]))
        # Node 1 has no in-edges: (0 + state)/2 through the linear layer.
        expected = layer.linear(Tensor(state[1:2] * 0.5)).data
        np.testing.assert_allclose(out.data[1], expected[0], atol=1e-12)


class TestModelBuilder:
    @pytest.mark.parametrize("arch", ["sage", "gat", "gcn"])
    def test_build_and_forward(self, arch):
        model = build_model(arch, feature_dim=10, hidden_dim=16, num_classes=5, num_layers=2)
        src, dst, state, _ = random_subgraph(num_nodes=20, num_edges=60, in_dim=10, seed=1)
        out = model.forward(Tensor(state), src, dst, num_nodes=20)
        assert out.shape == (20, 5)

    def test_three_layer_model(self):
        model = build_model("sage", 8, 12, 3, num_layers=3)
        assert model.num_layers == 3

    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError):
            build_model("transformer", 8, 16, 3)

    def test_layer_dim_mismatch_rejected(self):
        encoder = Linear(8, 16)
        bad_layer = SAGEConv(99, 16)
        with pytest.raises(ValueError):
            GNNModel(encoder, [bad_layer], Linear(16, 3))

    def test_head_dim_mismatch_rejected(self):
        encoder = Linear(8, 16)
        layer = SAGEConv(16, 16)
        with pytest.raises(ValueError):
            GNNModel(encoder, [layer], Linear(99, 3))

    def test_empty_layer_list_rejected(self):
        with pytest.raises(ValueError):
            GNNModel(Linear(4, 8), [], Linear(8, 2))

    def test_model_without_head_outputs_embeddings(self):
        encoder = Linear(6, 8)
        model = GNNModel(encoder, [SAGEConv(8, 8)], None)
        assert model.output_dim == 8

    def test_layer_class_registry(self):
        assert layer_class("SAGEConv") is SAGEConv
        with pytest.raises(KeyError):
            layer_class("MysteryConv")

    def test_encode_and_predict(self):
        model = build_model("sage", 6, 8, 3)
        encoded = model.encode(Tensor(np.ones((4, 6))))
        assert encoded.shape == (4, 8)
        logits = model.predict(Tensor(np.ones((4, 8))))
        assert logits.shape == (4, 3)


@settings(max_examples=20, deadline=None)
@given(num_splits=st.integers(min_value=1, max_value=5),
       num_messages=st.integers(min_value=2, max_value=24),
       aggregator=st.sampled_from(["sum", "mean", "max"]))
def test_partial_gather_is_exact_for_any_split(num_splits, num_messages, aggregator):
    """Property: splitting messages into arbitrary sender groups and folding each
    group with the layer's block combiner gives exactly the same aggregate as
    one-shot gather.  This is the commutativity/associativity contract
    partial-gather relies on, on the blocks both backends shuffle."""
    rng = np.random.default_rng(num_splits * 100 + num_messages)
    layer = SAGEConv(4, 4, aggregator=aggregator)
    messages = rng.normal(size=(num_messages, 4))
    dst = np.zeros(num_messages, dtype=np.int64)
    full = layer.gather(Tensor(messages), dst, 1).data

    boundaries = np.sort(rng.choice(np.arange(1, num_messages), size=min(num_splits, num_messages - 1),
                                    replace=False)) if num_messages > 1 else np.array([], dtype=int)
    groups = np.split(np.arange(num_messages), boundaries)
    combiner = combiner_for_aggregate_kind(layer.aggregate_kind)
    folded = [combiner.combine_block(MessageBlock(dst[group], messages[group]))
              for group in groups if group.size]
    assert all(block.num_records() == 1 for block in folded)
    partial = layer.gather(Tensor(np.concatenate([block.payload for block in folded])),
                           np.zeros(len(folded), dtype=np.int64), 1,
                           np.concatenate([block.counts for block in folded])).data
    np.testing.assert_allclose(partial, full, atol=1e-10)
