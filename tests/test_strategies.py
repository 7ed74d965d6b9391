"""Tests for hub-node strategy planning, broadcast blocks and shadow nodes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gnn.model import build_model
from repro.graph.generators import powerlaw_graph, star_graph
from repro.graph.graph import Graph
from repro.inference.config import StrategyConfig
from repro.inference.shadow import apply_shadow_nodes
from repro.inference.strategies import (
    BroadcastMessageBlock,
    build_strategy_plan,
    hub_threshold,
    select_hubs,
    split_hub_edges,
)
from repro.pregel.vertex import MessageBlock


def replicas_of(plan, node: int) -> np.ndarray:
    """``node``'s replica ids (itself first, then its mirrors) from the CSR."""
    return plan.replica_ids[plan.replica_indptr[node]:plan.replica_indptr[node + 1]]


class TestHubThreshold:
    def test_paper_formula(self):
        # 1e9 edges over 1000 workers with lambda 0.1 -> threshold 100000 (paper example)
        assert hub_threshold(1_000_000_000, 1000, 0.1) == 100_000

    def test_override(self):
        assert hub_threshold(1_000_000, 10, override=123) == 123

    def test_never_below_one(self):
        assert hub_threshold(5, 1000) == 1

    def test_scales_with_lambda(self):
        assert hub_threshold(10_000, 10, hub_lambda=0.2) == 2 * hub_threshold(10_000, 10, 0.1)


class TestStrategyPlan:
    def test_sage_gets_partial_gather_gat_does_not(self, small_graph):
        config = StrategyConfig(partial_gather=True)
        sage_plan = build_strategy_plan(build_model("sage", small_graph.feature_dim, 16, 4),
                                        small_graph, 4, config, has_edge_features=False)
        gat_plan = build_strategy_plan(build_model("gat", small_graph.feature_dim, 16, 4),
                                       small_graph, 4, config, has_edge_features=False)
        assert all(layer.partial_gather for layer in sage_plan.layer_strategies)
        assert not any(layer.partial_gather for layer in gat_plan.layer_strategies)
        assert all(layer.combiner is None for layer in gat_plan.layer_strategies)

    def test_partial_gather_disabled_globally(self, small_graph):
        plan = build_strategy_plan(build_model("sage", small_graph.feature_dim, 16, 4),
                                   small_graph, 4, StrategyConfig(partial_gather=False),
                                   has_edge_features=False)
        assert not any(layer.partial_gather for layer in plan.layer_strategies)

    def test_broadcast_disabled_when_messages_depend_on_edges(self, small_graph):
        model = build_model("sage", small_graph.feature_dim, 16, 4, edge_dim=3)
        plan = build_strategy_plan(model, small_graph, 4,
                                   StrategyConfig(broadcast=True), has_edge_features=True)
        assert not any(layer.broadcast for layer in plan.layer_strategies)
        # Without edge features in the graph, the same model can broadcast.
        plan2 = build_strategy_plan(model, small_graph, 4,
                                    StrategyConfig(broadcast=True), has_edge_features=False)
        assert all(layer.broadcast for layer in plan2.layer_strategies)

    def test_hub_detection_uses_out_degree(self):
        star = star_graph(100, direction="out")
        model = build_model("sage", star.feature_dim, 8, 2)
        plan = build_strategy_plan(model, star, 4, StrategyConfig(broadcast=True),
                                   has_edge_features=False)
        assert 0 in plan.out_degree_hubs
        assert plan.threshold >= 1

    def test_threshold_override_in_plan(self, powerlaw_out_graph):
        model = build_model("sage", powerlaw_out_graph.feature_dim, 8, 2)
        plan = build_strategy_plan(model, powerlaw_out_graph, 4,
                                   StrategyConfig(hub_threshold_override=10),
                                   has_edge_features=False)
        assert plan.threshold == 10
        assert plan.out_degree_hubs.size > 0

    def test_split_hub_edges(self):
        src = np.array([0, 1, 0, 2, 0])
        hub_rows, plain_rows = split_hub_edges(src, np.array([0]))
        np.testing.assert_array_equal(hub_rows, [0, 2, 4])
        np.testing.assert_array_equal(plain_rows, [1, 3])

    def test_split_hub_edges_empty_hub_set(self):
        src = np.array([0, 1, 2])
        hub_rows, plain_rows = split_hub_edges(src, np.empty(0, dtype=np.int64))
        assert hub_rows.size == 0
        assert plain_rows.size == 3

    def test_split_hub_edges_array_matches_set_semantics(self):
        # The hot path passes the plan's sorted hub array; the vectorised
        # split must be byte-identical to the old per-element set membership.
        rng = np.random.default_rng(3)
        src = rng.integers(0, 50, size=500)
        hubs = np.unique(rng.integers(0, 50, size=7)).astype(np.int64)
        hub_rows, plain_rows = split_hub_edges(src, hubs)
        hub_set = set(int(h) for h in hubs)
        expected = np.fromiter((int(s) in hub_set for s in src), dtype=bool,
                               count=src.size)
        np.testing.assert_array_equal(hub_rows, np.nonzero(expected)[0])
        np.testing.assert_array_equal(plain_rows, np.nonzero(~expected)[0])


class TestHubDefinitionUnified:
    """Regression: a node at exactly the threshold is a hub for *every* strategy."""

    def tie_graph(self, threshold=4):
        # Node 0 has out-degree exactly `threshold`; node 1 exceeds it.
        src = np.concatenate([np.zeros(threshold, dtype=np.int64),
                              np.ones(threshold + 3, dtype=np.int64)])
        dst = np.arange(2, 2 + src.size, dtype=np.int64)
        num_nodes = int(dst.max()) + 1
        return Graph(src=src, dst=dst,
                     node_features=np.ones((num_nodes, 3)), num_nodes=num_nodes)

    def test_select_hubs_includes_tie_degree(self):
        degrees = np.array([4, 7, 0, 3])
        np.testing.assert_array_equal(select_hubs(degrees, 4), [0, 1])

    def test_strategy_plan_and_shadow_agree_on_ties(self, monkeypatch):
        import repro.inference.shadow as shadow_mod
        threshold = 4
        graph = self.tie_graph(threshold)
        model = build_model("sage", graph.feature_dim, 8, 2)
        plan = build_strategy_plan(model, graph, 2,
                                   StrategyConfig(hub_threshold_override=threshold),
                                   has_edge_features=False)
        assert {0, 1} <= set(plan.out_degree_hubs.tolist())

        seen = {}
        real = shadow_mod.select_hubs
        monkeypatch.setattr(shadow_mod, "select_hubs",
                            lambda degrees, t: seen.setdefault("hubs", real(degrees, t)))
        shadow = apply_shadow_nodes(graph, threshold, num_workers=2)
        # The shadow rewrite considers the same hub set as the strategy plan
        # (the old `>` scan skipped tie-degree node 0 entirely)...
        np.testing.assert_array_equal(seen["hubs"], plan.out_degree_hubs)
        # ...and a tie-degree hub needs no mirrors (one out-edge group), while
        # the above-threshold hub is still split.
        assert replicas_of(shadow, 0).tolist() == [0]
        assert replicas_of(shadow, 1).size > 1


class TestBroadcastMessageBlock:
    def make_block(self, num_edges=100, dim=16):
        dst = np.arange(num_edges)
        refs = np.zeros(num_edges, dtype=np.int64)
        payload = np.random.default_rng(0).normal(size=(1, dim))
        return BroadcastMessageBlock(dst_ids=dst, rows=refs, payload=payload)

    def test_dense_payload_expands_refs(self):
        block = self.make_block(num_edges=5, dim=3)
        dense = block.dense_payload()
        assert dense.shape == (5, 3)
        assert np.allclose(dense, dense[0])

    def test_nbytes_smaller_than_dense_block(self):
        num_edges, dim = 200, 32
        broadcast = self.make_block(num_edges, dim)
        dense = MessageBlock(dst_ids=np.arange(num_edges),
                             payload=np.zeros((num_edges, dim)))
        assert broadcast.nbytes() < dense.nbytes()

    def test_rows_are_required(self):
        with pytest.raises(ValueError):
            BroadcastMessageBlock(dst_ids=np.arange(2), payload=np.zeros((2, 3)))

    def test_not_combinable(self):
        assert self.make_block().combinable is False
        assert MessageBlock(dst_ids=np.array([0]), payload=np.zeros((1, 2))).combinable is True

    def test_take_preserves_payload_mapping(self):
        dst = np.array([10, 20, 30, 40])
        refs = np.array([0, 1, 0, 1])
        payloads = np.array([[1.0, 1.0], [2.0, 2.0]])
        block = BroadcastMessageBlock(dst_ids=dst, rows=refs, payload=payloads)
        piece = block.take(np.array([1, 3]))
        assert isinstance(piece, BroadcastMessageBlock)
        np.testing.assert_allclose(piece.dense_payload(), [[2.0, 2.0], [2.0, 2.0]])
        np.testing.assert_array_equal(piece.dst_ids, [20, 40])

    def test_take_drops_unused_payloads(self):
        dst = np.array([1, 2])
        refs = np.array([0, 1])
        payloads = np.array([[1.0], [2.0]])
        block = BroadcastMessageBlock(dst_ids=dst, rows=refs, payload=payloads)
        piece = block.take(np.array([1]))
        assert piece.payload.shape[0] == 1
        np.testing.assert_allclose(piece.dense_payload(), [[2.0]])


class TestShadowNodes:
    def test_no_hubs_returns_original_graph(self, small_graph):
        plan = apply_shadow_nodes(small_graph, threshold=10_000, num_workers=4)
        assert plan.graph is small_graph
        assert plan.num_mirrors == 0

    def test_star_hub_is_split(self):
        star = star_graph(100, direction="out")
        plan = apply_shadow_nodes(star, threshold=10, num_workers=4)
        assert plan.num_mirrors > 0
        assert replicas_of(plan, 0).size == 1 + plan.num_mirrors
        # Total edges preserved and every edge still points at the same dst.
        assert plan.graph.num_edges == star.num_edges
        np.testing.assert_array_equal(np.sort(plan.graph.dst), np.sort(star.dst))

    def test_mirror_out_degrees_bounded(self):
        star = star_graph(200, direction="out")
        plan = apply_shadow_nodes(star, threshold=25, num_workers=16)
        out_degrees = plan.graph.out_degrees()
        replicas = replicas_of(plan, 0)
        for replica in replicas:
            assert out_degrees[replica] <= 25 + 25  # ceil splitting keeps groups near threshold

    def test_mirror_features_copied(self):
        star = star_graph(60, direction="out")
        plan = apply_shadow_nodes(star, threshold=10, num_workers=8)
        assert plan.num_mirrors > 0
        np.testing.assert_allclose(plan.graph.node_features,
                                   star.node_features[plan.origin_of])

    def test_mirror_count_capped_by_workers(self):
        star = star_graph(1000, direction="out")
        plan = apply_shadow_nodes(star, threshold=10, num_workers=4)
        assert replicas_of(plan, 0).size <= 4

    def test_expand_destinations_duplicates_rows(self):
        star = star_graph(100, direction="out")
        plan = apply_shadow_nodes(star, threshold=10, num_workers=4)
        replicas = replicas_of(plan, 0)
        dst = np.array([0, 5])
        payload = np.array([[1.0, 2.0], [3.0, 4.0]])
        new_dst, new_payload, new_counts = plan.expand_destinations(dst, payload)
        assert new_dst.size == 1 + replicas.size
        # Every replica receives the hub's row; node 5's row is untouched.
        hub_rows = new_payload[np.isin(new_dst, replicas)]
        assert np.allclose(hub_rows, [1.0, 2.0])

    def test_expand_destinations_noop_without_replicas(self, small_graph):
        plan = apply_shadow_nodes(small_graph, threshold=10_000, num_workers=4)
        dst = np.array([1, 2])
        payload = np.ones((2, 3))
        out_dst, out_payload, _ = plan.expand_destinations(dst, payload)
        np.testing.assert_array_equal(out_dst, dst)
        np.testing.assert_allclose(out_payload, payload)

    def test_invalid_threshold(self, small_graph):
        with pytest.raises(ValueError):
            apply_shadow_nodes(small_graph, threshold=0, num_workers=4)


@settings(max_examples=25, deadline=None)
@given(num_leaves=st.integers(min_value=5, max_value=300),
       threshold=st.integers(min_value=2, max_value=50),
       num_workers=st.integers(min_value=2, max_value=16))
def test_shadow_nodes_preserve_edge_multiset(num_leaves, threshold, num_workers):
    """Property: shadow-node preprocessing never adds, drops or redirects edges —
    it only reassigns their source to a mirror of the original source."""
    star = star_graph(num_leaves, direction="out", seed=1)
    plan = apply_shadow_nodes(star, threshold=threshold, num_workers=num_workers)
    assert plan.graph.num_edges == star.num_edges
    np.testing.assert_array_equal(np.sort(plan.graph.dst), np.sort(star.dst))
    np.testing.assert_array_equal(plan.origin_of[plan.graph.src], star.src)
