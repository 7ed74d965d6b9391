"""Tests for k-hop neighbourhood extraction, samplers and graph generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.generators import (
    labeled_community_graph,
    powerlaw_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.graph.khop import khop_neighborhood
from repro.graph.sampling import FullNeighborSampler, UniformNeighborSampler


class TestKHop:
    def test_line_graph_hops(self, tiny_line_graph):
        # 0 → 1 → 2 → 3 ; the 2-hop in-neighbourhood of 3 is {3, 2, 1}.
        sub = khop_neighborhood(tiny_line_graph, [3], num_hops=2)
        assert set(sub.node_ids.tolist()) == {3, 2, 1}
        assert sub.num_edges == 2
        assert sub.target_positions[0] == 0

    def test_zero_hops_returns_targets_only(self, tiny_line_graph):
        sub = khop_neighborhood(tiny_line_graph, [2], num_hops=0)
        assert sub.num_nodes == 1
        assert sub.num_edges == 0

    def test_star_graph_in_direction(self):
        star = star_graph(50, direction="in")
        sub = khop_neighborhood(star, [0], num_hops=1)
        assert sub.num_nodes == 51
        assert sub.num_edges == 50

    def test_star_graph_out_direction_has_no_in_neighbors(self):
        star = star_graph(50, direction="out")
        sub = khop_neighborhood(star, [0], num_hops=2)
        assert sub.num_nodes == 1      # hub has no in-edges

    def test_targets_keep_order_and_duplicates_are_merged(self, small_graph):
        sub = khop_neighborhood(small_graph, [5, 7, 5], num_hops=1)
        assert sub.target_positions.shape == (3,)
        assert sub.target_positions[0] == sub.target_positions[2]

    def test_local_indices_are_dense(self, small_graph):
        sub = khop_neighborhood(small_graph, [0, 1, 2], num_hops=2)
        assert sub.src.max(initial=-1) < sub.num_nodes
        assert sub.dst.max(initial=-1) < sub.num_nodes

    def test_features_and_labels_sliced(self, small_graph):
        sub = khop_neighborhood(small_graph, [3], num_hops=1)
        np.testing.assert_allclose(sub.node_features, small_graph.node_features[sub.node_ids])
        np.testing.assert_array_equal(sub.labels, small_graph.labels[sub.node_ids])

    def test_sampling_bounds_edges_per_node(self, small_graph):
        sampler = UniformNeighborSampler(2)
        sub = khop_neighborhood(small_graph, list(range(20)), num_hops=2, sampler=sampler,
                                rng=np.random.default_rng(0))
        counts = np.bincount(sub.dst, minlength=sub.num_nodes)
        assert counts.max(initial=0) <= 2

    def test_full_sampler_matches_receptive_field_growth(self, small_graph):
        for target in (0, 1, 2):
            one_hop = khop_neighborhood(small_graph, [target], num_hops=1)
            two_hop = khop_neighborhood(small_graph, [target], num_hops=2)
            assert two_hop.num_nodes >= one_hop.num_nodes

    def test_deterministic_with_full_sampler(self, small_graph):
        a = khop_neighborhood(small_graph, [4, 9], num_hops=2)
        b = khop_neighborhood(small_graph, [4, 9], num_hops=2)
        np.testing.assert_array_equal(a.node_ids, b.node_ids)
        np.testing.assert_array_equal(a.src, b.src)


class TestSamplers:
    def test_full_sampler_keeps_everything(self):
        edges = np.arange(17)
        out = FullNeighborSampler().sample(edges, np.random.default_rng(0))
        np.testing.assert_array_equal(out, edges)

    def test_uniform_sampler_caps_count(self):
        sampler = UniformNeighborSampler(5)
        out = sampler.sample(np.arange(100), np.random.default_rng(0))
        assert out.size == 5

    def test_uniform_sampler_returns_all_when_small(self):
        sampler = UniformNeighborSampler(10)
        edges = np.arange(4)
        np.testing.assert_array_equal(sampler.sample(edges, np.random.default_rng(0)), edges)

    def test_uniform_sampler_varies_with_rng(self):
        sampler = UniformNeighborSampler(3)
        edges = np.arange(50)
        first = sampler.sample(edges, np.random.default_rng(1))
        second = sampler.sample(edges, np.random.default_rng(2))
        assert not np.array_equal(np.sort(first), np.sort(second))

    def test_invalid_fanout_rejected(self):
        with pytest.raises(ValueError):
            UniformNeighborSampler(0)


class TestGenerators:
    def test_community_graph_shapes(self):
        graph = labeled_community_graph(300, num_classes=5, feature_dim=7, seed=0)
        assert graph.num_nodes == 300
        assert graph.node_features.shape == (300, 7)
        assert graph.labels.max() == 4

    def test_community_graph_deterministic_by_seed(self):
        a = labeled_community_graph(100, 3, 4, seed=5)
        b = labeled_community_graph(100, 3, 4, seed=5)
        np.testing.assert_array_equal(a.src, b.src)
        np.testing.assert_allclose(a.node_features, b.node_features)

    def test_community_graph_multilabel(self):
        graph = labeled_community_graph(80, num_classes=6, feature_dim=4, multilabel=True, seed=1)
        assert graph.labels.shape == (80, 6)
        assert set(np.unique(graph.labels)).issubset({0.0, 1.0})

    def test_community_graph_edge_features(self):
        graph = labeled_community_graph(60, 3, 4, edge_feature_dim=5, seed=2)
        assert graph.edge_features.shape == (graph.num_edges, 5)

    def test_community_graph_homophily(self):
        graph = labeled_community_graph(400, num_classes=4, feature_dim=4, homophily=0.9, seed=3)
        same = (graph.labels[graph.src] == graph.labels[graph.dst]).mean()
        assert same > 0.5

    def test_powerlaw_out_skew(self):
        graph = powerlaw_graph(1000, avg_degree=8, skew="out", seed=0)
        out_deg = graph.out_degrees()
        in_deg = graph.in_degrees()
        # Out-degree distribution should be far more skewed than in-degree.
        assert out_deg.max() > 4 * in_deg.max()

    def test_powerlaw_in_skew(self):
        graph = powerlaw_graph(1000, avg_degree=8, skew="in", seed=0)
        assert graph.in_degrees().max() > 4 * graph.out_degrees().max()

    def test_powerlaw_both_skew_runs(self):
        graph = powerlaw_graph(500, avg_degree=6, skew="both", seed=1)
        assert graph.num_edges > 0

    def test_powerlaw_invalid_skew(self):
        with pytest.raises(ValueError):
            powerlaw_graph(100, skew="sideways")

    def test_powerlaw_no_self_loops(self):
        graph = powerlaw_graph(300, avg_degree=5, skew="out", seed=2)
        assert np.all(graph.src != graph.dst)

    def test_star_graph_degrees(self):
        star_in = star_graph(30, direction="in")
        assert star_in.in_degrees()[0] == 30
        star_out = star_graph(30, direction="out")
        assert star_out.out_degrees()[0] == 30

    def test_star_graph_invalid_direction(self):
        with pytest.raises(ValueError):
            star_graph(10, direction="loop")
