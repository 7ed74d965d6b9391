"""Tests for the Graph data structure, its edge-id indexes and partitioning."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.graph import Graph
from repro.graph.partition import HashPartitioner
from repro.inference.delta import GraphDelta, apply_delta_to_graph
from repro.pregel.engine import PregelEngine


def make_graph(num_nodes=10, num_edges=30, seed=0, with_features=True):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    features = rng.normal(size=(num_nodes, 3)) if with_features else None
    return Graph(src, dst, node_features=features, labels=rng.integers(0, 2, size=num_nodes),
                 num_nodes=num_nodes)


class TestGraphBasics:
    def test_counts(self, tiny_line_graph):
        assert tiny_line_graph.num_nodes == 4
        assert tiny_line_graph.num_edges == 3
        assert tiny_line_graph.feature_dim == 2

    def test_degree_sums_equal_edges(self):
        graph = make_graph(20, 77, seed=1)
        assert graph.in_degrees().sum() == graph.num_edges
        assert graph.out_degrees().sum() == graph.num_edges

    def test_edge_ids_consistent_with_neighbors(self, tiny_line_graph):
        graph = tiny_line_graph
        np.testing.assert_array_equal(graph.dst[graph.out_edge_ids(0)], [1])
        np.testing.assert_array_equal(graph.src[graph.in_edge_ids(3)], [2])
        assert graph.out_edge_ids(3).size == 0
        assert graph.in_edge_ids(0).size == 0

    def test_mismatched_src_dst_rejected(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 1]), np.array([1]))

    def test_bad_feature_rows_rejected(self):
        with pytest.raises(ValueError):
            Graph(np.array([0]), np.array([1]), node_features=np.zeros((5, 2)), num_nodes=2)

    def test_edge_endpoints_beyond_num_nodes_rejected(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 7]), np.array([1, 1]), num_nodes=3)

    def test_empty_graph(self):
        graph = Graph(np.array([], dtype=np.int64), np.array([], dtype=np.int64), num_nodes=5)
        assert graph.num_edges == 0
        assert graph.in_degrees().sum() == 0
        assert graph.summary()["max_in_degree"] == 0

    def test_summary_fields(self, small_graph):
        stats = small_graph.summary()
        assert stats["num_nodes"] == small_graph.num_nodes
        assert stats["num_classes"] == 4
        assert stats["mean_degree"] == pytest.approx(small_graph.num_edges / small_graph.num_nodes)


class TestPartitioning:
    def test_assign_deterministic_and_in_range(self):
        ids = np.arange(100)
        assignments = HashPartitioner(7).assign_many(ids)
        assert np.all((assignments >= 0) & (assignments < 7))
        np.testing.assert_array_equal(assignments, ids % 7)

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)

    def test_partition_graph_covers_all_nodes_and_edges(self, small_graph):
        partitions = PregelEngine(small_graph, 5).partitions
        all_nodes = np.concatenate([p.node_ids for p in partitions])
        assert np.array_equal(np.sort(all_nodes), np.arange(small_graph.num_nodes))
        assert sum(p.num_out_edges for p in partitions) == small_graph.num_edges

    def test_partition_owns_out_edges_of_its_nodes(self, small_graph):
        for partition in PregelEngine(small_graph, 4).partitions:
            owned = set(partition.node_ids.tolist())
            assert all(int(s) in owned for s in partition.out_src)

    def test_partition_features_sliced(self, small_graph):
        for partition in PregelEngine(small_graph, 3).partitions:
            np.testing.assert_allclose(partition.node_features,
                                       small_graph.node_features[partition.node_ids])


@settings(max_examples=30, deadline=None)
@given(num_nodes=st.integers(min_value=1, max_value=40),
       num_edges=st.integers(min_value=0, max_value=120),
       num_partitions=st.integers(min_value=1, max_value=48))
def test_partitioning_is_exhaustive_and_disjoint(num_nodes, num_edges, num_partitions):
    """Property: every node appears in exactly one partition; edges conserved;
    partition ``p`` holds the nodes ``v`` with ``v % N == p`` ascending, their
    out-edges in the graph's edge order, and those nodes' and edges' rows
    (more partitions than nodes leaves some empty)."""
    rng = np.random.default_rng(num_nodes * 97 + num_edges)
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    graph = Graph(src, dst, node_features=rng.normal(size=(num_nodes, 3)),
                  edge_features=rng.normal(size=(num_edges, 2)),
                  labels=rng.integers(0, 4, size=num_nodes), num_nodes=num_nodes)
    partitions = PregelEngine(graph, num_partitions).partitions
    assert [p.partition_id for p in partitions] == list(range(num_partitions))
    all_nodes = np.concatenate([p.node_ids for p in partitions])
    assert np.array_equal(np.sort(all_nodes), np.arange(num_nodes))
    assert sum(p.num_out_edges for p in partitions) == num_edges
    for p in partitions:
        assert np.all(np.diff(p.node_ids) > 0)
        assert np.all(p.node_ids % num_partitions == p.partition_id)
        nodes = np.flatnonzero(np.arange(num_nodes) % num_partitions == p.partition_id)
        edges = np.flatnonzero(src % num_partitions == p.partition_id)
        np.testing.assert_array_equal(p.node_ids, nodes)
        np.testing.assert_array_equal(p.out_src, src[edges])
        np.testing.assert_array_equal(p.out_dst, dst[edges])
        np.testing.assert_array_equal(p.node_features, graph.node_features[nodes])
        np.testing.assert_array_equal(p.labels, graph.labels[nodes])
        np.testing.assert_array_equal(p.out_edge_features, graph.edge_features[edges])


def assert_edge_ids_match_a_scan(graph):
    for node in range(graph.num_nodes):
        np.testing.assert_array_equal(graph.out_edge_ids(node),
                                      np.flatnonzero(graph.src == node))
        np.testing.assert_array_equal(graph.in_edge_ids(node),
                                      np.flatnonzero(graph.dst == node))


@settings(max_examples=40, deadline=None)
@given(num_nodes=st.integers(min_value=1, max_value=30),
       num_edges=st.integers(min_value=0, max_value=90),
       num_removed=st.integers(min_value=0, max_value=20),
       num_added=st.integers(min_value=0, max_value=20),
       seed=st.integers(min_value=0, max_value=2**16))
def test_edge_ids_match_a_scan_before_and_after_a_delta(num_nodes, num_edges, num_removed,
                                                       num_added, seed):
    """Property: every node's ``out_edge_ids``/``in_edge_ids`` list exactly
    the positions of its out-/in-edges in ascending order, isolated nodes
    included, and still do after a delta swaps the edge arrays under an
    index already cached."""
    rng = np.random.default_rng(seed)
    # endpoints come from the lower half of the ids, so the upper half is isolated
    reach = max(1, num_nodes // 2)
    graph = Graph(rng.integers(0, reach, size=num_edges), rng.integers(0, reach, size=num_edges),
                  num_nodes=num_nodes)
    assert_edge_ids_match_a_scan(graph)
    removed = rng.choice(num_edges, size=min(num_removed, num_edges), replace=False)
    apply_delta_to_graph(graph, GraphDelta(
        removed_edge_ids=removed,
        added_src=rng.integers(0, num_nodes, size=num_added),
        added_dst=rng.integers(0, num_nodes, size=num_added)))
    assert graph.num_edges == num_edges - removed.size + num_added
    assert_edge_ids_match_a_scan(graph)


@settings(max_examples=30, deadline=None)
@given(num_nodes=st.integers(min_value=2, max_value=30),
       num_edges=st.integers(min_value=1, max_value=90))
def test_degree_invariants(num_nodes, num_edges):
    """Property: in/out degree sums both equal the edge count."""
    rng = np.random.default_rng(num_nodes * 13 + num_edges)
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    graph = Graph(src, dst, num_nodes=num_nodes)
    assert graph.in_degrees().sum() == num_edges
    assert graph.out_degrees().sum() == num_edges
    assert graph.in_degrees().shape == (num_nodes,)
