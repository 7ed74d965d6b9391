"""Tests for the Graph data structure, tables and partitioning."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.graph import Graph
from repro.graph.partition import HashPartitioner
from repro.graph.tables import EdgeTable, NodeTable, graph_to_tables, tables_to_graph
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

    def test_neighbors_line_graph(self, tiny_line_graph):
        np.testing.assert_array_equal(tiny_line_graph.out_neighbors(0), [1])
        np.testing.assert_array_equal(tiny_line_graph.in_neighbors(3), [2])
        assert tiny_line_graph.out_neighbors(3).size == 0
        assert tiny_line_graph.in_neighbors(0).size == 0

    def test_edge_ids_consistent_with_neighbors(self):
        graph = make_graph(15, 60, seed=2)
        for node in range(graph.num_nodes):
            out_ids = graph.out_edge_ids(node)
            np.testing.assert_array_equal(graph.dst[out_ids], graph.out_neighbors(node))
            in_ids = graph.in_edge_ids(node)
            np.testing.assert_array_equal(graph.src[in_ids], graph.in_neighbors(node))

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


class TestDerivedGraphs:
    def test_reverse_swaps_degrees(self):
        graph = make_graph(12, 40, seed=3)
        reverse = graph.reverse()
        np.testing.assert_array_equal(graph.in_degrees(), reverse.out_degrees())
        np.testing.assert_array_equal(graph.out_degrees(), reverse.in_degrees())

    def test_subgraph_induced_edges(self, tiny_line_graph):
        sub, node_ids, edge_ids = tiny_line_graph.subgraph(np.array([0, 1, 2]))
        assert sub.num_nodes == 3
        assert sub.num_edges == 2          # 0→1 and 1→2; 2→3 leaves the set
        np.testing.assert_array_equal(node_ids, [0, 1, 2])
        assert set(edge_ids.tolist()) == {0, 1}

    def test_subgraph_slices_attributes(self):
        graph = make_graph(10, 25, seed=5)
        keep = np.array([1, 3, 5, 7])
        sub, _, _ = graph.subgraph(keep)
        np.testing.assert_allclose(sub.node_features, graph.node_features[keep])
        np.testing.assert_array_equal(sub.labels, graph.labels[keep])


class TestTables:
    def test_roundtrip_preserves_structure(self, small_graph):
        node_table, edge_table = graph_to_tables(small_graph)
        rebuilt = tables_to_graph(node_table, edge_table)
        assert rebuilt.num_nodes == small_graph.num_nodes
        assert rebuilt.num_edges == small_graph.num_edges
        np.testing.assert_array_equal(np.sort(rebuilt.src), np.sort(small_graph.src))
        np.testing.assert_allclose(rebuilt.node_features, small_graph.node_features)

    def test_node_table_adjacency_matches_edges(self, small_graph):
        node_table, edge_table = graph_to_tables(small_graph)
        assert node_table.num_out_edges() == len(edge_table)
        for position in range(min(20, len(node_table))):
            node_id, _, neighbors = node_table.row(position)
            np.testing.assert_array_equal(np.sort(neighbors),
                                          np.sort(small_graph.out_neighbors(node_id)))

    def test_node_table_validation(self):
        with pytest.raises(ValueError):
            NodeTable(node_ids=np.array([0, 1]), features=np.zeros((3, 2)),
                      out_neighbors=[np.array([]), np.array([])])
        with pytest.raises(ValueError):
            NodeTable(node_ids=np.array([0, 1]), features=None, out_neighbors=[np.array([])])

    def test_isolated_nodes_survive_table_roundtrip(self):
        graph = Graph(np.array([0]), np.array([1]),
                      node_features=np.ones((5, 2)), num_nodes=5)
        rebuilt = tables_to_graph(*graph_to_tables(graph))
        assert rebuilt.num_nodes == 5

    def test_edge_table_validation(self):
        with pytest.raises(ValueError):
            EdgeTable(src=np.array([0, 1]), dst=np.array([0]))
        with pytest.raises(ValueError):
            EdgeTable(src=np.array([0]), dst=np.array([1]), features=np.zeros((3, 2)))


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
