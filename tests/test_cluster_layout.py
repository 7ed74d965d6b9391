"""Tests for the ClusterLayout routing tables and the partitions sliced from them."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.layout import ClusterLayout
from repro.graph.graph import Graph
from repro.graph.partition import HashPartitioner
from repro.pregel.engine import PregelEngine


class TestClusterLayoutConstruction:
    def test_from_assignments_matches_naive_dict(self):
        rng = np.random.default_rng(3)
        assignments = rng.integers(0, 5, size=200).astype(np.int64)
        layout = ClusterLayout.from_assignments(assignments, 5)
        # Naive reference: local index = rank among same-partition ids.
        naive_local = {}
        counters = [0] * 5
        for node, pid in enumerate(assignments):
            naive_local[node] = counters[pid]
            counters[pid] += 1
        np.testing.assert_array_equal(layout.owner_of, assignments)
        for node in range(200):
            assert int(layout.local_of[node]) == naive_local[node]

    def test_build_matches_partitioner(self):
        partitioner = HashPartitioner(7)
        layout = ClusterLayout.build(100, partitioner)
        np.testing.assert_array_equal(
            layout.owner_of, partitioner.assign_many(np.arange(100)))

    def test_rejects_out_of_range_owners(self):
        with pytest.raises(ValueError):
            ClusterLayout(owner_of=np.array([0, 3]), local_of=np.array([0, 0]),
                          num_partitions=2)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            ClusterLayout(owner_of=np.array([0, 1]), local_of=np.array([0]),
                          num_partitions=2)


class TestClusterLayoutLookups:
    @pytest.fixture()
    def layout(self):
        return ClusterLayout.build(60, HashPartitioner(4))

    def test_nodes_of_roundtrip(self, layout):
        for pid in range(4):
            nodes = layout.nodes_of(pid)
            assert np.all(np.diff(nodes) > 0)  # ascending
            np.testing.assert_array_equal(layout.local_indices(nodes),
                                          np.arange(nodes.size))
            np.testing.assert_array_equal(nodes[layout.local_of[nodes]], nodes)

    def test_translate_pairs_owner_and_local(self, layout):
        ids = np.array([3, 17, 42, 59])
        owners, locals_ = layout.translate(ids)
        np.testing.assert_array_equal(owners, layout.owners(ids))
        np.testing.assert_array_equal(locals_, layout.local_indices(ids))

    def test_partition_sizes_sum_to_num_nodes(self, layout):
        assert int(layout.partition_sizes().sum()) == layout.num_nodes

    def test_empty_ids_ok(self, layout):
        assert layout.owners(np.empty(0, dtype=np.int64)).size == 0

    def test_out_of_range_id_raises(self, layout):
        with pytest.raises(ValueError, match="outside"):
            layout.owners(np.array([60]))
        with pytest.raises(ValueError, match="outside"):
            layout.local_indices(np.array([-1]))

    def test_bad_partition_id_raises(self, layout):
        with pytest.raises(ValueError):
            layout.nodes_of(4)


class TestEnginePartitionsFromLayout:
    @pytest.mark.parametrize("num_workers", [1, 5, 13])
    def test_partitions_match_a_reference_slicing(self, num_workers):
        # Reference: partition p owns the ids with id % N == p, ascending, and
        # the out-edges of those ids in the graph's edge order, with the
        # owned rows of every per-node and per-edge array.
        rng = np.random.default_rng(num_workers)
        num_nodes, num_edges = 60, 400
        graph = Graph(rng.integers(0, num_nodes, size=num_edges),
                      rng.integers(0, num_nodes, size=num_edges),
                      node_features=rng.normal(size=(num_nodes, 3)),
                      edge_features=rng.normal(size=(num_edges, 2)),
                      labels=rng.integers(0, 4, size=num_nodes), num_nodes=num_nodes)
        partitions = PregelEngine(graph, num_workers).partitions
        assert [p.partition_id for p in partitions] == list(range(num_workers))
        for pid, partition in enumerate(partitions):
            owned = np.flatnonzero(np.arange(num_nodes) % num_workers == pid)
            edges = np.flatnonzero(graph.src % num_workers == pid)
            np.testing.assert_array_equal(partition.node_ids, owned)
            np.testing.assert_array_equal(partition.node_features, graph.node_features[owned])
            np.testing.assert_array_equal(partition.labels, graph.labels[owned])
            np.testing.assert_array_equal(partition.out_src, graph.src[edges])
            np.testing.assert_array_equal(partition.out_dst, graph.dst[edges])
            np.testing.assert_array_equal(partition.out_edge_features,
                                          graph.edge_features[edges])

    def test_layout_agrees_with_partitions(self, small_graph):
        engine = PregelEngine(small_graph, 4)
        assert engine.layout.num_nodes == small_graph.num_nodes
        for partition in engine.partitions:
            np.testing.assert_array_equal(engine.layout.nodes_of(partition.partition_id),
                                          partition.node_ids)
            owners = engine.layout.owners(partition.node_ids)
            assert np.all(owners == partition.partition_id)

    def test_precomputed_layout_reused(self, small_graph):
        layout = ClusterLayout.build(small_graph.num_nodes, HashPartitioner(4))
        engine = PregelEngine(small_graph, 4, layout=layout)
        assert engine.layout is layout
        assert all(p.layout is layout for p in engine.partitions)
        assert len(engine.partitions) == 4

    def test_mismatched_layout_rejected(self, small_graph):
        layout = ClusterLayout.build(small_graph.num_nodes, HashPartitioner(3))
        with pytest.raises(ValueError, match="layout covers"):
            PregelEngine(small_graph, 4, layout=layout)
        layout = ClusterLayout.build(small_graph.num_nodes - 1, HashPartitioner(4))
        with pytest.raises(ValueError, match="layout covers"):
            PregelEngine(small_graph, 4, layout=layout)
