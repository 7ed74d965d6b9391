"""Tests for the traditional (k-hop sampling) inference baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.graph_store import DistributedGraphStore
from repro.baselines.khop_pipeline import TraditionalConfig, TraditionalPipeline
from repro.cluster.resources import ClusterSpec, WorkerSpec
from repro.gnn.model import build_model
from repro.graph.generators import labeled_community_graph
from repro.inference import InferenceConfig, InferenceSession


@pytest.fixture(scope="module")
def graph():
    return labeled_community_graph(num_nodes=220, num_classes=3, feature_dim=8,
                                   avg_degree=6.0, seed=17)


@pytest.fixture(scope="module")
def model(graph):
    return build_model("sage", graph.feature_dim, 16, 3, num_layers=2, seed=3)


class TestGraphStore:
    def test_query_returns_subgraph_and_counts_bytes(self, graph):
        store = DistributedGraphStore(graph, num_store_workers=3)
        subgraph = store.query_khop([0, 1, 2], num_hops=2)
        assert subgraph.num_nodes >= 3
        assert store.num_queries == 1
        assert store.metrics.total("bytes_out") > 0

    def test_subgraph_bytes_grow_with_size(self, graph):
        store = DistributedGraphStore(graph)
        small = store.query_khop([0], num_hops=1)
        large = store.query_khop(list(range(30)), num_hops=2)
        assert store.subgraph_bytes(large) > store.subgraph_bytes(small)

    def test_invalid_store_workers(self, graph):
        with pytest.raises(ValueError):
            DistributedGraphStore(graph, num_store_workers=0)


class TestTraditionalPipeline:
    def test_full_neighborhood_matches_inferturbo(self, graph, model):
        """Without sampling, the traditional pipeline and InferTurbo agree exactly."""
        targets = np.arange(60)
        pipeline = TraditionalPipeline(model, TraditionalConfig(num_workers=4, fanout=None))
        traditional = pipeline.run(graph, targets=targets)
        inferturbo = InferenceSession(model, InferenceConfig(num_workers=4)).infer(graph)
        np.testing.assert_allclose(traditional.scores[targets], inferturbo.scores[targets],
                                   atol=1e-9)

    def test_sampling_changes_predictions_between_seeds(self, graph, model):
        targets = np.arange(80)
        pipeline = TraditionalPipeline(model, TraditionalConfig(num_workers=4, fanout=2))
        first = pipeline.run(graph, targets=targets, seed=1)
        second = pipeline.run(graph, targets=targets, seed=2)
        assert not np.allclose(first.scores[targets], second.scores[targets])

    def test_full_neighborhood_is_deterministic(self, graph, model):
        targets = np.arange(40)
        pipeline = TraditionalPipeline(model, TraditionalConfig(num_workers=4, fanout=None))
        first = pipeline.run(graph, targets=targets, seed=1)
        second = pipeline.run(graph, targets=targets, seed=2)
        np.testing.assert_array_equal(first.scores[targets], second.scores[targets])

    def test_redundancy_factor_exceeds_one(self, graph, model):
        """Overlapping k-hop neighbourhoods recompute nodes many times over."""
        pipeline = TraditionalPipeline(model, TraditionalConfig(num_workers=4, fanout=None,
                                                                batch_size=16))
        result = pipeline.run(graph)
        assert result.redundancy_factor(graph) > 2.0

    def test_run_records_metrics_and_cost(self, graph, model):
        pipeline = TraditionalPipeline(model, TraditionalConfig(num_workers=2))
        result = pipeline.run(graph, targets=np.arange(32))
        assert result.cost.cpu_minutes > 0
        assert result.metrics.instances(), "a run records per-instance metrics"

    def test_batches_spread_over_workers(self, graph, model):
        pipeline = TraditionalPipeline(model, TraditionalConfig(num_workers=3, batch_size=16))
        result = pipeline.run(graph, targets=np.arange(96))
        busy_workers = {m.instance_id for m in result.metrics.instances("inference")}
        assert busy_workers == {0, 1, 2}

    def test_oom_detected_with_tiny_memory(self, graph, model):
        cluster = ClusterSpec(num_workers=2, worker=WorkerSpec(cpu_cores=2, memory_bytes=1e4))
        pipeline = TraditionalPipeline(model, TraditionalConfig(num_workers=2, cluster=cluster))
        result = pipeline.run(graph, targets=np.arange(32))
        assert result.cost.oom

    def test_estimate_costs_close_to_actual(self, graph, model):
        """Extrapolated costs should be within a factor ~2 of the measured run."""
        config = TraditionalConfig(num_workers=4, fanout=None, batch_size=32)
        pipeline = TraditionalPipeline(model, config)
        actual = pipeline.run(graph)
        estimated = pipeline.estimate_costs(graph, sample_size=64)
        ratio = estimated.cost.cpu_minutes / max(actual.cost.cpu_minutes, 1e-12)
        assert 0.4 < ratio < 2.5
        assert estimated.num_batches == actual.num_batches

    def test_estimate_costs_scales_with_hops(self, graph):
        shallow_model = build_model("sage", graph.feature_dim, 16, 3, num_layers=1, seed=0)
        deep_model = build_model("sage", graph.feature_dim, 16, 3, num_layers=2, seed=0)
        config = TraditionalConfig(num_workers=4, fanout=None)
        shallow = TraditionalPipeline(shallow_model, config).estimate_costs(graph, sample_size=48)
        deep = TraditionalPipeline(deep_model, config).estimate_costs(graph, sample_size=48)
        assert deep.cost.cpu_minutes > shallow.cost.cpu_minutes

    def test_sampling_reduces_cost(self, graph, model):
        config_full = TraditionalConfig(num_workers=4, fanout=None)
        config_sampled = TraditionalConfig(num_workers=4, fanout=2)
        full = TraditionalPipeline(model, config_full).estimate_costs(graph, sample_size=48)
        sampled = TraditionalPipeline(model, config_sampled).estimate_costs(graph, sample_size=48)
        assert sampled.cost.cpu_minutes < full.cost.cpu_minutes

    def test_default_cluster_is_traditional_flavour(self):
        config = TraditionalConfig(num_workers=4)
        assert config.cluster.worker.cpu_cores == 10
