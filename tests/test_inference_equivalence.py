"""The core correctness property of InferTurbo: distributed full-graph inference
produces exactly the same scores as a single-machine forward pass over the whole
graph, for every architecture, backend and strategy combination — and therefore
identical predictions at every run (the paper's consistency requirement)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.executor import available_executors
from repro.gnn.model import build_model
from repro.gnn.signature import export_signature
from repro.graph.generators import labeled_community_graph, powerlaw_graph, star_graph
from repro.graph.graph import Graph
from repro.inference import InferenceConfig, InferenceSession, StrategyConfig
from repro.tensor.tensor import Tensor, no_grad


def reference_scores(model, graph: Graph) -> np.ndarray:
    """Single-machine full-graph forward pass (ground truth)."""
    model.eval()
    with no_grad():
        edge_features = None if graph.edge_features is None else Tensor(graph.edge_features)
        return model.forward(Tensor(graph.node_features), graph.src, graph.dst,
                             edge_features=edge_features, num_nodes=graph.num_nodes).data


ALL_STRATEGIES = {
    "base": StrategyConfig(partial_gather=False, broadcast=False, shadow_nodes=False),
    "partial": StrategyConfig(partial_gather=True),
    "broadcast": StrategyConfig(partial_gather=False, broadcast=True, hub_threshold_override=15),
    "shadow": StrategyConfig(partial_gather=False, shadow_nodes=True, hub_threshold_override=15),
    "all": StrategyConfig(partial_gather=True, broadcast=True, shadow_nodes=True,
                          hub_threshold_override=15),
}

#: the hub-strategy sets pregel and mapreduce are compared under, bit for bit
CROSS_BACKEND_STRATEGIES = {
    "base": ALL_STRATEGIES["base"],
    "PG": StrategyConfig(partial_gather=True, broadcast=False, shadow_nodes=False),
    "PG+BC": StrategyConfig(partial_gather=True, broadcast=True, shadow_nodes=False,
                            hub_threshold_override=15),
    "PG+BC+SN": ALL_STRATEGIES["all"],
}


@pytest.fixture(scope="module")
def community():
    return labeled_community_graph(num_nodes=180, num_classes=4, feature_dim=10,
                                   avg_degree=7.0, seed=5)


@pytest.fixture(scope="module")
def skewed():
    return powerlaw_graph(num_nodes=400, avg_degree=6.0, skew="out", feature_dim=8,
                          num_classes=3, seed=9)


def shuffled_edges(graph: Graph, seed: int) -> Graph:
    """``graph`` with its edge list in a random order (no longer by source)."""
    order = np.random.default_rng(seed).permutation(graph.num_edges)
    return Graph(src=graph.src[order], dst=graph.dst[order],
                 node_features=graph.node_features, labels=graph.labels,
                 num_nodes=graph.num_nodes)


class TestEquivalence:
    @pytest.mark.parametrize("arch", ["sage", "gat", "gcn"])
    @pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
    def test_matches_reference_base_strategies(self, community, arch, backend):
        model = build_model(arch, community.feature_dim, 16, 4, num_layers=2, seed=1)
        expected = reference_scores(model, community)
        result = InferenceSession(
            model, InferenceConfig(backend=backend, num_workers=4)).infer(community)
        np.testing.assert_allclose(result.scores, expected, atol=1e-9)

    @pytest.mark.parametrize("strategy_name", list(ALL_STRATEGIES))
    @pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
    def test_strategies_do_not_change_results_sage(self, skewed, strategy_name, backend):
        model = build_model("sage", skewed.feature_dim, 16, 3, num_layers=2, seed=2)
        expected = reference_scores(model, skewed)
        config = InferenceConfig(backend=backend, num_workers=4,
                                 strategies=ALL_STRATEGIES[strategy_name])
        result = InferenceSession(model, config).infer(skewed)
        np.testing.assert_allclose(result.scores, expected, atol=1e-9)

    @pytest.mark.parametrize("strategy_name", ["broadcast", "shadow", "all"])
    def test_strategies_do_not_change_results_gat(self, skewed, strategy_name):
        """GAT cannot use partial-gather, but broadcast/shadow must stay exact."""
        model = build_model("gat", skewed.feature_dim, 16, 3, num_layers=2, seed=3)
        expected = reference_scores(model, skewed)
        config = InferenceConfig(backend="pregel", num_workers=4,
                                 strategies=ALL_STRATEGIES[strategy_name])
        result = InferenceSession(model, config).infer(skewed)
        np.testing.assert_allclose(result.scores, expected, atol=1e-9)

    def test_three_layer_model(self, community):
        model = build_model("sage", community.feature_dim, 12, 4, num_layers=3, seed=4)
        expected = reference_scores(model, community)
        result = InferenceSession(model, InferenceConfig(backend="pregel", num_workers=3)).infer(community)
        np.testing.assert_allclose(result.scores, expected, atol=1e-9)
        assert result.num_supersteps == 4

    def test_single_layer_model(self, community):
        model = build_model("gcn", community.feature_dim, 12, 4, num_layers=1, seed=4)
        expected = reference_scores(model, community)
        result = InferenceSession(model, InferenceConfig(backend="mapreduce", num_workers=2)).infer(community)
        np.testing.assert_allclose(result.scores, expected, atol=1e-9)

    def test_edge_features_respected(self):
        graph = labeled_community_graph(num_nodes=120, num_classes=3, feature_dim=6,
                                        avg_degree=5.0, edge_feature_dim=4, seed=8)
        model = build_model("sage", 6, 12, 3, num_layers=2, edge_dim=4, seed=5)
        expected = reference_scores(model, graph)
        for backend in ("pregel", "mapreduce"):
            result = InferenceSession(model, InferenceConfig(backend=backend, num_workers=3)).infer(graph)
            np.testing.assert_allclose(result.scores, expected, atol=1e-9,
                                       err_msg=f"backend={backend}")

    def test_isolated_nodes_handled(self):
        """Nodes with no in- or out-edges still receive predictions."""
        graph = Graph(src=np.array([0, 1]), dst=np.array([1, 2]),
                      node_features=np.random.default_rng(0).normal(size=(6, 5)),
                      labels=np.zeros(6, dtype=np.int64), num_nodes=6)
        model = build_model("sage", 5, 8, 2, num_layers=2, seed=0)
        expected = reference_scores(model, graph)
        for backend in ("pregel", "mapreduce"):
            result = InferenceSession(model, InferenceConfig(backend=backend, num_workers=3)).infer(graph)
            np.testing.assert_allclose(result.scores, expected, atol=1e-9)

    def test_star_graph_extreme_hub(self):
        star = star_graph(300, direction="out", seed=0)
        model = build_model("sage", star.feature_dim, 8, 2, num_layers=2, seed=1)
        expected = reference_scores(model, star)
        config = InferenceConfig(backend="pregel", num_workers=4,
                                 strategies=StrategyConfig(partial_gather=True, broadcast=True,
                                                           shadow_nodes=True,
                                                           hub_threshold_override=20))
        result = InferenceSession(model, config).infer(star)
        np.testing.assert_allclose(result.scores, expected, atol=1e-9)

    def test_more_workers_than_nodes(self):
        graph = labeled_community_graph(num_nodes=10, num_classes=2, feature_dim=4,
                                        avg_degree=3.0, seed=3)
        model = build_model("sage", 4, 8, 2, seed=0)
        expected = reference_scores(model, graph)
        result = InferenceSession(model, InferenceConfig(backend="pregel", num_workers=16)).infer(graph)
        np.testing.assert_allclose(result.scores, expected, atol=1e-9)

    def test_runs_from_signature(self, community):
        model = build_model("sage", community.feature_dim, 16, 4, seed=6)
        signature = export_signature(model)
        expected = reference_scores(model, community)
        result = InferenceSession(signature, InferenceConfig(backend="pregel", num_workers=4)).infer(community)
        np.testing.assert_allclose(result.scores, expected, atol=1e-9)

    def test_predicted_classes_helper(self, community):
        model = build_model("sage", community.feature_dim, 16, 4, seed=1)
        result = InferenceSession(model, InferenceConfig(num_workers=4)).infer(community)
        predictions = result.predicted_classes()
        assert predictions.shape == (community.num_nodes,)
        np.testing.assert_array_equal(predictions, result.scores.argmax(axis=-1))


class TestConsistency:
    def test_repeated_runs_identical(self, skewed):
        """Full-graph inference must be bit-identical across runs (Fig. 7 claim)."""
        model = build_model("sage", skewed.feature_dim, 16, 3, seed=11)
        config = InferenceConfig(backend="pregel", num_workers=4,
                                 strategies=StrategyConfig(partial_gather=True))
        first = InferenceSession(model, config).infer(skewed).scores
        second = InferenceSession(model, config).infer(skewed).scores
        np.testing.assert_array_equal(first, second)

    def test_worker_count_does_not_change_results(self, community):
        model = build_model("sage", community.feature_dim, 16, 4, seed=12)
        results = []
        for workers in (1, 3, 8):
            config = InferenceConfig(backend="pregel", num_workers=workers,
                                     strategies=StrategyConfig(partial_gather=True))
            results.append(InferenceSession(model, config).infer(community).scores)
        np.testing.assert_allclose(results[0], results[1], atol=1e-9)
        np.testing.assert_allclose(results[1], results[2], atol=1e-9)

    def test_backends_agree_with_each_other(self, community):
        model = build_model("gat", community.feature_dim, 16, 4, seed=13)
        pregel = InferenceSession(model, InferenceConfig(backend="pregel", num_workers=4)).infer(community)
        mapreduce = InferenceSession(model, InferenceConfig(backend="mapreduce", num_workers=4)).infer(community)
        assert np.array_equal(pregel.scores, mapreduce.scores)

    @pytest.mark.parametrize("executor", sorted(available_executors()))
    @pytest.mark.parametrize("strategies", list(CROSS_BACKEND_STRATEGIES))
    @pytest.mark.parametrize("edge_order", ["by-source", "shuffled"])
    @pytest.mark.parametrize("arch", ["gcn", "sage", "gat"])
    def test_pregel_and_mapreduce_give_the_same_bits(self, skewed, arch, edge_order,
                                                     strategies, executor):
        """Both backends run one partition program over the same partitions —
        MapReduce only steps a superstep's compute and route in different
        waves — so they send, fold and gather the same messages in the same
        order: the scores are equal bit for bit, for every hub-strategy set
        (shadow mirrors included) and any edge order."""
        graph = skewed if edge_order == "by-source" else shuffled_edges(skewed, seed=2)
        model = build_model(arch, graph.feature_dim, 16, 3, num_layers=2, seed=4)
        scores = {}
        for backend in ("pregel", "mapreduce"):
            config = InferenceConfig(backend=backend, num_workers=4, executor=executor,
                                     strategies=CROSS_BACKEND_STRATEGIES[strategies])
            session = InferenceSession(model, config)
            try:
                scores[backend] = session.infer(graph).scores
            finally:
                session.close()
        assert np.array_equal(scores["pregel"], scores["mapreduce"])
        np.testing.assert_allclose(scores["pregel"], reference_scores(model, graph),
                                   atol=1e-9)


class TestConfigValidation:
    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError):
            InferenceConfig(backend="spark-on-mars")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            InferenceConfig(num_workers=0)

    def test_default_cluster_matches_backend(self):
        pregel_config = InferenceConfig(backend="pregel", num_workers=4)
        mapreduce_config = InferenceConfig(backend="mapreduce", num_workers=4)
        assert pregel_config.cluster.worker.memory_bytes > mapreduce_config.cluster.worker.memory_bytes

    def test_cluster_worker_count_mismatch_rejected(self):
        """A user-supplied ClusterSpec is never silently rebuilt — mismatches raise."""
        from repro.cluster.resources import ClusterSpec, WorkerSpec

        with pytest.raises(ValueError, match="does not match"):
            InferenceConfig(num_workers=6,
                            cluster=ClusterSpec(num_workers=2, worker=WorkerSpec()))

    def test_matching_user_cluster_kept(self):
        from repro.cluster.resources import ClusterSpec, WorkerSpec

        worker = WorkerSpec(cpu_cores=4)
        config = InferenceConfig(num_workers=6,
                                 cluster=ClusterSpec(num_workers=6, worker=worker))
        assert config.cluster.worker is worker

    def test_strategy_describe(self):
        assert StrategyConfig(partial_gather=False).describe() == "base"
        described = StrategyConfig(partial_gather=True, broadcast=True, shadow_nodes=True).describe()
        assert "partial-gather" in described and "broadcast" in described
