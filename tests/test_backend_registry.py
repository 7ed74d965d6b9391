"""The backend table: lookup, the base class's fallback hooks, and the k-hop
backend's parity with the full-graph backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.resources import ClusterSpec
from repro.gnn.model import build_model
from repro.graph.generators import labeled_community_graph
from repro.graph.graph import Graph
from repro.inference import (
    GraphDelta,
    InferenceConfig,
    InferenceSession,
    UnknownBackendError,
    available_backends,
    get_backend,
)
from repro.inference.backends import (
    BACKENDS,
    Backend,
    KHopBackend,
    MapReduceBackend,
    PregelBackend,
)


@pytest.fixture(scope="module")
def community():
    return labeled_community_graph(num_nodes=120, num_classes=3, feature_dim=8,
                                   avg_degree=5.0, seed=2)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == {"pregel", "mapreduce", "khop"}
        assert all(get_backend(name).name == name for name in available_backends())

    def test_get_backend_returns_singletons(self):
        assert isinstance(get_backend("pregel"), PregelBackend)
        assert isinstance(get_backend("mapreduce"), MapReduceBackend)
        assert isinstance(get_backend("khop"), KHopBackend)
        assert get_backend("pregel") is get_backend("pregel")

    def test_unknown_backend_lists_registered_names(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend("spark-on-mars")
        message = str(excinfo.value)
        assert "spark-on-mars" in message
        for name in ("pregel", "mapreduce", "khop"):
            assert name in message

    def test_unknown_backend_is_a_value_error(self):
        with pytest.raises(ValueError):
            get_backend("nope")

    def test_available_backends_is_a_copy(self):
        names = available_backends()
        names.add("spark-on-mars")
        assert "spark-on-mars" not in BACKENDS
        assert available_backends() == {"pregel", "mapreduce", "khop"}

    def test_incomplete_backend_cannot_be_instantiated(self):
        """abc enforces the required surface when a backend is instantiated."""
        class NoExecute(Backend):
            name = "test-incomplete"

            def default_cluster(self, num_workers):
                return ClusterSpec.pregel_default(num_workers)

            def plan(self, model, graph, config):
                raise NotImplementedError

        with pytest.raises(TypeError, match="abstract"):
            NoExecute()

    def test_table_entry_is_seen_by_lookup_and_config(self, monkeypatch):
        monkeypatch.setitem(BACKENDS, "pregel-alias", get_backend("pregel"))
        assert "pregel-alias" in available_backends()
        assert get_backend("pregel-alias") is get_backend("pregel")
        config = InferenceConfig(backend="pregel-alias", num_workers=3)
        assert config.cluster.num_workers == 3

    def test_default_hooks_are_the_full_recompute_fallback(self, community):
        """A backend overriding nothing lands the delta and asks for a re-plan."""
        khop = get_backend("khop")
        model = build_model("sage", community.feature_dim, 8, 3, num_layers=2, seed=1)
        graph = Graph(community.src.copy(), community.dst.copy(),
                      node_features=community.node_features.copy(),
                      num_nodes=community.num_nodes)
        plan = khop.plan(model, graph, InferenceConfig(backend="khop", num_workers=2))
        row = np.full((1, graph.feature_dim), 7.0)
        outcome = khop.apply_delta(plan, GraphDelta(node_ids=np.array([3]),
                                                    node_features=row))
        assert not outcome.in_place and "re-plans" in outcome.reason
        np.testing.assert_array_equal(graph.node_features[3], row[0])
        assert khop.execute_incremental(plan, None, np.array([3]), np.empty(0)) is None
        khop.release(plan)     # no-op, must not raise

    def test_config_accepts_any_registered_backend(self):
        config = InferenceConfig(backend="khop", num_workers=4)
        assert config.cluster.num_workers == 4
        # khop simulates the traditional deployment's beefier workers.
        assert config.cluster.worker.cpu_cores == ClusterSpec.traditional_default(4).worker.cpu_cores

    def test_config_rejects_unregistered_backend_with_names(self):
        with pytest.raises(ValueError) as excinfo:
            InferenceConfig(backend="flink")
        assert "pregel" in str(excinfo.value)


class TestKHopBackend:
    def test_khop_matches_pregel_shape_dtype_and_values(self, community):
        model = build_model("sage", community.feature_dim, 16, 3, num_layers=2, seed=1)
        pregel = InferenceSession(model, InferenceConfig(backend="pregel", num_workers=4))
        khop = InferenceSession(model, InferenceConfig(backend="khop", num_workers=4))
        p = pregel.infer(community)
        k = khop.infer(community)
        assert k.scores.shape == p.scores.shape
        assert k.scores.dtype == p.scores.dtype
        # Full neighbourhoods -> deterministic and numerically equal.
        np.testing.assert_allclose(k.scores, p.scores, atol=1e-9)

    def test_khop_repeated_runs_identical(self, community):
        model = build_model("gcn", community.feature_dim, 12, 3, num_layers=2, seed=3)
        session = InferenceSession(model, InferenceConfig(backend="khop", num_workers=2))
        session.prepare(community)
        first, second = session.infer_many(2)
        np.testing.assert_array_equal(first.scores, second.scores)

    def test_khop_records_metrics_and_cost(self, community):
        model = build_model("sage", community.feature_dim, 8, 3, num_layers=2, seed=4)
        session = InferenceSession(model, InferenceConfig(backend="khop", num_workers=2))
        result = session.infer(community)
        assert result.cost.cpu_minutes > 0
        assert result.metrics.instances(), "khop execution should record per-instance metrics"
