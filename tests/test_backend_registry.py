"""The backend table: lookup, the cluster flavour each backend defaults to,
and the base class's ``apply_delta`` that both of the paper's backends land
deltas through."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.executor import available_executors
from repro.cluster.resources import ClusterSpec
from repro.gnn.model import build_model
from repro.graph.generators import powerlaw_graph
from repro.graph.graph import Graph
from repro.inference import (
    GraphDelta,
    InferenceConfig,
    InferenceSession,
    StrategyConfig,
    UnknownBackendError,
    available_backends,
    get_backend,
)
from repro.inference.backends import (
    BACKENDS,
    Backend,
    MapReduceBackend,
    PregelBackend,
)
from repro.inference.delta import apply_delta_to_graph


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == {"pregel", "mapreduce"}
        assert all(get_backend(name).name == name for name in available_backends())

    def test_get_backend_returns_singletons(self):
        assert isinstance(get_backend("pregel"), PregelBackend)
        assert isinstance(get_backend("mapreduce"), MapReduceBackend)
        assert get_backend("pregel") is get_backend("pregel")

    def test_unknown_backend_lists_registered_names(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend("spark-on-mars")
        message = str(excinfo.value)
        assert "spark-on-mars" in message
        for name in ("pregel", "mapreduce"):
            assert name in message

    def test_unknown_backend_is_a_value_error(self):
        with pytest.raises(ValueError):
            get_backend("nope")

    def test_available_backends_is_a_copy(self):
        names = available_backends()
        names.add("spark-on-mars")
        assert "spark-on-mars" not in BACKENDS
        assert available_backends() == {"pregel", "mapreduce"}

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

    @pytest.mark.parametrize("backend,flavour", [
        ("pregel", ClusterSpec.pregel_default),
        ("mapreduce", ClusterSpec.mapreduce_default),
    ])
    def test_config_accepts_any_registered_backend(self, backend, flavour):
        config = InferenceConfig(backend=backend, num_workers=4)
        assert config.cluster == flavour(4)

    def test_config_rejects_unregistered_backend_with_names(self):
        with pytest.raises(ValueError) as excinfo:
            InferenceConfig(backend="flink")
        assert "pregel" in str(excinfo.value)

    def test_khop_is_not_a_backend(self):
        # The k-hop pipeline is the baseline the backends are measured
        # against (TraditionalPipeline), not a third way to serve.
        with pytest.raises(UnknownBackendError) as excinfo:
            InferenceConfig(backend="khop")
        assert str(excinfo.value).endswith("known backends: 'mapreduce', 'pregel'")


def shaped_delta(kind: str, graph: Graph, rng: np.random.Generator) -> GraphDelta:
    """A feature, hub-preserving edge, or hub-moving delta (threshold 20)."""
    low = np.nonzero(graph.out_degrees() < 5)[0]
    if kind == "feature":
        ids = rng.choice(graph.num_nodes, size=9, replace=False)
        return GraphDelta(node_ids=ids,
                          node_features=rng.standard_normal((9, graph.feature_dim)))
    if kind == "stable-edge":
        return GraphDelta(
            added_src=low[:4], added_dst=rng.integers(0, graph.num_nodes, size=4),
            removed_edge_ids=np.nonzero(np.isin(graph.src, low[4:40]))[0][:3])
    return GraphDelta(added_src=np.full(30, low[0]),
                      added_dst=rng.choice(graph.num_nodes, size=30, replace=False))


REASONS = {"feature": "", "stable-edge": "",
           "hub-moving": "the out-degree hub set changed"}


@pytest.mark.parametrize("executor", sorted(available_executors()))
@pytest.mark.parametrize("kind", sorted(REASONS))
@pytest.mark.parametrize("backend", ["mapreduce", "pregel"])
def test_base_apply_delta_lands_then_patches_or_replans(backend, kind, executor):
    """Every delta lands on ``plan.graph`` (the flush lands a caller's graph,
    then ``Backend.apply_delta`` patches the plan); it reports in place
    unless the hub set moved, and only then does the session re-plan."""
    graph = powerlaw_graph(num_nodes=300, avg_degree=5.0, skew="out",
                           feature_dim=8, num_classes=3, seed=71)
    reference = Graph(graph.src.copy(), graph.dst.copy(),
                      node_features=graph.node_features.copy(),
                      num_nodes=graph.num_nodes)
    session = InferenceSession(
        build_model("sage", 8, 16, 3, num_layers=2, seed=1),
        InferenceConfig(backend=backend, num_workers=4, executor=executor,
                        strategies=StrategyConfig(partial_gather=True, broadcast=True,
                                                  shadow_nodes=True,
                                                  hub_threshold_override=20)))
    plan = session.prepare(graph)
    try:
        session.infer()
        delta = shaped_delta(kind, graph, np.random.default_rng(71))
        apply_delta_to_graph(reference, delta)
        outcome = session.apply_delta(delta)

        replans = kind == "hub-moving"
        assert outcome.in_place is not replans
        assert outcome.reason == REASONS[kind]
        for name in ("src", "dst", "node_features"):
            np.testing.assert_array_equal(getattr(plan.graph, name),
                                          getattr(reference, name))
        assert session.num_replans == int(replans)
        assert (session.plan is plan) is not replans
        assert session.plan.graph is graph
    finally:
        session.close()
