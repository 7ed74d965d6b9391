"""InferenceSession: plan-once/infer-many semantics and the hub-mirror merge."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gnn.model import build_model
from repro.gnn.signature import export_signature
from repro.graph.generators import labeled_community_graph, powerlaw_graph
from repro.inference import (
    InferenceConfig,
    InferenceSession,
    StrategyConfig,
)
from repro.inference.backends import Backend, merge_hub_mirrors, plan_gas_execution
from repro.inference.shadow import ShadowNodePlan, apply_shadow_nodes
from repro.inference.strategies import build_strategy_plan


@pytest.fixture(scope="module")
def community():
    return labeled_community_graph(num_nodes=150, num_classes=4, feature_dim=10,
                                   avg_degree=6.0, seed=5)


@pytest.fixture(scope="module")
def skewed():
    return powerlaw_graph(num_nodes=350, avg_degree=6.0, skew="out", feature_dim=8,
                          num_classes=3, seed=9)


ALL_ON = StrategyConfig(partial_gather=True, broadcast=True, shadow_nodes=True,
                        hub_threshold_override=15)


class _CountingBackend(Backend):
    """Delegating spy that counts plan/execute calls on one session."""

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name
        self.plan_calls = 0
        self.execute_calls = 0

    def default_cluster(self, num_workers):
        return self._inner.default_cluster(num_workers)

    def plan(self, model, graph, config):
        self.plan_calls += 1
        return self._inner.plan(model, graph, config)

    def release(self, plan):
        return self._inner.release(plan)

    def execute(self, plan, metrics):
        self.execute_calls += 1
        return self._inner.execute(plan, metrics)


class TestSessionLifecycle:
    def test_infer_before_prepare_raises(self, community):
        model = build_model("sage", community.feature_dim, 8, 4, seed=0)
        session = InferenceSession(model, InferenceConfig(backend="pregel", num_workers=2))
        with pytest.raises(RuntimeError, match="prepare"):
            session.infer()

    def test_prepare_returns_cached_plan(self, community):
        model = build_model("sage", community.feature_dim, 8, 4, seed=0)
        session = InferenceSession(model, InferenceConfig(backend="pregel", num_workers=2))
        assert not session.is_prepared
        plan = session.prepare(community)
        assert session.is_prepared and session.plan is plan
        assert "pregel" in plan.describe()

    @pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
    def test_second_infer_skips_planning(self, community, backend):
        model = build_model("sage", community.feature_dim, 8, 4, seed=1)
        session = InferenceSession(model, InferenceConfig(backend=backend, num_workers=3))
        spy = _CountingBackend(session.backend)
        session.backend = spy

        plan = session.prepare(community)
        first = session.infer()
        second = session.infer(community)     # same graph object: no re-plan
        third = session.infer()
        assert spy.plan_calls == 1
        assert spy.execute_calls == 3
        assert session.plan is plan
        np.testing.assert_array_equal(first.scores, second.scores)
        np.testing.assert_array_equal(first.scores, third.scores)

    def test_new_graph_triggers_replan(self, community):
        other = labeled_community_graph(num_nodes=90, num_classes=4,
                                        feature_dim=community.feature_dim,
                                        avg_degree=5.0, seed=21)
        model = build_model("sage", community.feature_dim, 8, 4, seed=1)
        session = InferenceSession(model, InferenceConfig(backend="pregel", num_workers=2))
        spy = _CountingBackend(session.backend)
        session.backend = spy
        session.infer(community)
        session.infer(other)
        assert spy.plan_calls == 2

    def test_infer_many(self, community):
        model = build_model("gcn", community.feature_dim, 8, 4, seed=2)
        session = InferenceSession(model, InferenceConfig(backend="pregel", num_workers=2))
        session.prepare(community)
        results = session.infer_many(3)
        assert len(results) == 3 and session.num_runs == 3
        for result in results[1:]:
            np.testing.assert_array_equal(results[0].scores, result.scores)
        with pytest.raises(ValueError):
            session.infer_many(0)

    def test_infer_many_rejects_non_integral_n(self, community):
        # infer_many(0.5) used to pass the n <= 0 guard and silently return []
        # without running anything.
        model = build_model("gcn", community.feature_dim, 8, 4, seed=2)
        session = InferenceSession(model, InferenceConfig(backend="pregel", num_workers=2))
        session.prepare(community)
        with pytest.raises(TypeError, match="integer"):
            session.infer_many(0.5)
        with pytest.raises(TypeError, match="integer"):
            session.infer_many(2.0)
        with pytest.raises(TypeError, match="integer"):
            session.infer_many(True)
        assert session.num_runs == 0
        assert len(session.infer_many(np.int64(2))) == 2

    def test_session_from_signature(self, community):
        model = build_model("sage", community.feature_dim, 8, 4, seed=3)
        from_model = InferenceSession(model, InferenceConfig(num_workers=3)).infer(community)
        signature_session = InferenceSession(export_signature(model),
                                             InferenceConfig(num_workers=3))
        from_signature = signature_session.infer(community)
        np.testing.assert_allclose(from_model.scores, from_signature.scores, atol=1e-12)

    def test_prepared_source_does_not_replan_per_infer(self, community):
        """A source passed to every infer() is planned once, not per call."""
        model = build_model("sage", community.feature_dim, 8, 4, seed=1)
        session = InferenceSession(model, InferenceConfig(backend="pregel", num_workers=2))
        spy = _CountingBackend(session.backend)
        session.backend = spy
        session.prepare(community)
        first = session.infer(community)
        second = session.infer(community)
        assert spy.plan_calls == 1
        np.testing.assert_array_equal(first.scores, second.scores)


class TestMeasuredWallClock:
    def test_results_carry_measured_wall_clock_and_cost(self, community):
        # elapsed_seconds is the *measured* per-infer wall clock (distinct
        # from the simulated cluster cost model) — the single latency source
        # of truth the pool's totals and the gateway's percentiles read.
        model = build_model("sage", community.feature_dim, 8, 4, seed=4)
        session = InferenceSession(model, InferenceConfig(backend="pregel",
                                                          num_workers=2))
        plan = session.prepare(community)
        results = session.infer_many(3)
        assert session.num_runs == 3
        assert all(r.elapsed_seconds > 0.0 for r in results)
        assert all(r.cost.wall_clock_seconds > 0.0 for r in results)
        assert all(r.num_supersteps == plan.num_supersteps for r in results)


class TestHubMirrorMerge:
    def _plan_for(self, graph, model, num_workers=4, threshold=15):
        return build_strategy_plan(
            model, graph, num_workers,
            StrategyConfig(shadow_nodes=True, broadcast=True,
                           hub_threshold_override=threshold),
            graph.edge_features is not None)

    def test_merge_dedupes_and_sorts(self, skewed):
        model = build_model("sage", skewed.feature_dim, 8, 3, seed=0)
        plan = self._plan_for(skewed, model)
        shadow = apply_shadow_nodes(skewed, plan.threshold, 4)
        assert shadow.num_mirrors, "fixture should produce mirrors"
        merge_hub_mirrors(plan, shadow)
        hubs = plan.out_degree_hubs
        assert hubs.dtype == np.int64
        assert np.array_equal(hubs, np.unique(hubs))  # sorted + deduplicated

    def test_merge_with_empty_hub_array_stays_int64(self, skewed):
        model = build_model("sage", skewed.feature_dim, 8, 3, seed=0)
        plan = self._plan_for(skewed, model)
        plan.out_degree_hubs = np.empty(0, dtype=np.float64)  # worst case dtype
        shadow = ShadowNodePlan(graph=skewed, original_num_nodes=skewed.num_nodes)
        merge_hub_mirrors(plan, shadow)
        assert plan.out_degree_hubs.dtype == np.int64
        assert plan.out_degree_hubs.size == 0
        merge_hub_mirrors(plan, None)
        assert plan.out_degree_hubs.dtype == np.int64

    def test_gas_planning_produces_sorted_hubs(self, skewed):
        model = build_model("sage", skewed.feature_dim, 8, 3, seed=0)
        config = InferenceConfig(backend="pregel", num_workers=4, strategies=ALL_ON)
        plan = plan_gas_execution("pregel", model, skewed, config)
        hubs = plan.strategy_plan.out_degree_hubs
        assert hubs.dtype == np.int64
        assert np.array_equal(hubs, np.unique(hubs))
        # Mirrors of hubs are included in the hub set.
        assert plan.shadow_plan is not None
        origin_of = plan.shadow_plan.origin_of
        mirrors_of_hubs = np.flatnonzero(origin_of != np.arange(origin_of.size))
        if mirrors_of_hubs.size:
            assert np.isin(mirrors_of_hubs, hubs).any()
