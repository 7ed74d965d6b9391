"""The multi-tenant :class:`SessionPool`: plan cache, LRU eviction, deltas.

One deployed model serves many prepared graphs; the pool keys sessions by
the tenant's graph handle, so a tenant's second ``infer()`` must hit the plan
cache (no re-prepare — asserted with a backend spy), evicts by weight and
recency beyond capacity, and mirrors deltas onto the handle it owns so
drifting tenants keep hitting.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import threading
import time
import types
from typing import Dict, List, Set

import numpy as np
import pytest

from repro.cluster import executor as executor_module
from repro.cluster.executor import (
    Executor,
    SharedArrayPack,
    WorkerCrashError,
    available_executors,
)
from repro.cluster.metrics import MetricsCollector
from repro.gnn import export_signature
from repro.gnn.model import GNNModel, build_model
from repro.graph.generators import powerlaw_graph
from repro.graph.graph import Graph
from repro.inference import (
    GraphDelta,
    InferenceConfig,
    InferenceSession,
    SessionPool,
    StalePlanError,
    StrategyConfig,
    graph_fingerprint,
)
from repro.inference.delta import apply_delta_to_graph
from repro.serving import ServingGateway


def make_graph(seed: int, num_nodes: int = 400):
    return powerlaw_graph(num_nodes=num_nodes, avg_degree=5.0, skew="out",
                          feature_dim=8, num_classes=4, seed=seed)


def make_config() -> InferenceConfig:
    return InferenceConfig(backend="pregel", num_workers=4,
                           strategies=StrategyConfig(partial_gather=True,
                                                     broadcast=True,
                                                     shadow_nodes=True,
                                                     hub_threshold_override=20))


def make_model():
    return build_model("gcn", 8, 16, 4, num_layers=2, seed=0)


class _PlanCounter:
    """Delegating spy counting backend plan() calls across pooled sessions."""

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name
        self.plan_calls = 0

    def default_cluster(self, num_workers):
        return self._inner.default_cluster(num_workers)

    def plan(self, model, graph, config):
        self.plan_calls += 1
        return self._inner.plan(model, graph, config)

    def execute(self, plan, metrics):
        return self._inner.execute(plan, metrics)

    def release(self, plan):
        return self._inner.release(plan)

    def apply_delta(self, plan, delta):
        return self._inner.apply_delta(plan, delta)

    def execute_incremental(self, plan, metrics, feature_dirty, topo_dirty):
        return self._inner.execute_incremental(plan, metrics,
                                               feature_dirty, topo_dirty)


def _spy_on(pool: SessionPool, session: InferenceSession) -> _PlanCounter:
    spy = _PlanCounter(session.backend)
    session.backend = spy
    return spy


class TestPlanCache:
    def test_second_infer_per_graph_hits_plan_cache(self):
        pool = SessionPool(make_model(), make_config(), capacity=4)
        graphs = [make_graph(seed) for seed in (1, 2, 3)]
        spies = []
        for graph in graphs:
            session = pool.session_for(graph)
            spies.append(_spy_on(pool, session))
        first = [pool.infer(graph).scores for graph in graphs]
        second = [pool.infer(graph).scores for graph in graphs]
        assert all(spy.plan_calls == 0 for spy in spies), "second tick re-planned"
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
        stats = pool.stats
        assert stats.misses == 3 and stats.hits == 6 and stats.evictions == 0

    def test_pool_scores_match_dedicated_sessions(self):
        pool = SessionPool(make_model(), make_config(), capacity=4)
        for seed in (5, 6):
            graph = make_graph(seed)
            pooled = pool.infer(graph).scores
            solo = InferenceSession(make_model(), make_config())
            solo.prepare(make_graph(seed))
            np.testing.assert_array_equal(pooled, solo.infer().scores)

    def test_equal_content_handles_get_their_own_sessions(self):
        pool = SessionPool(make_model(), make_config(), capacity=4)
        a, b = make_graph(7), make_graph(7)     # equal content, distinct objects
        assert pool.session_for(a) is not pool.session_for(b)
        assert len(pool) == 2 and pool.stats.misses == 2 and pool.stats.hits == 0

    def test_signature_built_once_and_shared(self):
        signature = export_signature(make_model())
        pool = SessionPool(signature, make_config(), capacity=4)
        s1 = pool.session_for(make_graph(8))
        s2 = pool.session_for(make_graph(9))
        assert s1.model is s2.model is pool.model


class TestEviction:
    def test_lru_eviction_beyond_capacity(self):
        pool = SessionPool(make_model(), make_config(), capacity=2)
        g1, g2, g3 = make_graph(11), make_graph(12), make_graph(13)
        s1 = pool.session_for(g1)
        pool.session_for(g2)
        pool.session_for(g1)            # touch g1: g2 becomes LRU
        pool.session_for(g3)            # evicts g2
        assert len(pool) == 2 and pool.stats.evictions == 1
        assert g1 in pool and g3 in pool and g2 not in pool
        assert pool.session_for(g1) is s1          # survived untouched
        pool.session_for(g2)                       # re-prepared on return
        assert pool.stats.misses == 4

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            SessionPool(make_model(), make_config(), capacity=0)

    def test_evict_and_clear(self):
        pool = SessionPool(make_model(), make_config(), capacity=4)
        graph = make_graph(14)
        pool.session_for(graph)
        assert pool.evict(graph) and not pool.evict(graph)
        pool.session_for(graph)
        pool.clear()
        assert len(pool) == 0 and pool.stats.evictions == 2


class TestDeltaRouting:
    def test_apply_delta_rekeys_entry(self):
        pool = SessionPool(make_model(), make_config(), capacity=4)
        graph = make_graph(15)
        pool.infer(graph)
        old_fingerprint = graph_fingerprint(graph)
        rng = np.random.default_rng(0)
        ids = rng.choice(graph.num_nodes, size=10, replace=False)
        outcome = pool.apply_delta(graph, GraphDelta(
            node_ids=ids, node_features=rng.standard_normal((10, 8))))
        assert outcome.in_place
        # The delta changed the handle's content; the entry still serves it.
        assert graph_fingerprint(graph) != old_fingerprint
        assert graph in pool and len(pool) == 1
        pool.infer(graph, mode="incremental")
        assert pool.stats.misses == 1              # never re-prepared

    def test_pool_delta_scores_match_fresh_plan(self):
        pool = SessionPool(make_model(), make_config(), capacity=4)
        graph = make_graph(16)
        pool.infer(graph)
        rng = np.random.default_rng(1)
        ids = rng.choice(graph.num_nodes, size=10, replace=False)
        rows = rng.standard_normal((10, 8))
        pool.apply_delta(graph, GraphDelta(node_ids=ids, node_features=rows))
        pooled = pool.infer(graph, mode="incremental").scores
        reference = make_graph(16)
        reference.node_features[ids] = rows
        solo = InferenceSession(make_model(), make_config())
        solo.prepare(reference)
        np.testing.assert_array_equal(pooled, solo.infer().scores)

    def test_deferred_delta_tracks_key_and_flushes_at_infer(self):
        pool = SessionPool(make_model(), make_config(), capacity=4)
        graph = make_graph(17)
        pool.infer(graph)
        fingerprint_before = graph_fingerprint(graph)
        session = pool.session_for(graph)
        outcome = pool.apply_delta(graph, GraphDelta(
            node_ids=np.array([3]), node_features=np.ones((1, 8))), defer=True)
        assert outcome.deferred
        # The caller's handle mirrors the delta eagerly; the session's plan
        # patch is what is deferred.
        assert graph_fingerprint(graph) != fingerprint_before
        assert session.num_pending_deltas == 1
        pool.infer(graph)                          # hit; flushes the buffer
        assert session.num_pending_deltas == 0
        assert graph in pool
        assert pool.stats.misses == 1              # never re-prepared

    def test_content_equal_tenants_are_isolated(self):
        # Two tenants with byte-identical graphs are two handles with two
        # sessions: a delta from tenant B must never mutate tenant A's
        # arrays, and A keeps being served its own (pre-delta) content.
        pool = SessionPool(make_model(), make_config(), capacity=4)
        tenant_a, tenant_b = make_graph(19), make_graph(19)
        scores_before = pool.infer(tenant_a).scores
        assert pool.session_for(tenant_b) is not pool.session_for(tenant_a)
        a_features = tenant_a.node_features.copy()
        rng = np.random.default_rng(3)
        ids = rng.choice(tenant_b.num_nodes, size=10, replace=False)
        pool.apply_delta(tenant_b, GraphDelta(
            node_ids=ids, node_features=rng.standard_normal((10, 8))))
        np.testing.assert_array_equal(tenant_a.node_features, a_features)
        np.testing.assert_array_equal(pool.infer(tenant_a).scores, scores_before)
        # B's handle diverged with the delta and keeps hitting its session.
        hits_before = pool.stats.hits
        pool.infer(tenant_b, mode="incremental")
        assert pool.stats.hits == hits_before + 1

    def test_discarded_deferred_deltas_do_not_arm_state_cache(self):
        session = InferenceSession(make_model(), make_config())
        graph = make_graph(21)
        session.prepare(graph)
        session.apply_delta(GraphDelta(node_ids=np.array([1]),
                                       node_features=np.ones((1, 8))), defer=True)
        assert not session.plan.delta_seen         # nothing applied yet
        session.discard_pending_deltas()
        session.infer()
        assert not session.plan.delta_seen
        assert not session.plan.state["engine"].cache_warm

    def test_eviction_with_deferred_deltas_pending(self):
        # A session holding deferred deltas in its DeltaBuffer gets LRU
        # evicted.  The buffered plan patch dies with the session, but no
        # update is lost: apply_delta mirrored the delta onto the caller's
        # graph at defer time, so the tenant's next appearance re-prepares
        # from post-delta content — and eviction itself must not raise.
        pool = SessionPool(make_model(), make_config(), capacity=1)
        tenant_a = make_graph(31)
        pool.infer(tenant_a)
        session_a = pool.session_for(tenant_a)
        rng = np.random.default_rng(6)
        ids = rng.choice(tenant_a.num_nodes, size=5, replace=False)
        rows = rng.standard_normal((5, 8))
        outcome = pool.apply_delta(tenant_a, GraphDelta(
            node_ids=ids, node_features=rows), defer=True)
        assert outcome.deferred and session_a.num_pending_deltas == 1

        tenant_b = make_graph(32)
        pool.infer(tenant_b)                       # capacity 1: evicts A
        assert tenant_a not in pool
        assert pool.stats.evictions == 1
        # The evicted session still holds its (now orphaned) buffer; the pool
        # never flushed it behind the tenant's back.
        assert session_a.num_pending_deltas == 1

        # A's next appearance re-prepares from the mirrored (post-delta)
        # content and serves the same scores a dedicated post-delta session
        # would — nothing was lost with the buffer.
        scores = pool.infer(tenant_a).scores
        reference = make_graph(31)
        reference.node_features[ids] = rows
        solo = InferenceSession(make_model(), make_config())
        solo.prepare(reference)
        np.testing.assert_array_equal(scores, solo.infer().scores)

    def test_concurrent_deferred_deltas_coalesce_into_one_flush(self):
        # Many threads defer disjoint feature patches onto one tenant; the
        # single infer that follows flushes them as one merged plan patch,
        # bit-identical to a session prepared from the final content.
        pool = SessionPool(make_model(), make_config(), capacity=2)
        graph = make_graph(35)
        pool.infer(graph)
        session = pool.session_for(graph)
        rng = np.random.default_rng(7)
        ids = rng.choice(graph.num_nodes, size=32, replace=False)
        rows = rng.standard_normal((32, 8))
        chunks = [(ids[i:i + 4], rows[i:i + 4]) for i in range(0, 32, 4)]
        errors = []

        def worker(chunk_ids, chunk_rows):
            try:
                pool.apply_delta(graph, GraphDelta(node_ids=chunk_ids,
                                                   node_features=chunk_rows),
                                 defer=True)
            except Exception as exc:       # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=chunk)
                   for chunk in chunks]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert session.num_pending_deltas == len(chunks)

        scores = pool.infer(graph, mode="incremental").scores
        assert session.num_pending_deltas == 0
        reference = make_graph(35)
        reference.node_features[ids] = rows
        solo = InferenceSession(make_model(), make_config())
        solo.prepare(reference)
        np.testing.assert_array_equal(scores, solo.infer().scores)

    def test_in_place_write_to_a_pooled_handle_raises_and_changes_nothing(self):
        # The pool owns a pooled handle's arrays: an in-place write raises,
        # and the entry keeps serving the same scores without re-preparing.
        pool = SessionPool(make_model(), make_config(), capacity=4)
        graph = make_graph(18)
        before = pool.infer(graph).scores
        for array in (graph.src, graph.dst, graph.node_features):
            with pytest.raises(ValueError, match="read-only"):
                array[0] += 1
        np.testing.assert_array_equal(pool.infer(graph).scores, before)
        assert pool.stats.misses == 1 and pool.stats.hits == 1

    def test_out_of_band_mutation_misses_instead_of_serving_stale(self):
        # A rebound handle array is no longer the one the pool recorded: the
        # next lookup misses, and the handle is planned afresh.
        pool = SessionPool(make_model(), make_config(), capacity=4)
        graph = make_graph(18)
        before = pool.infer(graph).scores
        reference = make_graph(18)
        reference.node_features[0] += 1.0
        features = graph.node_features.copy()
        features[0] += 1.0
        graph.node_features = features                 # rebound
        rebound = pool.infer(graph).scores
        assert pool.stats.misses == 2 and len(pool) == 1
        assert not np.array_equal(before, rebound)
        np.testing.assert_array_equal(
            rebound, InferenceSession(make_model(), make_config()).infer(reference).scores)

    def test_unlocked_handle_array_misses_instead_of_serving_stale(self):
        # An array made writeable again is no longer trusted: after an
        # in-place write through it, the next lookup misses and the handle is
        # planned afresh.
        pool = SessionPool(make_model(), make_config(), capacity=4)
        graph = make_graph(18)
        before = pool.infer(graph).scores
        reference = make_graph(18)
        reference.node_features[1] -= 1.0
        graph.node_features.flags.writeable = True     # unlocked
        graph.node_features[1] -= 1.0
        unlocked = pool.infer(graph).scores
        assert pool.stats.misses == 2 and len(pool) == 1
        assert not np.array_equal(before, unlocked)
        np.testing.assert_array_equal(
            unlocked, InferenceSession(make_model(), make_config()).infer(reference).scores)

    def test_a_delta_racing_an_eviction_and_readoption_never_serves_stale(self):
        # Between apply_delta's lookup and its mirror, another thread evicts
        # the tenant and prepares it again from the pre-delta handle.  The
        # mirror must not land under that fresh plan: it is detached, and the
        # next lookup prepares from the post-delta handle.
        pool = SessionPool(make_model(), make_config(), capacity=4)
        graph = make_graph(26)
        session = pool.session_for(graph)
        buffer_delta = session._buffer_delta

        def evict_and_readopt(delta):
            outcome = buffer_delta(delta)
            racer = threading.Thread(
                target=lambda: (pool.evict(graph), pool.session_for(graph)))
            racer.start()
            racer.join()
            return outcome

        session._buffer_delta = evict_and_readopt
        rng = np.random.default_rng(26)
        delta = GraphDelta(node_ids=np.array([3, 8]),
                           node_features=rng.standard_normal((2, 8)))
        pool.apply_delta(graph, delta, defer=True)
        assert graph not in pool and pool.stats.misses == 2
        scores = pool.infer(graph).scores
        assert pool.stats.misses == 3
        reference = make_graph(26)
        apply_delta_to_graph(reference, delta)
        np.testing.assert_array_equal(
            scores, InferenceSession(make_model(), make_config()).infer(reference).scores)

    def test_flush_raising_mid_patch_never_serves_the_half_patched_plan(self):
        # The backend patches the plan, then raises: the flush never
        # completed, so the plan may lag the handle (which carries the
        # delta).  The detached session must refuse, and the tenant's handle
        # must miss instead of hitting that plan.
        class PatchThenRaise(_PlanCounter):
            def apply_delta(self, plan, delta):
                self._inner.apply_delta(plan, delta)
                raise RuntimeError("backend failed mid-patch")

        pool = SessionPool(make_model(), make_config(), capacity=4)
        graph = make_graph(24)
        pool.infer(graph)
        session = pool.session_for(graph)
        session.backend = PatchThenRaise(session.backend)
        rng = np.random.default_rng(24)
        delta = GraphDelta(node_ids=np.array([4, 9]),
                           node_features=rng.standard_normal((2, 8)))
        with pytest.raises(RuntimeError, match="mid-patch"):
            pool.apply_delta(graph, delta)
        session.backend = session.backend._inner
        with pytest.raises(StalePlanError):
            session.infer()
        misses = pool.stats.misses
        scores = pool.infer(graph).scores
        assert pool.stats.misses == misses + 1
        solo = InferenceSession(make_model(), make_config())
        solo.prepare(make_graph(24))
        solo.apply_delta(delta)
        np.testing.assert_array_equal(scores, solo.infer().scores)

    def test_plan_graph_is_the_handle_read_only_while_pooled(self):
        # The session runs over the handle itself and the pool trusts it
        # without hashing it, so nothing reachable through the public API may
        # write it — not even after an edge delta rebinds the edge arrays.
        # Evicting hands the handle back writeable.
        def assert_read_only(graph):
            for array in (graph.src, graph.dst, graph.node_features):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0

        pool = SessionPool(make_model(), make_config(), capacity=2)
        graph = make_graph(25)
        pool.infer(graph)
        session = pool.session_for(graph)
        assert session.plan.graph is graph
        assert session.plan.working_graph is not graph
        assert_read_only(graph)
        pool.apply_delta(graph, GraphDelta(
            node_ids=np.array([2]), node_features=np.ones((1, 8)),
            added_src=np.array([0]), added_dst=np.array([1])))
        pool.infer(graph)
        assert session.plan.graph is graph
        assert session.plan.working_graph.num_edges == graph.num_edges
        assert_read_only(graph)
        np.testing.assert_array_equal(pool.infer(graph).scores,
                                      InferenceSession(make_model(), make_config())
                                      .infer(graph).scores)
        assert pool.evict(graph)
        assert all(array.flags.writeable
                   for array in (graph.src, graph.dst, graph.node_features))

    def test_discarding_a_pooled_sessions_deltas_raises_and_keeps_them(self):
        # The handle already carries a deferred delta (the pool mirrored it);
        # only a flush can catch the plan up, so discarding it must raise and
        # keep the buffer, and the next infer serves the handle's content.
        pool = SessionPool(make_model(), make_config(), capacity=2)
        graph = make_graph(27)
        pool.infer(graph)
        delta = GraphDelta(node_ids=np.array([5, 6]),
                           node_features=np.full((2, 8), 3.0))
        pool.apply_delta(graph, delta, defer=True)
        session = pool.session_for(graph)
        with pytest.raises(RuntimeError, match="already on the pooled graph"):
            session.discard_pending_deltas()
        assert session.num_pending_deltas == 1
        scores = pool.infer(graph).scores
        assert pool.stats.misses == 1 and session.num_pending_deltas == 0
        reference = make_graph(27)
        apply_delta_to_graph(reference, delta)
        np.testing.assert_array_equal(
            scores, InferenceSession(make_model(), make_config()).infer(reference).scores)

    @pytest.mark.parametrize("defer", [False, True])
    def test_a_delta_sent_to_a_pooled_session_directly_raises(self, defer):
        # Only the pool lands a delta on the handle.  Had the session taken
        # this edge delta, its plan's working graph would hold one edge more
        # than the handle, the entry would still hit, and the pool would
        # serve a graph that is not the handle.
        from tests.test_session_state_machine import (
            MODEL, edge_delta, fresh_scores, make_config as machine_config, tiny_hub_graph)
        config = machine_config("serial")
        pool = SessionPool(MODEL, config, capacity=2)
        graph = tiny_hub_graph()
        session = pool.session_for(graph)
        delta = edge_delta(np.random.default_rng(0), graph)
        with pytest.raises(RuntimeError, match="pool.apply_delta"):
            session.apply_delta(delta, defer=defer)
        assert session.num_pending_deltas == 0 and graph in pool
        assert session.plan.working_graph.num_edges == graph.num_edges
        np.testing.assert_array_equal(pool.infer(graph).scores,
                                      fresh_scores(tiny_hub_graph(), config))
        pool.clear()

    def test_a_session_the_pool_let_go_of_takes_direct_deltas_again(self):
        # Once the session is prepared over a caller's graph, the graph is
        # the caller's and the refusal lifts.
        pool = SessionPool(make_model(), make_config(), capacity=2)
        session = pool.session_for(make_graph(32))
        own = make_graph(33)
        session.prepare(own)
        delta = GraphDelta(node_ids=np.array([4]), node_features=np.ones((1, 8)))
        assert session.apply_delta(delta).in_place
        reference = make_graph(33)
        apply_delta_to_graph(reference, delta)
        np.testing.assert_array_equal(
            session.infer().scores,
            InferenceSession(make_model(), make_config()).infer(reference).scores)

    def test_a_pooled_session_prepared_by_hand_misses(self):
        # A session re-prepared outside the pool no longer runs the plan the
        # pool mirrors deltas under, so the handle's next lookup misses.
        pool = SessionPool(make_model(), make_config(), capacity=2)
        graph = make_graph(30)
        pool.session_for(graph).prepare(make_graph(31))
        assert graph not in pool
        np.testing.assert_array_equal(
            pool.infer(graph).scores,
            InferenceSession(make_model(), make_config()).infer(make_graph(30)).scores)
        assert pool.stats.misses == 2 and pool.session_for(graph).plan.graph is graph

    def test_an_evicted_session_refuses_until_prepared(self):
        # Evicting hands the handle back to the caller, so the session's
        # plan, which carries no fingerprint, is stale until prepare().
        pool = SessionPool(make_model(), make_config(), capacity=2)
        graph = make_graph(29)
        scores = pool.infer(graph).scores
        session = pool.session_for(graph)
        assert pool.evict(graph)
        with pytest.raises(StalePlanError):
            session.infer()
        with pytest.raises(StalePlanError):
            session.apply_delta(GraphDelta(node_ids=np.array([1]),
                                           node_features=np.ones((1, 8))), defer=True)
        session.prepare(graph)
        np.testing.assert_array_equal(session.infer().scores, scores)


class _BlockingBackend:
    """Delegating spy whose execute() blocks until released (thread tests)."""

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name
        self.entered = threading.Event()
        self.resume = threading.Event()

    def default_cluster(self, num_workers):
        return self._inner.default_cluster(num_workers)

    def plan(self, model, graph, config):
        return self._inner.plan(model, graph, config)

    def execute(self, plan, metrics):
        self.entered.set()
        assert self.resume.wait(timeout=30), "blocked execute never released"
        return self._inner.execute(plan, metrics)

    def release(self, plan):
        return self._inner.release(plan)

    def apply_delta(self, plan, delta):
        return self._inner.apply_delta(plan, delta)

    def execute_incremental(self, plan, metrics, feature_dirty, topo_dirty):
        return self._inner.execute_incremental(plan, metrics,
                                               feature_dirty, topo_dirty)


class TestThreadSafety:
    def test_threaded_hammer_never_double_prepares(self):
        # 8 threads hammer 3 shared tenants cold: the pool lock must ensure
        # exactly one prepare per distinct content (misses == 3), with every
        # thread served consistent scores.
        pool = SessionPool(make_model(), make_config(), capacity=4)
        graphs = [make_graph(seed, num_nodes=200) for seed in (25, 26, 27)]
        expected = {}
        for graph in graphs:
            solo = InferenceSession(make_model(), make_config())
            solo.prepare(make_graph(graphs.index(graph) + 25, num_nodes=200))
            expected[id(graph)] = solo.infer().scores
        errors = []
        barrier = threading.Barrier(8)

        def worker(worker_id):
            try:
                barrier.wait(timeout=30)
                for round_num in range(4):
                    graph = graphs[(worker_id + round_num) % len(graphs)]
                    scores = pool.infer(graph).scores
                    np.testing.assert_array_equal(scores, expected[id(graph)])
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[:1]
        stats = pool.stats
        assert stats.misses == 3, "concurrent cold lookups double-prepared"
        assert stats.hits == 8 * 4 - 3
        assert len(pool) == 3

    def test_concurrent_deltas_and_infers_never_tear_fingerprints(self):
        # Regression: apply_delta mirrors the delta onto the caller's graph
        # under the pool lock, the lock every lookup checks the handle under,
        # and relocks the rebound arrays before releasing it — so an infer
        # racing a delta never sees the handle half-mirrored or unlocked.
        # Either would surface as a spurious miss (re-preparing from
        # half-mutated arrays); with one tenant the pool must miss exactly
        # once, ever.
        pool = SessionPool(make_model(), make_config(), capacity=4)
        graph = make_graph(55, num_nodes=200)
        pool.session_for(graph)
        rng = np.random.default_rng(7)
        deltas = [GraphDelta(node_ids=rng.choice(200, size=5, replace=False),
                             node_features=rng.standard_normal((5, 8)))
                  for _ in range(12)]
        errors = []

        def writer():
            try:
                for delta in deltas:
                    pool.apply_delta(graph, delta, defer=True)
            except Exception as exc:       # pragma: no cover - diagnostic
                errors.append(exc)

        def reader():
            try:
                for _ in range(6):
                    pool.infer(graph)
            except Exception as exc:       # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[:1]
        assert pool.stats.misses == 1, \
            "a lookup fingerprinted a half-mirrored graph"

        reference = make_graph(55, num_nodes=200)
        for delta in deltas:               # single writer: in-order content
            reference.node_features[delta.node_ids] = delta.node_features
        solo = InferenceSession(make_model(), make_config())
        solo.prepare(reference)
        np.testing.assert_array_equal(pool.infer(graph).scores,
                                      solo.infer().scores)

    def test_concurrent_eager_and_deferred_deltas_keep_handle_and_plan_equal(self):
        # Same hammer, two writers on one tenant — one eager, one deferred —
        # plus readers.  Every delta is buffered and mirrored under
        # the session's buffer lock (the eager writer's flush happens after
        # it, outside), so the session's buffer and the tenant's handle (its
        # plan's graph) see the deltas in the same order: the working graph's
        # rows equal the handle's at the end, one miss ever, and scores equal
        # a fresh plan over the final content.
        pool = SessionPool(make_model(), make_config(), capacity=4)
        graph = make_graph(58, num_nodes=200)
        session = pool.session_for(graph)
        rng = np.random.default_rng(8)
        # Overlapping ids on purpose: the final rows depend on the order the
        # two writers interleave, which handle and copy must agree on.
        deltas = {mode: [GraphDelta(node_ids=rng.choice(40, size=5, replace=False),
                                    node_features=rng.standard_normal((5, 8)))
                         for _ in range(12)]
                  for mode in ("eager", "deferred")}
        errors = []

        def writer(mode):
            try:
                for delta in deltas[mode]:
                    pool.apply_delta(graph, delta, defer=(mode == "deferred"))
            except Exception as exc:       # pragma: no cover - diagnostic
                errors.append(exc)

        def reader():
            try:
                for _ in range(6):
                    pool.infer(graph)
            except Exception as exc:       # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(mode,))
                   for mode in deltas] + [threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[:1]
        scores = pool.infer(graph).scores
        assert pool.stats.misses == 1 and pool.session_for(graph) is session
        assert session.num_pending_deltas == 0 and session.num_replans == 0
        plan = session.plan
        assert plan.graph is graph and plan.fingerprint is None
        np.testing.assert_array_equal(plan.working_graph.node_features,
                                      graph.node_features[plan.shadow_plan.origin_of])
        solo = InferenceSession(make_model(), make_config())
        solo.prepare(graph)
        np.testing.assert_array_equal(scores, solo.infer().scores)

    def test_slow_prepare_does_not_block_other_tenants(self, monkeypatch):
        # Regression: a cache miss's prepare() runs outside the pool lock
        # (per-fingerprint once-guard), so one tenant's slow planning must
        # not stall another tenant's lookup.
        from repro.inference.backends import BACKENDS, Backend, get_backend

        inner = get_backend("pregel")
        first_plan_entered = threading.Event()
        release_first_plan = threading.Event()

        class GatedPlanBackend(Backend):
            """Delegates to pregel; the FIRST plan() blocks until released."""
            name = "gated-pregel-test"

            def __init__(self):
                self._gated = [True]

            def default_cluster(self, num_workers):
                return inner.default_cluster(num_workers)

            def plan(self, model, graph, config):
                gate, self._gated[0] = self._gated[0], False
                if gate:
                    first_plan_entered.set()
                    assert release_first_plan.wait(timeout=60)
                return inner.plan(model, graph, config)

            def execute(self, plan, metrics):
                return inner.execute(plan, metrics)

            def apply_delta(self, plan, delta):
                return inner.apply_delta(plan, delta)

            def execute_incremental(self, plan, metrics,
                                    feature_dirty, topo_dirty):
                return inner.execute_incremental(plan, metrics,
                                                 feature_dirty, topo_dirty)

            def release(self, plan):
                return inner.release(plan)

        monkeypatch.setitem(BACKENDS, GatedPlanBackend.name, GatedPlanBackend())
        try:
            config = make_config()
            config.backend = "gated-pregel-test"
            pool = SessionPool(make_model(), config, capacity=4)
            tenant_a, tenant_b = make_graph(56, 200), make_graph(57, 200)
            thread_a = threading.Thread(target=pool.session_for, args=(tenant_a,))
            thread_a.start()
            assert first_plan_entered.wait(timeout=30)
            # Failsafe so a regression fails the assertion below instead of
            # deadlocking the suite.
            failsafe = threading.Timer(20.0, release_first_plan.set)
            failsafe.start()
            scores_b = pool.infer(tenant_b).scores
            a_still_planning = thread_a.is_alive()
            release_first_plan.set()
            thread_a.join(timeout=30)
            failsafe.cancel()
            assert a_still_planning, \
                "tenant B's lookup waited for tenant A's prepare()"
            assert tenant_a in pool and tenant_b in pool
            solo = InferenceSession(make_model(), make_config())
            solo.prepare(make_graph(57, 200))
            np.testing.assert_array_equal(scores_b, solo.infer().scores)
        finally:
            release_first_plan.set()

    def test_eviction_during_in_flight_infer_is_safe(self):
        # Capacity 1: tenant B's arrival evicts tenant A's entry while A's
        # infer is still executing.  Eviction close() waits for the in-flight
        # run (session exec lock), so A still receives correct scores.
        pool = SessionPool(make_model(), make_config(), capacity=1)
        tenant_a, tenant_b = make_graph(28, 200), make_graph(29, 200)
        session_a = pool.session_for(tenant_a)
        gate = _BlockingBackend(session_a.backend)
        session_a.backend = gate
        holder = {}

        def infer_a():
            holder["scores"] = pool.infer(tenant_a).scores

        thread_a = threading.Thread(target=infer_a)
        thread_a.start()
        assert gate.entered.wait(timeout=30)
        # B's miss evicts A and then waits — outside the pool lock — inside
        # close() for A's execute to finish; release it after a beat.
        releaser = threading.Timer(0.05, gate.resume.set)
        releaser.start()
        scores_b = pool.infer(tenant_b).scores
        thread_a.join(timeout=30)
        releaser.join()
        assert not thread_a.is_alive()

        assert tenant_a not in pool and tenant_b in pool
        assert pool.stats.evictions == 1
        solo = InferenceSession(make_model(), make_config())
        solo.prepare(make_graph(28, 200))
        np.testing.assert_array_equal(holder["scores"], solo.infer().scores)
        solo_b = InferenceSession(make_model(), make_config())
        solo_b.prepare(make_graph(29, 200))
        np.testing.assert_array_equal(scores_b, solo_b.infer().scores)


class TestWeightedEviction:
    def test_heavy_entry_survives_lighter_more_recent_entry(self):
        # Weighted eviction reverses LRU here: the heavy (expensive-to-
        # rebuild) plan is the least recently used, yet the light one dies.
        pool = SessionPool(make_model(), make_config(), capacity=2)
        heavy = make_graph(33, num_nodes=1200)
        light = make_graph(34, num_nodes=150)
        pool.session_for(heavy)
        pool.session_for(light)            # light is now most recent
        newcomer = make_graph(36, num_nodes=150)
        pool.session_for(newcomer)         # over capacity: someone must go
        assert light not in pool, "LRU would have evicted heavy instead"
        assert heavy in pool and newcomer in pool
        assert pool.stats.evictions == 1

    def test_stale_heavy_entry_ages_out(self):
        # weight/age decays: a heavy plan nobody touches loses to a light
        # plan in active use — heaviness is not squatters' rights.
        pool = SessionPool(make_model(), make_config(), capacity=2)
        heavy = make_graph(33, num_nodes=1200)
        light = make_graph(34, num_nodes=150)
        pool.session_for(heavy)
        for _ in range(30):                # age the heavy entry
            pool.session_for(light)
        pool.session_for(make_graph(36, num_nodes=150))
        assert heavy not in pool and light in pool

    def test_weight_follows_the_graph_through_edge_deltas(self):
        # Appends make tenant A heavier than its equal-sized twin B.  At the
        # eviction A is the older entry (age 3 against 2), so its weight at
        # prepare time would evict it; its current weight (+75 % of bytes)
        # outscores B, and B goes.
        config = InferenceConfig(
            backend="pregel", num_workers=4,
            strategies=StrategyConfig(partial_gather=True, broadcast=False,
                                      shadow_nodes=False,
                                      hub_threshold_override=1_000_000))
        pool = SessionPool(make_model(), config, capacity=2)
        base = make_graph(37)

        def twin(offset):
            return Graph(src=base.src.copy(), dst=base.dst.copy(),
                         node_features=base.node_features + offset,
                         num_nodes=base.num_nodes)

        tenant_a, tenant_b, newcomer = twin(0.0), twin(1.0), twin(2.0)
        pool.infer(tenant_a)
        pool.infer(tenant_b)
        rng = np.random.default_rng(37)
        # appended edges (16 B each) worth 75 % of the twin's bytes
        grow = 3 * (2 * base.src.nbytes + base.node_features.nbytes) // (4 * 16)
        pool.apply_delta(tenant_a, GraphDelta(
            added_src=rng.integers(0, base.num_nodes, grow),
            added_dst=rng.integers(0, base.num_nodes, grow)))
        pool.infer(tenant_b)               # B is now the most recent
        pool.infer(newcomer)               # over capacity: someone must go
        assert tenant_a in pool and newcomer in pool
        assert tenant_b not in pool


class TestNonFiniteDeltasRejected:
    """One NaN row would poison a k-hop region and every cached superstep
    state; all three entry paths refuse it before anything is written."""

    @staticmethod
    def _poisoned(graph):
        rows = np.ones((3, 8))
        rows[1, 4] = np.nan
        return GraphDelta(node_ids=np.array([2, 5, 9]), node_features=rows)

    @staticmethod
    def _snapshot(graph, session):
        return (graph.node_features.tobytes(), graph.src.tobytes(),
                graph_fingerprint(graph), session.plan.fingerprint,
                session.num_pending_deltas)

    @pytest.mark.parametrize("defer", [False, True])
    def test_session_rejects_before_any_write(self, defer):
        graph = make_graph(70)
        session = InferenceSession(make_model(), make_config())
        session.prepare(graph)
        session.infer()
        session.apply_delta(GraphDelta(node_ids=np.array([1]),
                                       node_features=np.ones((1, 8))), defer=True)
        before = self._snapshot(graph, session)
        with pytest.raises(ValueError, match="NaN/Inf"):
            session.apply_delta(self._poisoned(graph), defer=defer)
        assert self._snapshot(graph, session) == before   # 1 still pending
        scores = session.infer(mode="incremental").scores
        solo = InferenceSession(make_model(), make_config())
        solo.prepare(graph)
        np.testing.assert_array_equal(scores, solo.infer().scores)

    @pytest.mark.parametrize("front", ["pool", "gateway"])
    def test_pool_and_gateway_reject_before_mirror_and_rekey(self, front):
        import asyncio

        from repro.serving import ServingGateway

        pool = SessionPool(make_model(), make_config(), capacity=4)
        graph = make_graph(71)
        baseline = pool.infer(graph).scores
        session = pool.session_for(graph)
        before = self._snapshot(graph, session)
        sessions = list(pool.sessions())

        async def through_gateway():
            async with ServingGateway(pool) as gateway:
                gateway.register("t", graph)
                await gateway.submit_delta("t", self._poisoned(graph))

        with pytest.raises(ValueError, match="NaN/Inf"):
            if front == "pool":
                pool.apply_delta(graph, self._poisoned(graph))
            else:
                asyncio.run(through_gateway())
        assert self._snapshot(graph, session) == before
        assert list(pool.sessions()) == sessions and graph in pool
        hits = pool.stats.hits
        np.testing.assert_array_equal(pool.infer(graph).scores, baseline)
        assert pool.stats.hits == hits + 1 and pool.stats.misses == 1
        solo = InferenceSession(make_model(), make_config())
        solo.prepare(make_graph(71))
        np.testing.assert_array_equal(baseline, solo.infer().scores)

    def test_validators_reject_non_finite_edge_features(self):
        from repro.inference import DeltaBuffer
        from repro.inference.delta import validate_delta_against_graph

        graph = make_graph(72)
        graph.edge_features = np.zeros((graph.num_edges, 3))
        delta = GraphDelta(added_src=np.array([0, 1]), added_dst=np.array([2, 3]),
                           added_edge_features=np.array([[0.0, np.inf, 0.0],
                                                         [0.0, 0.0, 0.0]]))
        before = graph_fingerprint(graph)
        with pytest.raises(ValueError, match="added_edge_features contains NaN/Inf"):
            validate_delta_against_graph(graph, delta)
        buffer = DeltaBuffer(graph)
        with pytest.raises(ValueError, match="added_edge_features contains NaN/Inf"):
            buffer.add(delta)
        assert buffer.is_empty and graph_fingerprint(graph) == before


class TestLatencyAccounting:
    def test_pool_stats_track_measured_wall_clock(self):
        pool = SessionPool(make_model(), make_config(), capacity=4)
        graph = make_graph(48)
        results = [pool.infer(graph) for _ in range(3)]
        stats = pool.stats
        assert stats.total_prepare_seconds > 0.0
        assert stats.total_infer_seconds == pytest.approx(
            sum(result.elapsed_seconds for result in results))
        assert "preparing" in stats.describe() and "serving" in stats.describe()


class TestCrashIsolation:
    """A worker crash in one pooled tenant must not poison its siblings."""

    @pytest.mark.skipif(
        "process" not in available_executors(),
        reason="process executor unavailable")
    @pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
    def test_sibling_tenants_survive_a_worker_kill(self, backend):
        config = InferenceConfig(
            backend=backend, num_workers=2, executor="process",
            strategies=StrategyConfig(partial_gather=True, broadcast=False,
                                      shadow_nodes=False,
                                      hub_threshold_override=1_000_000))
        pool = SessionPool(make_model(), config, capacity=4)
        graph_a = make_graph(81)
        graph_b = make_graph(82)
        try:
            baseline_a = pool.infer(graph_a).scores
            baseline_b = pool.infer(graph_b).scores

            # SIGKILL one of tenant A's workers; join the corpse so the next
            # execution deterministically sees the dead pipe.
            engine = pool.session_for(graph_a).plan.state["engine"]
            victim = engine.started_executor.live_processes()[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)

            with pytest.raises(WorkerCrashError):
                pool.infer(graph_a)

            # Tenant B's own worker pool is untouched: no crash, no drift.
            after_b = pool.infer(graph_b).scores
            np.testing.assert_array_equal(after_b, baseline_b)

            # Tenant A recovers on retry with bit-identical scores.
            recovered_a = pool.infer(graph_a).scores
            np.testing.assert_array_equal(recovered_a, baseline_a)
        finally:
            pool.clear()

    @pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
    @pytest.mark.parametrize("executor_name", sorted(available_executors()))
    def test_started_executor_is_the_runs_and_starts_none(self, executor_name, backend):
        # Either backend's plan holds one engine that owns its executor;
        # reading it spawns nothing, and the pool's clear() stops its workers
        # and releases its segments.
        config = InferenceConfig(backend=backend, num_workers=2, executor=executor_name)
        pool = SessionPool(make_model(), config, capacity=2)
        graph = make_graph(83)
        try:
            engine = pool.session_for(graph).plan.state["engine"]
            assert engine.started_executor is None       # nothing run, nothing spawned
            pool.infer(graph)
            executor = engine.started_executor
            assert executor is not None and executor.name == executor_name
            assert len(executor.live_processes()) == (2 if executor_name == "process" else 0)
        finally:
            pool.clear()
        assert executor.live_processes() == []
        assert engine.started_executor is None and engine.num_shared_segments == 0


#: Each entry that takes a graph, called with ``not_graph`` in its place.
REFUSING_ENTRIES = {
    "session.prepare": lambda session, pool, gateway, not_graph: session.prepare(not_graph),
    "session.infer": lambda session, pool, gateway, not_graph: session.infer(not_graph),
    "pool.infer": lambda session, pool, gateway, not_graph: pool.infer(not_graph),
    "pool.apply_delta": lambda session, pool, gateway, not_graph: pool.apply_delta(
        not_graph, GraphDelta(node_ids=np.array([1]), node_features=np.ones((1, 8)))),
    "gateway.register": lambda session, pool, gateway, not_graph: gateway.register(
        "tenant", not_graph),
}


@pytest.mark.parametrize("kind", ["arrays", "lookalike"])
@pytest.mark.parametrize("entry", sorted(REFUSING_ENTRIES))
def test_every_entry_refuses_a_non_graph_and_touches_nothing(entry, kind):
    """Sessions, pools and the gateway take an in-memory ``Graph`` only: a
    bare ``(src, dst)`` pair or an object carrying a graph's attributes is
    refused with ``TypeError`` before any plan, pool entry, miss or tenant
    exists."""
    graph = make_graph(19)
    not_graph = ((graph.src, graph.dst) if kind == "arrays"
                 else types.SimpleNamespace(**vars(graph)))
    session = InferenceSession(make_model(), make_config())
    pool = SessionPool(make_model(), make_config(), capacity=4)
    gateway = ServingGateway(pool)
    with pytest.raises(TypeError, match="Graph"):
        REFUSING_ENTRIES[entry](session, pool, gateway, not_graph)
    assert not session.is_prepared and session.num_runs == 0
    assert len(pool) == 0 and pool.stats.misses == 0 and pool.stats.hits == 0
    assert gateway.tenants() == []


@pytest.mark.skipif("process" not in available_executors(),
                    reason="process executor unavailable")
@pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
def test_in_process_waves_and_worker_forks_share_one_process(monkeypatch, backend):
    """Two pools in one process, one per executor.  A thread loops full
    infers on the in-process pool, whose full waves run on the helper
    threads, while a second thread twice kills a worker of the process pool
    and retries, forking replacements mid-wave.  Every score equals a fresh
    session's.  The main thread only joins both with a timeout, so a lock a
    forked worker inherits in a held state fails the test instead of
    hanging it."""
    monkeypatch.setattr(executor_module, "usable_cpus", lambda: 4)
    strategies = StrategyConfig(partial_gather=True, broadcast=True, shadow_nodes=True,
                                hub_threshold_override=20)
    configs = {name: InferenceConfig(backend=backend, num_workers=4, executor=name,
                                     strategies=strategies)
               for name in ("serial", "process")}
    expected = {name: InferenceSession(make_model(), configs[name]).infer(
        make_graph(seed)).scores for name, seed in (("serial", 84), ("process", 85))}
    in_process = SessionPool(make_model(), configs["serial"], capacity=2)
    forking = SessionPool(make_model(), configs["process"], capacity=2)
    graph = make_graph(84)
    tenant = make_graph(85)
    stop = threading.Event()
    spans: List[tuple] = []            # (start, end) of each in-process infer
    recoveries: List[tuple] = []       # (start, end) of each infer that forks
    errors: List[BaseException] = []

    def loop_full_infers():
        try:
            while not stop.is_set():
                began = time.monotonic()
                scores = in_process.infer(graph).scores
                spans.append((began, time.monotonic()))
                np.testing.assert_array_equal(scores, expected["serial"])
        except BaseException as exc:  # noqa: BLE001 - re-raised on the main thread
            errors.append(exc)

    def kill_and_recover():
        try:
            np.testing.assert_array_equal(forking.infer(tenant).scores, expected["process"])
            for _ in range(2):
                engine = forking.session_for(tenant).plan.state["engine"]
                victim = engine.started_executor.live_processes()[0]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10.0)
                with pytest.raises(WorkerCrashError):
                    forking.infer(tenant)
                began = time.monotonic()
                scores = forking.infer(tenant).scores     # forks replacements
                recoveries.append((began, time.monotonic()))
                np.testing.assert_array_equal(scores, expected["process"])
        except BaseException as exc:  # noqa: BLE001 - re-raised on the main thread
            errors.append(exc)

    looper = threading.Thread(target=loop_full_infers, daemon=True)
    killer = threading.Thread(target=kill_and_recover, daemon=True)
    try:
        looper.start()
        while not spans and not errors and looper.is_alive():
            time.sleep(0.01)
        killer.start()
        killer.join(timeout=120.0)
        assert not killer.is_alive(), "the process pool hung next to in-process waves"
    finally:
        stop.set()
        looper.join(timeout=60.0)
        forking.clear()
        if not looper.is_alive():
            in_process.clear()
    assert not looper.is_alive(), "the in-process pool hung next to worker forks"
    if errors:
        raise errors[0]
    assert len(recoveries) == 2
    # the in-process thread kept looping across each recovery's forks
    assert all(any(start < end_r and start_r < end for start, end in spans)
               for start_r, end_r in recoveries)


def _tick_deltas(rng, graph):
    """The benchmark's tick: four deltas, feature rows and edge appends in turn."""
    quiet = np.nonzero(graph.out_degrees() < 10)[0]
    for step in range(4):
        if step % 2 == 0:
            yield GraphDelta(node_ids=rng.choice(graph.num_nodes, 4, replace=False),
                             node_features=rng.normal(size=(4, 8)))
        else:
            yield GraphDelta(added_src=rng.choice(quiet, 2, replace=False),
                             added_dst=rng.integers(0, graph.num_nodes, 2))


def _count_fingerprint_passes(monkeypatch):
    """Record the graph of every full ``graph_fingerprint`` pass the session
    makes (the pool makes none)."""
    from repro.inference import session as session_module

    passes = []

    def counting(graph):
        passes.append(graph)
        return graph_fingerprint(graph)

    monkeypatch.setattr(session_module, "graph_fingerprint", counting)
    return passes


def test_fingerprint_passes_per_tick(monkeypatch):
    """A ratchet, not a timing: one pooled serving tick — four deferred
    deltas, then an incremental ``infer`` — makes no ``graph_fingerprint``
    pass.  The session runs over the caller's handle itself, whose arrays
    the pool owns, read-only, and lands every delta on; so the plan carries
    no fingerprint and no check or flush hashes anything."""
    rng = np.random.default_rng(3)
    graph = make_graph(seed=3)
    pool = SessionPool(make_model(), make_config(), capacity=2)
    try:
        pool.infer(graph)
        # prime the state cache so the counted tick is a real incremental one
        pool.apply_delta(graph, GraphDelta(node_ids=np.array([1]),
                                           node_features=np.ones((1, 8))), defer=True)
        pool.infer(graph, mode="incremental")
        assert pool.session_for(graph).plan.graph is graph
        passes = _count_fingerprint_passes(monkeypatch)
        for delta in _tick_deltas(rng, graph):
            pool.apply_delta(graph, delta, defer=True)
        result = pool.infer(graph, mode="incremental")
    finally:
        pool.clear()
    caller = sum(each is graph for each in passes)
    print(f"graph_fingerprint passes per 4-delta tick: {caller} on the caller's "
          f"handle, {len(passes)} in all")
    assert (caller, len(passes) - caller, len(passes)) == (0, 0, 0)
    assert result.scores.shape == (graph.num_nodes, 4)


def _rows_folded_in_a_warm_tick(monkeypatch, forget_memos: bool) -> int:
    """Payload rows that reach ``MessageCombiner.combine_block`` in one pooled
    incremental tick after a warm one (serial: the spy counts in this
    process); ``forget_memos`` empties every partition's memo first."""
    from repro.pregel.combiners import MessageCombiner

    rng = np.random.default_rng(3)
    graph = make_graph(seed=3)
    pool = SessionPool(make_model(), dataclasses.replace(make_config(), executor="serial"),
                       capacity=2)
    folded = []
    combine = MessageCombiner.combine_block

    def counting(self, block, fold=None):
        folded.append(block.num_records())
        return combine(self, block, fold)

    try:
        pool.infer(graph)
        pool.apply_delta(graph, GraphDelta(node_ids=np.array([1]),
                                           node_features=np.ones((1, 8))), defer=True)
        pool.infer(graph, mode="incremental")       # primes the state cache
        for delta in _tick_deltas(rng, graph):
            pool.apply_delta(graph, delta, defer=True)
        pool.infer(graph, mode="incremental")       # the warm tick fills the memos
        if forget_memos:
            for partition in pool.session_for(graph).plan.state["engine"].partitions:
                for resident in partition.block_state["send_schedule"].values():
                    resident.memos.clear()
        for delta in _tick_deltas(rng, graph):
            pool.apply_delta(graph, delta, defer=True)
        monkeypatch.setattr(MessageCombiner, "combine_block", counting)
        pool.infer(graph, mode="incremental")
        monkeypatch.undo()
    finally:
        pool.clear()
    return sum(folded)


def test_rows_folded_per_tick(monkeypatch):
    """A ratchet, not a timing: the rows one pooled serving tick folds on the
    sending side.  A frontier destination still receives its complete
    in-message set, but a sender re-folds only the pairs whose rows changed
    (or that it holds no partial for); every other partial comes from its
    memo.  Without the memos the same tick folds every row it sends."""
    with_memos = _rows_folded_in_a_warm_tick(monkeypatch, forget_memos=False)
    without = _rows_folded_in_a_warm_tick(monkeypatch, forget_memos=True)
    print(f"rows folded per 4-delta tick: {with_memos} (memos forgotten: {without})")
    assert (with_memos, without) == (230, 262)


def test_fingerprint_passes_per_standalone_tick(monkeypatch):
    """The same tick on a standalone session, whose plan runs over the
    caller's own graph: it is hashed in full at each public entry — each of
    the four deferred ``apply_delta`` calls, the flush's pre-check and
    ``infer``'s own check — plus the post-flush refresh, 7 passes."""
    rng = np.random.default_rng(3)
    graph = make_graph(seed=3)
    session = InferenceSession(make_model(), make_config())
    session.prepare(graph)
    session.apply_delta(GraphDelta(node_ids=np.array([1]),
                                   node_features=np.ones((1, 8))))
    session.infer(mode="incremental")
    passes = _count_fingerprint_passes(monkeypatch)
    for delta in _tick_deltas(rng, graph):
        session.apply_delta(delta, defer=True)
    session.infer(mode="incremental")
    assert len(passes) == 7 and all(each is graph for each in passes)
    passes.clear()
    session.infer()                   # nothing to flush: one check, one pass
    assert passes == [graph]


#: What a tenant's entry reaches but does not hold: the model every pooled
#: session shares, the config, a run's counters and the worker processes.
_NOT_THE_TENANTS = (GNNModel, InferenceConfig, MetricsCollector, Executor, SharedArrayPack)


def tenant_arrays(graph: Graph, session: InferenceSession) -> List[np.ndarray]:
    """The distinct base arrays one pooled tenant holds: those reachable from
    its handle and from its session's plan — base and working graphs, shadow
    plan, layout, strategy plan, the engine's partitions and their
    ``block_state`` (serial executor: the state lives in this process)."""
    bases: Dict[int, np.ndarray] = {}
    seen: Set[int] = set()
    stack: list = [graph, session.plan]
    while stack:
        obj = stack.pop()
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            bases[id(obj)] = obj
        elif id(obj) in seen or isinstance(obj, _NOT_THE_TENANTS):
            continue
        elif isinstance(obj, dict):
            seen.add(id(obj))
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            seen.add(id(obj))
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro."):
            seen.add(id(obj))
            stack.extend(getattr(obj, "__dict__", {}).values())
    return list(bases.values())


def test_tenant_resident_bytes():
    """A ratchet, not a timing: the bytes of the distinct arrays one pooled
    tenant holds after a tick (:func:`tenant_arrays`).  The handle is the
    plan's base graph, so its ``node_features`` buffer is the one copy of
    those rows the tenant holds; the shadow working graph, with its mirror
    rows, and the partitions' slices are laid out differently.  The shadow
    rewrite leaves ``dst`` alone, so the working graph shares the handle's.
    A partition's state cache holds supersteps ``0 … L-1`` and the logits:
    the last superstep's state is not kept."""
    rng = np.random.default_rng(3)
    graph = make_graph(seed=3)
    pool = SessionPool(make_model(), dataclasses.replace(make_config(), executor="serial"),
                       capacity=2)
    try:
        pool.infer(graph)
        pool.apply_delta(graph, GraphDelta(node_ids=np.array([1]),
                                           node_features=np.ones((1, 8))), defer=True)
        pool.infer(graph, mode="incremental")
        for delta in _tick_deltas(rng, graph):
            pool.apply_delta(graph, delta, defer=True)
        pool.infer(graph, mode="incremental")
        plan = pool.session_for(graph).plan
        assert plan.working_graph is not graph and plan.working_graph.dst is graph.dst
        arrays = tenant_arrays(graph, pool.session_for(graph))
        copies = [array for array in arrays
                  if array.shape == graph.node_features.shape
                  and np.array_equal(array, graph.node_features)]
        assert len(copies) == 1 and copies[0] is graph.node_features
    finally:
        pool.clear()
    resident = sum(array.nbytes for array in arrays)
    print(f"one pooled tenant holds {resident} B in {len(arrays)} arrays")
    assert (resident, len(arrays)) == (467_341, 139)
