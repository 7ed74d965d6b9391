"""Benchmark: multi-tenant SessionPool ticks vs re-preparing every tenant.

The serving scenario the pool exists for: one deployed model scores N tenant
graphs on every tick while each tenant's features drift between ticks.
Without the serving tier, every tick pays — per tenant — a fresh ingest,
strategy plan, shadow rewrite, partitioning and a full-graph execution.
With it, each tenant is planned once, deltas patch the cached plan in place,
and scoring reruns only the delta's k-hop reach.

This benchmark serves 3 tenant graphs (30k nodes / ~120k edges each, all hub
strategies on, 8 workers), refreshes ~0.2% of each tenant's feature rows per
tick, and times

* pooled ticks — ``pool.apply_delta`` + ``pool.infer(mode="incremental")``
  per tenant, all plan-cache hits — against
* re-prepare ticks — the delta applied to the graph, then a fresh
  ``InferenceSession.prepare()+infer()`` per tenant,

printing the ratio (typical local runs show ~4x; nothing is asserted on wall
clock — ``bench/`` is where time is judged).  It asserts the functional
acceptance bar directly: after warm-up the pooled ticks perform **zero** backend
``plan()`` calls (counted by a delegating spy) and the served scores are
bit-identical to a from-scratch plan on the same drifted graph.
"""

import time

import numpy as np
import pytest

from repro.gnn.model import build_model
from repro.graph.generators import powerlaw_graph
from repro.inference import (
    GraphDelta,
    InferenceConfig,
    InferenceSession,
    SessionPool,
    StrategyConfig,
)
from repro.inference.delta import apply_delta_to_graph

NUM_TENANTS = 3
NUM_NODES = 30_000
AVG_DEGREE = 4.0
FEATURE_DIM = 16
DELTA_ROWS = 60           # ~0.2% of each tenant's feature rows per tick
TIMING_ROUNDS = 3         # best-of to damp scheduler noise on shared runners


def make_config() -> InferenceConfig:
    return InferenceConfig(backend="pregel", num_workers=8,
                           strategies=StrategyConfig(partial_gather=True,
                                                     broadcast=True,
                                                     shadow_nodes=True))


class _PlanCounter:
    """Delegating spy counting backend plan() calls."""

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


@pytest.mark.paper_artifact("session_pool_microbench")
def test_bench_session_pool(benchmark):
    model = build_model("gcn", FEATURE_DIM, 32, 4, num_layers=2, seed=0)
    tenants = [powerlaw_graph(num_nodes=NUM_NODES, avg_degree=AVG_DEGREE,
                              skew="out", feature_dim=FEATURE_DIM,
                              num_classes=4, seed=seed)
               for seed in range(NUM_TENANTS)]
    rng = np.random.default_rng(7)

    def one_delta() -> GraphDelta:
        ids = rng.choice(NUM_NODES, size=DELTA_ROWS, replace=False)
        return GraphDelta(node_ids=ids,
                          node_features=rng.standard_normal((DELTA_ROWS, FEATURE_DIM)))

    # Warm-up: one prepare per tenant, then arm + prime the lazy incremental
    # cache (first delta arms it, the following run fills it).
    pool = SessionPool(model, make_config(), capacity=NUM_TENANTS)
    spies = []
    for graph in tenants:
        pool.infer(graph)
        pool.apply_delta(graph, one_delta())
        pool.infer(graph, mode="incremental")
        spy = _PlanCounter(pool.session_for(graph).backend)
        pool.session_for(graph).backend = spy
        spies.append(spy)
    assert pool.stats.misses == NUM_TENANTS and pool.stats.evictions == 0

    def pooled_tick():
        for graph in tenants:
            pool.apply_delta(graph, one_delta())
            pool.infer(graph, mode="incremental")

    def reprepare_tick():
        for graph in tenants:
            apply_delta_to_graph(graph, one_delta())
            session = InferenceSession(model, make_config())
            session.prepare(graph)
            session.infer()

    pooled_seconds = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        pooled_tick()
        pooled_seconds = min(pooled_seconds, time.perf_counter() - start)
    benchmark.pedantic(pooled_tick, rounds=1, iterations=1)

    reprepare_seconds = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        reprepare_tick()
        reprepare_seconds = min(reprepare_seconds, time.perf_counter() - start)

    # Functional acceptance: every pooled tick was a plan-cache hit...
    assert all(spy.plan_calls == 0 for spy in spies), "pooled tick re-planned"
    assert pool.stats.misses == NUM_TENANTS
    # ...and not just fast — *right*: one more pooled tick on tenant 0 must be
    # bit-identical to a from-scratch plan over the same drifted graph.
    delta = one_delta()
    pool.apply_delta(tenants[0], delta)
    pooled_scores = pool.infer(tenants[0], mode="incremental").scores
    fresh = InferenceSession(model, make_config())
    fresh.prepare(tenants[0])
    np.testing.assert_array_equal(pooled_scores, fresh.infer().scores)

    speedup = reprepare_seconds / pooled_seconds
    edges = tenants[0].num_edges
    print()
    print(f"1 tick = {NUM_TENANTS} tenants x ({NUM_NODES} nodes, ~{edges} edges), "
          f"{DELTA_ROWS} feature rows refreshed per tenant")
    print(f"re-prepare tick (fresh plan + full infer per tenant): "
          f"{reprepare_seconds * 1e3:.0f} ms")
    print(f"pooled tick (cached plan + incremental per tenant):   "
          f"{pooled_seconds * 1e3:.0f} ms   [{pool.stats.describe()}]")
    print(f"multi-tenant serving speedup: {speedup:.1f}x")
