"""Multi-tenant serving: one model, many tenant graphs, coalesced deltas.

The deployment the serving tier targets: one trained risk model scores many
tenants' transaction graphs on a schedule, each graph drifting between ticks.
This example walks the whole tier:

1. a :class:`SessionPool` prepares each tenant graph once (plan cache keyed
   by the tenant's graph handle, capacity-bounded) — tick 2+ hits the cache
   and skips strategy planning, shadow rewrite and partitioning entirely;
2. between ticks, each tenant's feature refreshes arrive as several small
   ``GraphDelta``\\ s applied with ``defer=True`` — the pool coalesces them
   and applies **one** merged patch per tenant per tick;
3. ``infer(mode="incremental")`` then recomputes only each delta's k-hop
   reach, and the example proves the served scores match a from-scratch
   plan on the drifted graph bit for bit.

Run:  PYTHONPATH=src python examples/multi_tenant_pool.py
"""

from __future__ import annotations

import time

import numpy as np

from example_utils import scaled
from repro.gnn.model import build_model
from repro.graph.generators import powerlaw_graph
from repro.inference import (
    GraphDelta,
    InferenceConfig,
    InferenceSession,
    SessionPool,
    StrategyConfig,
)

NUM_TENANTS = 4
DELTAS_PER_TICK = 5


def make_tenant(seed: int):
    return powerlaw_graph(num_nodes=scaled(3000, minimum=300), avg_degree=6.0,
                          skew="out", feature_dim=16, num_classes=5, seed=seed)


def main() -> None:
    rng = np.random.default_rng(0)
    model = build_model("gcn", 16, 32, 5, num_layers=2, seed=0)
    config = InferenceConfig(backend="pregel", num_workers=8,
                             strategies=StrategyConfig(partial_gather=True,
                                                       broadcast=True,
                                                       shadow_nodes=True))
    tenants = [make_tenant(seed) for seed in range(NUM_TENANTS)]

    pool = SessionPool(model, config, capacity=NUM_TENANTS)

    # --- tick 0: every tenant pays one prepare -------------------------- #
    start = time.perf_counter()
    for graph in tenants:
        pool.infer(graph)
    cold = time.perf_counter() - start
    print(f"tick 0 (cold): prepared + scored {NUM_TENANTS} tenant graphs "
          f"in {cold:.3f}s wall  [{pool.stats.describe()}]")

    # --- tick 1: pure plan-cache hits ------------------------------------ #
    start = time.perf_counter()
    for graph in tenants:
        pool.infer(graph)
    warm = time.perf_counter() - start
    print(f"tick 1 (warm): {warm:.3f}s wall — {cold / warm:.1f}x faster, "
          f"zero re-plans  [{pool.stats.describe()}]")

    # --- tick 2: drift + deferred deltas + incremental ------------------- #
    for tenant_id, graph in enumerate(tenants):
        for _ in range(DELTAS_PER_TICK):       # many small refreshes...
            dirty = rng.choice(graph.num_nodes, size=8, replace=False)
            delta = GraphDelta(node_ids=dirty,
                               node_features=rng.standard_normal((8, 16)))
            pool.apply_delta(graph, delta, defer=True)
    start = time.perf_counter()
    results = [pool.infer(graph, mode="incremental") for graph in tenants]
    tick2 = time.perf_counter() - start
    pending = DELTAS_PER_TICK * NUM_TENANTS
    print(f"tick 2 (drift): {pending} deltas coalesced into {NUM_TENANTS} "
          f"merged patches, incremental scoring in {tick2:.3f}s wall")

    # --- proof: identical to planning every tenant from scratch ---------- #
    identical = True
    for graph, result in zip(tenants, results):
        fresh = InferenceSession(build_model("gcn", 16, 32, 5, num_layers=2, seed=0),
                                 config)
        fresh.prepare(graph)
        identical &= bool(np.array_equal(result.scores, fresh.infer().scores))
    print(f"served scores bit-identical to from-scratch plans: {identical}")
    print(pool.describe())


if __name__ == "__main__":
    main()
