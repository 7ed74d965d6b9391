"""Benchmark: incremental delta-inference vs full re-prepare + re-infer.

The serving scenario the delta subsystem exists for: a recurring scoring job
over a graph whose node features drift between runs.  Before, the only safe
way to pick up a 1% feature refresh was ``prepare()`` + ``infer()`` from
scratch; now ``apply_delta()`` patches the cached plan in place and
``infer(mode="incremental")`` reruns just the dirty k-hop region — scores
bit-identical to the full run.

This benchmark builds a 100k-edge power-law graph (broadcast + shadow-nodes
enabled, 8 workers), refreshes 1% of the feature rows, and times

* ``apply_delta`` + ``infer(mode="incremental")`` against
* a fresh ``prepare`` + full ``infer`` on the mutated graph,

printing the ratio (typical local runs show ~4x; both sides are measured
best-of-3 in the same process) and asserting bit-identity.  Wall-clock is
judged in ``bench/`` (the ``delta_ticks`` workload), not asserted here.
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
    StrategyConfig,
)

NUM_NODES = 25_000
AVG_DEGREE = 4.0          # ~100k edges
FEATURE_DIM = 32
HIDDEN_DIM = 64
NUM_CLASSES = 8
NUM_WORKERS = 8
DELTA_FRACTION = 0.01     # 1% of the feature rows refreshed per round
TIMING_ROUNDS = 3         # best-of to damp scheduler noise on shared runners


def make_config() -> InferenceConfig:
    return InferenceConfig(backend="pregel", num_workers=NUM_WORKERS,
                           strategies=StrategyConfig(partial_gather=True,
                                                     broadcast=True,
                                                     shadow_nodes=True))


@pytest.mark.paper_artifact("delta_inference_microbench")
def test_bench_delta_inference(benchmark):
    graph = powerlaw_graph(num_nodes=NUM_NODES, avg_degree=AVG_DEGREE, skew="out",
                           feature_dim=FEATURE_DIM, num_classes=NUM_CLASSES, seed=42)
    model = build_model("gcn", FEATURE_DIM, HIDDEN_DIM, NUM_CLASSES,
                        num_layers=2, seed=0)
    rng = np.random.default_rng(7)
    delta_size = max(1, int(NUM_NODES * DELTA_FRACTION))

    session = InferenceSession(model, make_config())
    session.prepare(graph)
    session.infer()                      # warm the incremental state cache

    def one_delta():
        ids = rng.choice(NUM_NODES, size=delta_size, replace=False)
        rows = rng.standard_normal((delta_size, FEATURE_DIM))
        return GraphDelta(node_ids=ids, node_features=rows)

    incremental_seconds = float("inf")
    incremental_scores = None
    for _ in range(TIMING_ROUNDS):
        delta = one_delta()
        start = time.perf_counter()
        session.apply_delta(delta)
        incremental_scores = session.infer(mode="incremental").scores
        incremental_seconds = min(incremental_seconds, time.perf_counter() - start)
    benchmark.pedantic(
        lambda: (session.apply_delta(one_delta()),
                 session.infer(mode="incremental")),
        rounds=1, iterations=1)

    # The old path: the same (already mutated) graph through a cold plan.
    full_seconds = float("inf")
    full_scores = None
    for _ in range(TIMING_ROUNDS):
        fresh = InferenceSession(
            build_model("gcn", FEATURE_DIM, HIDDEN_DIM, NUM_CLASSES,
                        num_layers=2, seed=0),
            make_config())
        start = time.perf_counter()
        fresh.prepare(graph)
        full_scores = fresh.infer().scores
        full_seconds = min(full_seconds, time.perf_counter() - start)

    # Not just fast — *right*: the benchmark's last incremental run serves the
    # same graph state the fresh session just planned, bit for bit.
    last_incremental = session.infer(mode="incremental").scores
    np.testing.assert_array_equal(last_incremental, full_scores)

    speedup = full_seconds / incremental_seconds
    print()
    print(f"full re-prepare + infer   ({NUM_NODES} nodes, ~{graph.num_edges} edges): "
          f"{full_seconds * 1e3:.1f} ms")
    print(f"apply_delta + incremental ({delta_size} dirty rows, "
          f"{DELTA_FRACTION:.0%} of nodes):           {incremental_seconds * 1e3:.1f} ms")
    print(f"incremental delta-inference speedup:            {speedup:.1f}x")
