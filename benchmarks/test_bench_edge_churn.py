"""Benchmark: in-place edge churn vs full re-prepare under shadow nodes.

The PR-10 tentpole scenario: a serving session over a power-law graph with
the shadow-nodes rewrite enabled, fed a steady stream of *edge* deltas whose
hub set never changes.  Position-stable mirror assignment means every such
delta patches the cached plan in place — mirror out-edge slices spliced,
live partitions re-shipped — instead of forcing ``prepare()`` from scratch.

This benchmark builds a ~100k-edge power-law graph (broadcast + shadow-nodes,
8 workers, hub threshold pinned so ~180 hubs exist and survive the churn)
and swaps 1% of the edges per round.  The churn models a hot region of a
streaming graph — a few hundred low-activity nodes rewiring among themselves
(think a burst of interactions inside one community) — which is also the
case the incremental path is built for: the dirty k-hop region stays small
while the hub mirrors, routing tables, and the other 99% of the adjacency
are reused untouched.  It times

* ``apply_delta`` + ``infer(mode="incremental")`` against
* a fresh ``prepare`` + full ``infer`` on the mutated graph,

asserting every delta lands in place (``DeltaOutcome.in_place``), that the
final incremental scores are bit-identical to the fresh plan's, and printing
the ratio (typical local runs show ~4x; wall-clock is judged in ``bench/``,
not asserted here).  The run dumps ``BENCH_edge_churn.json`` — uploaded as a CI artifact; set
``REPRO_BENCH_ARTIFACT_DIR`` to redirect where it lands (default: CWD).
"""

import json
import os
import time
from pathlib import Path

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
CHURN_FRACTION = 0.01     # 1% of the edges swapped per round
HUB_THRESHOLD = 60        # pinned: ~180 hubs on the seed-42 graph
ZONE_SIZE = 400           # hot-region size: low-degree nodes rewiring edges
ZONE_MAX_DEGREE = 3       # zone members start (almost) quiet
ZONE_SEED_EDGES = 1_200   # pre-churn zone-internal edges so removals exist
SOURCE_DEGREE_CAP = 44    # keep every churn source well below the hub bar
TIMING_ROUNDS = 3         # best-of to damp scheduler noise on shared runners
ARTIFACT = "BENCH_edge_churn.json"


def make_config() -> InferenceConfig:
    return InferenceConfig(
        backend="pregel", num_workers=NUM_WORKERS,
        strategies=StrategyConfig(partial_gather=True, broadcast=True,
                                  shadow_nodes=True,
                                  hub_threshold_override=HUB_THRESHOLD))


def one_churn_delta(graph, zone: np.ndarray, zone_mask: np.ndarray,
                    rng: np.random.Generator) -> GraphDelta:
    """Swap ~1% of the edges inside the hot zone, hub set untouched.

    Adds and removals both stay zone-internal and balance out, so no zone
    node drifts toward the hub threshold and no hub's out-degree (hence no
    mirror-group count) ever moves — every delta must land in place.
    """
    degrees = graph.out_degrees()
    half = max(1, int(graph.num_edges * CHURN_FRACTION) // 2)
    sources = zone[degrees[zone] < SOURCE_DEGREE_CAP]
    added_src = rng.choice(sources, size=half)
    added_dst = rng.choice(zone, size=half)
    internal = np.nonzero(zone_mask[graph.src] & zone_mask[graph.dst])[0]
    removed = rng.choice(internal, size=half, replace=False)
    return GraphDelta(added_src=added_src, added_dst=added_dst,
                      removed_edge_ids=removed)


@pytest.mark.paper_artifact("edge_churn_microbench")
def test_bench_edge_churn(benchmark):
    graph = powerlaw_graph(num_nodes=NUM_NODES, avg_degree=AVG_DEGREE, skew="out",
                           feature_dim=FEATURE_DIM, num_classes=NUM_CLASSES, seed=42)
    degrees = graph.out_degrees()
    assert int((degrees >= HUB_THRESHOLD).sum()) > 0, \
        "benchmark graph must have shadow hubs for the churn to exercise mirrors"
    model = build_model("gcn", FEATURE_DIM, HIDDEN_DIM, NUM_CLASSES,
                        num_layers=2, seed=0)
    rng = np.random.default_rng(7)
    zone = np.nonzero(degrees <= ZONE_MAX_DEGREE)[0][:ZONE_SIZE]
    assert zone.size == ZONE_SIZE
    zone_mask = np.zeros(NUM_NODES, dtype=bool)
    zone_mask[zone] = True

    session = InferenceSession(model, make_config())
    session.prepare(graph)
    session.infer()                      # warm the incremental state cache
    # Seed the hot region (untimed): gives round 1 zone-internal edges to
    # remove, after which the balanced churn keeps the pool replenished.
    session.apply_delta(GraphDelta(added_src=rng.choice(zone, size=ZONE_SEED_EDGES),
                                   added_dst=rng.choice(zone, size=ZONE_SEED_EDGES)))
    session.infer(mode="incremental")

    churn_edges = 2 * max(1, int(graph.num_edges * CHURN_FRACTION) // 2)
    incremental_seconds = float("inf")
    for _ in range(TIMING_ROUNDS):
        delta = one_churn_delta(graph, zone, zone_mask, rng)
        start = time.perf_counter()
        outcome = session.apply_delta(delta)
        session.infer(mode="incremental")
        incremental_seconds = min(incremental_seconds,
                                  time.perf_counter() - start)
        assert outcome.in_place, outcome.reason

    def timed_round():
        outcome = session.apply_delta(one_churn_delta(graph, zone, zone_mask, rng))
        assert outcome.in_place, outcome.reason
        session.infer(mode="incremental")

    benchmark.pedantic(timed_round, rounds=1, iterations=1)
    assert session.num_replans == 0

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

    # Not just fast — *right*: the in-place patched plan serves the same
    # graph state the fresh session just planned, bit for bit.
    last_incremental = session.infer(mode="incremental").scores
    np.testing.assert_array_equal(last_incremental, full_scores)

    speedup = full_seconds / incremental_seconds
    payload = {
        "num_nodes": NUM_NODES,
        "num_edges": int(graph.num_edges),
        "churn_edges_per_round": churn_edges,
        "churn_fraction": CHURN_FRACTION,
        "hub_threshold": HUB_THRESHOLD,
        "num_hubs": int((graph.out_degrees() >= HUB_THRESHOLD).sum()),
        "zone_size": ZONE_SIZE,
        "incremental_seconds": incremental_seconds,
        "full_seconds": full_seconds,
        "speedup": speedup,
        "replans": session.num_replans,
    }
    artifact_dir = Path(os.environ.get("REPRO_BENCH_ARTIFACT_DIR", "."))
    artifact_dir.mkdir(parents=True, exist_ok=True)
    (artifact_dir / ARTIFACT).write_text(json.dumps(payload, indent=2))

    print()
    print(f"full re-prepare + infer ({NUM_NODES} nodes, ~{graph.num_edges} edges, "
          f"{payload['num_hubs']} hubs): {full_seconds * 1e3:.1f} ms")
    print(f"in-place edge patch + incremental ({churn_edges} churned edges, "
          f"{CHURN_FRACTION:.0%}): {incremental_seconds * 1e3:.1f} ms")
    print(f"edge-churn speedup: {speedup:.1f}x  -> {artifact_dir / ARTIFACT}")
