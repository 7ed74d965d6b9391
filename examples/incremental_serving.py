"""Serving a drifting graph: deltas, staleness detection, incremental infer.

The production loop the paper targets: a full-graph GNN scoring job runs on a
schedule while the underlying graph keeps changing — user features refresh,
edges appear.  This example walks the whole contract:

1. ``prepare()`` once, ``infer()`` on every tick;
2. mutating the graph behind the session's back raises ``StalePlanError``
   (previously: silent stale scores);
3. the same change expressed as a ``GraphDelta`` patches the plan in place;
4. ``infer(mode="incremental")`` then reruns only the delta's k-hop reach —
   bit-identical to a full run, at a fraction of the cost.

Run with:  PYTHONPATH=src python examples/incremental_serving.py
"""

import time

import numpy as np

from example_utils import scaled
from repro.gnn.model import build_model
from repro.graph.generators import powerlaw_graph
from repro.inference import (
    GraphDelta,
    InferenceConfig,
    InferenceSession,
    StalePlanError,
    StrategyConfig,
)


def main() -> None:
    rng = np.random.default_rng(0)
    graph = powerlaw_graph(num_nodes=scaled(8000, minimum=500), avg_degree=5.0,
                           skew="out", feature_dim=16, num_classes=5, seed=11)
    model = build_model("gcn", graph.feature_dim, 32, 5, num_layers=2, seed=0)
    config = InferenceConfig(backend="pregel", num_workers=8,
                             strategies=StrategyConfig(partial_gather=True,
                                                       broadcast=True,
                                                       shadow_nodes=True))

    session = InferenceSession(model, config)
    session.prepare(graph)
    baseline = session.infer()
    print(f"tick 0 (full run):        {baseline.cost.wall_clock_seconds:.3f}s "
          f"simulated, {baseline.cost.total_bytes / 1e6:.1f} MB moved")

    # --- the footgun, now loud -------------------------------------------- #
    graph.node_features[123] += 1.0
    try:
        session.infer()
    except StalePlanError:
        print("out-of-band mutation detected: StalePlanError (no stale scores served)")
    graph.node_features[123] -= 1.0    # put it back (approximately is fine:
    session.prepare(graph)             # ... we re-plan to resync exactly)
    session.infer()

    # --- the supported path: describe the change as a delta ---------------- #
    dirty = rng.choice(graph.num_nodes, size=80, replace=False)
    delta = GraphDelta(node_ids=dirty,
                       node_features=rng.standard_normal((80, graph.feature_dim)))
    start = time.perf_counter()
    outcome = session.apply_delta(delta)
    refreshed = session.infer(mode="incremental")
    elapsed = time.perf_counter() - start
    print(f"tick 1 (delta of {dirty.size} rows, applied "
          f"{'in place' if outcome.in_place else 'via re-plan'}): "
          f"incremental infer in {elapsed:.3f}s wall, "
          f"{refreshed.cost.total_bytes / 1e6:.1f} MB moved")

    # --- proof: identical to planning from scratch ------------------------- #
    fresh = InferenceSession(build_model("gcn", graph.feature_dim, 32, 5,
                                         num_layers=2, seed=0), config)
    fresh.prepare(graph)
    full = fresh.infer()
    identical = np.array_equal(refreshed.scores, full.scores)
    print(f"incremental scores bit-identical to a fresh full run: {identical}")
    print(f"{session.plan.describe()}: last tick cost "
          f"{refreshed.cost.wall_clock_seconds:.3f}s simulated wall clock, "
          f"{refreshed.cost.cpu_minutes:.4f} cpu*min")


if __name__ == "__main__":
    main()
