"""Degenerate delta shapes at the two serving entry points.

``SessionPool.apply_delta`` and ``ServingGateway.submit_delta`` are where a
tenant's deltas enter the serving tier.  Each shape below either lands — the
tenant's next scores equal a fresh ``prepare()+infer()`` on the post-delta
graph bit for bit — or is refused with ``ValueError`` while the tenant
handle's fingerprint, its pool key and the session's pending-delta count all
stay as they were (and the tenant keeps serving).  Shapes, with broadcast
and partial-gather on (shadow nodes stay off, so a hash partition's
out-edges are exactly its own nodes' out-edges):

* ``hub_loses_every_out_edge`` — the largest hub's out-edges all go, so the
  hub set moves and the session re-plans;
* ``same_edge_removed_and_added`` — one delta removes an edge and appends
  the same ``(src, dst)`` pair, so only its position changes;
* ``partition_left_without_out_edges`` — every node of the one hash
  partition that owns no hub loses all of its out-edges; the hub set holds,
  so this lands in place;
* ``removes_the_edge_it_adds`` — a removal id addressing the position the
  delta's own append would take; removals address pre-delta positions, so
  this is refused.
"""

from __future__ import annotations

import asyncio
import contextlib

import numpy as np
import pytest

from repro.cluster.executor import available_executors
from repro.gnn.model import build_model
from repro.graph.generators import powerlaw_graph
from repro.graph.graph import Graph
from repro.inference import (
    GatewayConfig,
    GraphDelta,
    InferenceConfig,
    InferenceSession,
    SessionPool,
    StrategyConfig,
    graph_fingerprint,
)
from repro.inference.delta import apply_delta_to_graph
from repro.serving import ServingGateway

NUM_WORKERS = 4
THRESHOLD = 20


def make_graph() -> Graph:
    return powerlaw_graph(num_nodes=240, avg_degree=5.0, skew="out",
                          feature_dim=8, num_classes=3, seed=0)


def make_config(backend: str, executor: str) -> InferenceConfig:
    return InferenceConfig(
        backend=backend, num_workers=NUM_WORKERS, executor=executor,
        strategies=StrategyConfig(partial_gather=True, broadcast=True,
                                  hub_threshold_override=THRESHOLD))


def make_model():
    return build_model("gcn", 8, 16, 3, num_layers=2, seed=0)


def landed(graph: Graph, delta: GraphDelta) -> Graph:
    """``graph`` with ``delta`` applied, on a copy."""
    copy = Graph(graph.src.copy(), graph.dst.copy(),
                 node_features=graph.node_features.copy(),
                 num_nodes=graph.num_nodes)
    apply_delta_to_graph(copy, delta)
    return copy


def hub_loses_every_out_edge(graph: Graph) -> GraphDelta:
    hub = int(np.argmax(graph.out_degrees()))
    assert graph.out_degrees()[hub] >= THRESHOLD
    delta = GraphDelta(removed_edge_ids=np.nonzero(graph.src == hub)[0])
    assert landed(graph, delta).out_degrees()[hub] == 0
    return delta


def same_edge_removed_and_added(graph: Graph) -> GraphDelta:
    edge = int(np.nonzero(graph.out_degrees()[graph.src] < 5)[0][0])
    delta = GraphDelta(added_src=graph.src[[edge]], added_dst=graph.dst[[edge]],
                       removed_edge_ids=np.array([edge]))
    after = landed(graph, delta)
    assert sorted(zip(after.src.tolist(), after.dst.tolist())) == sorted(
        zip(graph.src.tolist(), graph.dst.tolist()))
    return delta


def partition_left_without_out_edges(graph: Graph) -> GraphDelta:
    owner = graph.src % NUM_WORKERS          # the hash partitioner's placement
    hubs = np.nonzero(graph.out_degrees() >= THRESHOLD)[0]
    (emptied,) = set(range(NUM_WORKERS)) - set((hubs % NUM_WORKERS).tolist())
    delta = GraphDelta(removed_edge_ids=np.nonzero(owner == emptied)[0])
    assert not np.any(landed(graph, delta).src % NUM_WORKERS == emptied)
    return delta


def removes_the_edge_it_adds(graph: Graph) -> GraphDelta:
    return GraphDelta(added_src=np.array([1]), added_dst=np.array([2]),
                      removed_edge_ids=np.array([graph.num_edges]))


SHAPES = {shape.__name__: shape for shape in (
    hub_loses_every_out_edge, same_edge_removed_and_added,
    partition_left_without_out_edges, removes_the_edge_it_adds)}
REFUSED = {"removes_the_edge_it_adds"}


@contextlib.contextmanager
def tenant_front(entry: str, pool: SessionPool, graph: Graph):
    """``(apply, score)`` for one tenant, through the pool or the gateway."""
    if entry == "pool.apply_delta":
        yield (lambda delta: pool.apply_delta(graph, delta),
               lambda: pool.infer(graph, mode="incremental").scores)
        return
    loop = asyncio.new_event_loop()
    gateway = ServingGateway(pool, GatewayConfig())
    gateway.register("tenant", graph)
    try:
        yield (lambda delta: loop.run_until_complete(
                   gateway.submit_delta("tenant", delta)),
               lambda: loop.run_until_complete(
                   gateway.infer("tenant", mode="incremental")).scores)
    finally:
        loop.run_until_complete(gateway.aclose())
        loop.close()


@pytest.mark.parametrize("executor", sorted(available_executors()))
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("entry", ["gateway.submit_delta", "pool.apply_delta"])
@pytest.mark.parametrize("backend", ["mapreduce", "pregel"])
def test_degenerate_delta_lands_or_is_refused_untouched(backend, entry, shape,
                                                        executor):
    graph = make_graph()
    pool = SessionPool(make_model(), make_config(backend, executor), capacity=2)
    try:
        with tenant_front(entry, pool, graph) as (apply, score):
            score()                                  # tick 0 prepares the tenant
            session = pool.session_for(graph)
            delta = SHAPES[shape](graph)
            fingerprint = graph_fingerprint(graph)
            if shape in REFUSED:
                with pytest.raises(ValueError, match="removed_edge_ids"):
                    apply(delta)
                assert graph_fingerprint(graph) == fingerprint
                assert pool.session_for(graph) is session   # same key: a hit
                assert session.num_pending_deltas == 0
            else:
                apply(delta)
                assert graph_fingerprint(graph) != fingerprint
            scores = score()
        assert pool.stats.misses == 1                # the handle kept hitting
        fresh = InferenceSession(make_model(), make_config(backend, executor))
        try:
            np.testing.assert_array_equal(scores, fresh.infer(graph).scores)
        finally:
            fresh.close()
    finally:
        pool.clear()
