"""What a worker is shipped: the replica map, never the working graph.

Programs travel to process workers inside the ``open`` payload, once per
worker per run, on both backends.  They read two CSR arrays of the shadow
rewrite (:class:`~repro.inference.shadow.ReplicaMap`); the rewritten graph
stays with the plan in the coordinator, and a worker attaches its
partition's arrays through shared memory.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.cluster.executor import ProcessExecutor
from repro.gnn.model import build_model
from repro.graph.generators import powerlaw_graph
from repro.graph.graph import Graph
from repro.inference import InferenceConfig, InferenceSession, StrategyConfig
from repro.inference.shadow import ReplicaMap


def hub_graph():
    return powerlaw_graph(1500, avg_degree=4.0, skew="both", feature_dim=32,
                          num_classes=3, seed=1)


def hub_session(backend, executor):
    graph = hub_graph()
    model = build_model("gcn", graph.feature_dim, 8, 3, num_layers=2, seed=0)
    config = InferenceConfig(
        backend=backend, num_workers=4, executor=executor,
        strategies=StrategyConfig(partial_gather=True, broadcast=True, shadow_nodes=True))
    return InferenceSession(model, config), graph


def reachable(root):
    """Every object reachable from ``root`` through attributes and containers."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (np.ndarray, str, bytes, int, float)):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            stack.extend(getattr(obj, slot) for slot in getattr(obj, "__slots__", ())
                         if hasattr(obj, slot))
    return list(seen.values())


@pytest.fixture()
def opened(monkeypatch):
    """The payload list of every ``ProcessExecutor.open`` the test causes."""
    seen = []
    real_open = ProcessExecutor.open

    def spy(self, factory, payloads):
        seen.append(list(payloads))
        real_open(self, factory, payloads)

    monkeypatch.setattr(ProcessExecutor, "open", spy)
    return seen


@pytest.mark.parametrize("backend", ["mapreduce", "pregel"])
def test_an_open_payload_is_smaller_than_the_features_and_holds_no_graph(backend, opened):
    session, graph = hub_session(backend, "process")
    try:
        session.infer(graph)
        plan = session.plan
        assert plan.shadow_plan.has_mirrors
        feature_bytes = plan.working_graph.node_features.nbytes
    finally:
        session.close()

    (payloads,) = opened                     # one session per run
    assert len(payloads) == 4
    for payload in payloads:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) < feature_bytes
        shipped = reachable(pickle.loads(blob))
        assert not [obj for obj in shipped if isinstance(obj, Graph)]
        # ... and the replica map did travel: the scatter reads it worker-side
        maps = [obj for obj in shipped if isinstance(obj, ReplicaMap)]
        assert maps and all(each.has_mirrors for each in maps)


def test_a_shadow_plan_still_pickles_whole_graph_included():
    session, graph = hub_session("mapreduce", "serial")
    try:
        session.prepare(graph)
        shadow = session.plan.shadow_plan
        clone = pickle.loads(pickle.dumps(shadow))
    finally:
        session.close()
    assert clone.has_mirrors and clone.num_mirrors == shadow.num_mirrors
    assert clone.original_num_nodes == shadow.original_num_nodes
    assert clone.mirror_origin == shadow.mirror_origin
    np.testing.assert_array_equal(clone.replica_indptr, shadow.replica_indptr)
    np.testing.assert_array_equal(clone.replica_ids, shadow.replica_ids)
    for name in ("src", "dst", "node_features", "labels"):
        np.testing.assert_array_equal(getattr(clone.graph, name), getattr(shadow.graph, name))
    assert clone.graph.num_nodes == shadow.graph.num_nodes > graph.num_nodes
    np.testing.assert_array_equal(clone.replicas_of(np.arange(5)), shadow.replicas_of(np.arange(5)))


def test_the_send_schedule_is_rebuilt_worker_side_and_never_shipped(opened):
    """Hubs, mirrors and partial-gather, two infers under the process executor:
    every worker derives its own send schedule (as it derives
    ``out_src_local``), no ``open`` payload carries one even when the parent
    holds one, nothing brings one back, and the scores are the serial ones."""
    from repro.inference.gas import Routed
    from repro.pregel.engine import LAYOUT_DERIVED_KEYS
    from repro.pregel.vertex import Schedule

    serial, graph = hub_session("pregel", "serial")
    process, _ = hub_session("pregel", "process")
    try:
        serial.infer(graph)
        expected = serial.infer(graph).scores
        assert all(p.block_state["send_schedule"]
                   for p in serial.plan.state["engine"].partitions)

        process.prepare(graph)
        partitions = process.plan.state["engine"].partitions
        assert process.plan.shadow_plan.has_mirrors
        assert process.plan.strategy_plan.out_degree_hubs.size
        # a schedule the parent happens to hold (it ran serially before, say)
        held = serial.plan.state["engine"].partitions[0].block_state["send_schedule"]
        partitions[0].block_state["send_schedule"] = held
        process.infer()
        scores = process.infer().scores
        assert partitions[0].block_state["send_schedule"] is held     # parent's own, kept
        assert all("send_schedule" not in p.block_state for p in partitions[1:])
    finally:
        serial.close()
        process.close()

    np.testing.assert_array_equal(scores, expected)
    assert len(opened) == 2
    for payload in (p for payloads in opened for p in payloads):
        assert not set(payload["block_state"]) & set(LAYOUT_DERIVED_KEYS)
        shipped = reachable(pickle.loads(pickle.dumps(payload)))
        assert not [obj for obj in shipped if isinstance(obj, (Schedule, Routed))]
