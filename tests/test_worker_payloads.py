"""What a worker is shipped, and what it keeps.

Programs travel to process workers inside the ``open`` payload, once per
worker per run, on both backends.  They read two CSR arrays of the shadow
rewrite (:class:`~repro.inference.shadow.ReplicaMap`); the rewritten graph
stays with the plan in the coordinator, and a worker attaches its
partition's arrays through shared memory.  A partition's state stays in the
worker that runs it, between runs too: no payload carries it in, and only
the outputs come back.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.cluster.executor import ProcessExecutor
from repro.gnn.model import build_model
from repro.graph.generators import powerlaw_graph
from repro.graph.graph import Graph
from repro.inference import GraphDelta, InferenceConfig, InferenceSession, StrategyConfig
from repro.inference.shadow import ReplicaMap
from repro.inference.strategies import BroadcastMessageBlock
from repro.pregel.engine import PregelPartitionHarness
from repro.pregel.vertex import BlockVertexProgram, MessageBlock, route


def hub_graph():
    return powerlaw_graph(1500, avg_degree=4.0, skew="both", feature_dim=32,
                          num_classes=3, seed=1)


def hub_session(backend, executor, hidden=8):
    graph = hub_graph()
    model = build_model("gcn", graph.feature_dim, hidden, 3, num_layers=2, seed=0)
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
    np.testing.assert_array_equal(clone.origin_of, shadow.origin_of)
    np.testing.assert_array_equal(clone.replica_indptr, shadow.replica_indptr)
    np.testing.assert_array_equal(clone.replica_ids, shadow.replica_ids)
    for name in ("src", "dst", "node_features", "labels"):
        np.testing.assert_array_equal(getattr(clone.graph, name), getattr(shadow.graph, name))
    assert clone.graph.num_nodes == shadow.graph.num_nodes > graph.num_nodes
    np.testing.assert_array_equal(clone.replicas_of(np.arange(5)), shadow.replicas_of(np.arange(5)))


class ResidentProbe(PregelPartitionHarness):
    """A harness that runs nothing: at close it reports what its slot keeps
    for the partition — ``(worker pid, {key: id of the resident send
    schedule}, whether any schedule holds a memo)``."""

    def __init__(self, partition, program):
        self.partition = partition

    def finish(self):
        kept = self.partition.block_state.get("send_schedule", {})
        return (os.getpid(), {key: id(resident) for key, resident in kept.items()},
                any(resident.memos for resident in kept.values()))


def resident_state(engine, opened, closed):
    """Each slot's :class:`ResidentProbe` report, read by a session that runs
    nothing; the probe's own open and close leave the spies' records."""
    warm = engine.cache_warm
    try:
        return engine.drive(BlockVertexProgram(), ResidentProbe, [], full=False)
    finally:
        engine.cache_warm = warm
        del opened[-1], closed[-1]


def feature_delta(rng, graph, size=20):
    rows = rng.choice(graph.num_nodes, size=size, replace=False)
    return GraphDelta(node_ids=rows, node_features=rng.normal(size=(size, graph.feature_dim)))


def edge_delta(rng, session, graph, added=12, removed=6):
    """Hub-preserving churn: every touched edge's source is well below the
    hub threshold, so the delta lands in place."""
    quiet = graph.out_degrees() < session.plan.strategy_plan.threshold - 3
    return GraphDelta(
        added_src=rng.choice(np.flatnonzero(quiet), size=added, replace=False),
        added_dst=rng.integers(0, graph.num_nodes, size=added),
        removed_edge_ids=rng.choice(np.flatnonzero(quiet[graph.src]), size=removed,
                                    replace=False))


@pytest.fixture()
def closed(monkeypatch):
    """The result list of every ``ProcessExecutor.close`` the test causes."""
    seen = []
    real_close = ProcessExecutor.close

    def spy(self):
        results = real_close(self)
        seen.append(list(results))
        return results

    monkeypatch.setattr(ProcessExecutor, "close", spy)
    return seen


def test_a_worker_builds_its_schedule_once_and_keeps_it(opened, closed):
    """Hubs, mirrors and partial-gather under the process executor, through a
    full run, an incremental run and an edge-delta run: every worker builds
    its send schedule in the first run and keeps that object through the
    others (the edge delta patches it at ``open``), memos included.  No
    ``open`` payload or ``close`` result reaches a schedule, a memo, ``h`` or
    ``h_history``, and every run scores as the serial executor does."""
    from repro.inference.gas import Routed
    from repro.inference.pregel_adaptor import SendSchedule, _PartialMemo
    from repro.pregel.vertex import Schedule

    serial, reference = hub_session("pregel", "serial")
    process, graph = hub_session("pregel", "process")
    rng = np.random.default_rng(38)
    try:
        process.prepare(graph)
        serial.prepare(reference)
        assert process.plan.shadow_plan.has_mirrors
        assert process.plan.strategy_plan.out_degree_hubs.size
        engine = process.plan.state["engine"]
        np.testing.assert_array_equal(process.infer().scores, serial.infer().scores)
        built = [(pid, schedules) for pid, schedules, _ in resident_state(engine, opened, closed)]
        assert all(schedules for _, schedules in built)

        # a priming run (the cache fills), an incremental run, an edge-delta run
        for delta in (feature_delta(rng, graph), feature_delta(rng, graph),
                      edge_delta(rng, process, graph)):
            for session in (process, serial):
                assert session.apply_delta(delta).in_place
            np.testing.assert_array_equal(process.infer(mode="incremental").scores,
                                          serial.infer(mode="incremental").scores)
            now = resident_state(engine, opened, closed)
            assert [(pid, schedules) for pid, schedules, _ in now] == built
        assert any(memo for _, _, memo in now)
    finally:
        serial.close()
        process.close()

    assert len(opened) == len(closed) == 4
    for payload in (p for payloads in opened for p in payloads):
        assert "block_state" not in payload
        shipped = reachable(pickle.loads(pickle.dumps(payload)))
        assert not [obj for obj in shipped
                    if isinstance(obj, (Schedule, Routed, SendSchedule, _PartialMemo))]
        assert not [obj for obj in shipped
                    if isinstance(obj, dict) and {"h", "h_history"} & set(obj)]
    assert all(type(result) is np.ndarray for results in closed for result in results)


def test_an_incremental_tick_ships_less_than_one_superstep_of_state(opened, closed):
    """Scale-free: a process-executor incremental tick's pickled ``open``
    payloads plus ``close`` results come to less than one superstep's node
    state (the last cached one, summed over the partitions).  A worker keeps
    its state cache; only the program, the frontier and the outputs cross
    the pipes."""
    rng = np.random.default_rng(5)
    sessions = [hub_session("pregel", executor, hidden=64)
                for executor in ("process", "serial")]
    (process, graph), (serial, _) = sessions
    priming, delta = feature_delta(rng, graph), feature_delta(rng, graph)
    try:
        for session, each in sessions:
            session.prepare(each)
            session.infer()
            session.apply_delta(priming)
            session.infer(mode="incremental")               # primes the state cache
            session.apply_delta(delta)
        del opened[:], closed[:]
        tick = process.infer(mode="incremental")
        np.testing.assert_array_equal(tick.scores,
                                      serial.infer(mode="incremental").scores)
        state = sum(float(p.block_state["h_history"][-1].nbytes)
                    for p in serial.plan.state["engine"].partitions)
    finally:
        for session, _ in sessions:
            session.close()

    (payloads,), (results,) = opened, closed
    shipped = sum(len(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL))
                  for item in payloads + results)
    assert 0 < shipped < state


@pytest.mark.parametrize("backend", ["mapreduce", "pregel"])
def test_mail_is_the_mail_of_the_dense_sends_byte_for_byte(backend, monkeypatch):
    """A send whose plain block is row-indexed into the sender's state mails,
    in a full run and in an incremental tick, the bytes that ``route`` mails
    for the same send with every message table built — what crossed the wire
    before a combiner could fold state rows directly.  No mailed block indexes
    a table: a cut carries its own payload rows."""
    real_route = PregelPartitionHarness.route
    mailed = []

    def spy(self, context):
        buckets = real_route(self, context)
        dense = [block if block.rows is None or isinstance(block, BroadcastMessageBlock)
                 else MessageBlock(block.dst_ids, block.dense_payload(), block.counts)
                 for block in context.outgoing_blocks]
        twin = route(dense, self.program.combiner_for_superstep(context.superstep),
                     self.layout, context.schedule)
        assert pickle.dumps(buckets) == pickle.dumps(twin)
        mail = [block for bucket in buckets for block in bucket]
        assert all(block.rows is None for block in mail
                   if not isinstance(block, BroadcastMessageBlock))
        mailed.append(sum(block.num_records() for block in mail))
        return buckets

    monkeypatch.setattr(PregelPartitionHarness, "route", spy)
    session, graph = hub_session(backend, "serial")
    rng = np.random.default_rng(44)
    try:
        session.infer(graph)
        full = len(mailed)
        for _ in range(2):                       # a priming tick, then a warm one
            session.apply_delta(feature_delta(rng, graph))
            session.infer(mode="incremental")
    finally:
        session.close()
    assert full and len(mailed) > full and sum(mailed[full:]) > 0
