"""Model-based test: any sequence of session calls scores as a fresh session.

A :class:`~hypothesis.stateful.RuleBasedStateMachine` drives one pregel or
mapreduce :class:`~repro.inference.InferenceSession` — eager and deferred deltas,
feature and hub-preserving edge deltas (two of them back to back, so the
out-edge patches compose before a run opens), invalid deltas behind a
deferred one, full and incremental infers, ``close()`` and, on the process
executor, a worker killed between runs.  The model is a reference copy of
the graph that every accepted delta also lands on; the invariant is that
every infer equals a fresh ``prepare()+infer()`` on it bit for bit, and that
a rejected delta raises ``ValueError`` and changes nothing.  The one
exception is the first infer after a kill: it raises
:class:`~repro.cluster.executor.WorkerCrashError`, and the one after it is
exact — a respawned worker starts with no state and its engine runs in full.
"""

from __future__ import annotations

import os
import signal
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.cluster.executor import WorkerCrashError
from repro.gnn.model import build_model
from repro.graph.generators import powerlaw_graph
from repro.graph.graph import Graph
from repro.inference import GraphDelta, InferenceConfig, InferenceSession, StrategyConfig
from repro.inference.delta import apply_delta_to_graph

THRESHOLD = 12
FEATURE_DIM = 4
INVALID = st.sampled_from(["id", "nan", "width"])
MODEL = build_model("gcn", FEATURE_DIM, 8, 3, num_layers=2, seed=0)


def tiny_hub_graph() -> Graph:
    return powerlaw_graph(num_nodes=90, avg_degree=4.0, skew="out", feature_dim=FEATURE_DIM,
                          num_classes=3, seed=3)


def make_config(executor: str, backend: str = "pregel",
                shadow_nodes: bool = True) -> InferenceConfig:
    return InferenceConfig(
        backend=backend, num_workers=2, executor=executor,
        strategies=StrategyConfig(partial_gather=True, broadcast=True,
                                  shadow_nodes=shadow_nodes,
                                  hub_threshold_override=THRESHOLD))


def feature_delta(rng: np.random.Generator, graph: Graph) -> GraphDelta:
    rows = rng.choice(graph.num_nodes, size=3, replace=False)
    return GraphDelta(node_ids=rows, node_features=rng.normal(size=(3, FEATURE_DIM)))


def edge_delta(rng: np.random.Generator, graph: Graph, removed: int = 2) -> GraphDelta:
    """Churn that keeps the hub set: every touched edge's source stays well
    below the threshold.  Three edges come, ``removed`` go."""
    quiet = graph.out_degrees() < THRESHOLD - 3
    return GraphDelta(
        added_src=rng.choice(np.flatnonzero(quiet), size=3, replace=False),
        added_dst=rng.integers(0, graph.num_nodes, size=3),
        removed_edge_ids=rng.choice(np.flatnonzero(quiet[graph.src]), size=removed,
                                    replace=False))


def invalid_delta(kind: str, graph: Graph) -> GraphDelta:
    """A delta every entry path must reject: an edge to a node outside the
    graph, a NaN feature row or a row of the wrong width."""
    if kind == "id":
        return GraphDelta(added_src=[0], added_dst=[graph.num_nodes])
    rows = np.ones((1, FEATURE_DIM + 1 if kind == "width" else FEATURE_DIM))
    if kind == "nan":
        rows[0, 0] = np.nan
    return GraphDelta(node_ids=[0], node_features=rows)


def arrays_of(graph: Graph) -> tuple:
    return tuple(getattr(graph, name).tobytes() for name in ("src", "dst", "node_features"))


def fresh_scores(graph: Graph, config: InferenceConfig = make_config("serial")) -> np.ndarray:
    """A fresh ``prepare()+infer()`` on ``graph`` (serial, else ``config``)."""
    return InferenceSession(MODEL, replace(config, executor="serial")).infer(graph).scores


class SessionMachine(RuleBasedStateMachine):
    executor = "serial"
    backend = "pregel"

    def __init__(self) -> None:
        super().__init__()
        self.graph = tiny_hub_graph()
        self.reference = tiny_hub_graph()
        self.config = make_config(self.executor, self.backend)
        self.session = InferenceSession(MODEL, self.config)
        plan = self.session.prepare(self.graph)
        assert plan.shadow_plan.has_mirrors
        self.killed = False

    def land(self, delta: GraphDelta, defer: bool = False) -> None:
        outcome = self.session.apply_delta(delta, defer=defer)
        assert defer or outcome.in_place
        apply_delta_to_graph(self.reference, delta)

    # Deltas are drawn against the reference: a deferred delta reaches the
    # graph only at the flush, and the reference is what the buffer describes.
    @rule(seed=st.integers(0, 2**16))
    def eager_feature_delta(self, seed):
        self.land(feature_delta(np.random.default_rng(seed), self.reference))

    @rule(seed=st.integers(0, 2**16))
    def edge_delta(self, seed):
        self.land(edge_delta(np.random.default_rng(seed), self.reference))

    @rule(seed=st.integers(0, 2**16))
    def two_edge_deltas(self, seed):
        rng = np.random.default_rng(seed)
        self.land(edge_delta(rng, self.reference))
        self.land(edge_delta(rng, self.reference))

    @rule(seed=st.integers(0, 2**16), edges=st.booleans())
    def deferred_delta_then_flush(self, seed, edges):
        rng = np.random.default_rng(seed)
        self.land((edge_delta if edges else feature_delta)(rng, self.reference), defer=True)
        assert self.session.flush_deltas().in_place

    @rule(seed=st.integers(0, 2**16), kind=INVALID, defer=st.booleans())
    def invalid_delta_behind_a_deferred_one(self, seed, kind, defer):
        # The deferred delta stays buffered through the rejection and lands
        # at the next infer.
        self.land(feature_delta(np.random.default_rng(seed), self.reference), defer=True)
        before, pending = arrays_of(self.graph), self.session.num_pending_deltas
        with pytest.raises(ValueError):
            self.session.apply_delta(invalid_delta(kind, self.reference), defer=defer)
        assert arrays_of(self.graph) == before
        assert self.session.num_pending_deltas == pending

    @rule(mode=st.sampled_from(["full", "incremental"]))
    def infer(self, mode):
        self.check(mode)

    def check(self, mode: str) -> None:
        if self.killed:
            self.killed = False
            with pytest.raises(WorkerCrashError):
                self.session.infer(mode=mode)
        scores = self.session.infer(mode=mode).scores
        np.testing.assert_array_equal(scores, fresh_scores(self.reference, self.config))

    @rule()
    def release(self):
        self.session.close()
        self.killed = False

    @precondition(lambda self: self.executor == "process")
    @rule(slot=st.integers(0, 1))
    def kill_worker(self, slot):
        executor = self.session.plan.state["engine"].started_executor
        live = [] if executor is None else executor.live_processes()
        if live:
            victim = live[slot % len(live)]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            self.killed = True

    def teardown(self) -> None:
        try:            # every call sequence ends in a checked infer
            self.check("incremental")
        finally:
            self.session.close()


@pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
@pytest.mark.parametrize("executor", ["serial", "process"])
def test_any_call_sequence_scores_as_a_fresh_session(executor, backend):
    machine = type(f"SessionMachine_{executor}_{backend}", (SessionMachine,),
                   {"executor": executor, "backend": backend})
    run_state_machine_as_test(machine, settings=settings(
        max_examples=40, stateful_step_count=12, deadline=None,
        suppress_health_check=[HealthCheck.too_slow]))
