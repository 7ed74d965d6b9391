"""Model-based test: any sequence of pool calls scores as a fresh session.

A :class:`~hypothesis.stateful.RuleBasedStateMachine` drives one pregel or
mapreduce :class:`~repro.inference.SessionPool` over two tenant handles: eager and
deferred feature and hub-preserving edge deltas, invalid deltas, full and
incremental infers, ``evict`` and ``clear``, an in-place write to a handle
array, an unlocked or rebound handle array, a backend whose ``apply_delta``
raises after patching the plan, discarding a pooled session's deltas, a
delta sent to a pooled session directly, using a session after its
eviction and, on the process executor, a worker killed between calls.  The model is a reference copy of each
handle that every mirrored delta (and every write the pool lets through)
also lands on.  The invariant is contract 3's: no pooled plan ever serves a
mutated handle, so every infer equals a fresh ``prepare()+infer()`` on a
copy of the handle bit for bit, and the handle always equals its reference.
"""

from __future__ import annotations

import os
import signal

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
from repro.graph.graph import Graph
from repro.inference import SessionPool, StalePlanError
from repro.inference.delta import apply_delta_to_graph
from tests.test_session_state_machine import (
    INVALID,
    MODEL,
    edge_delta,
    feature_delta,
    fresh_scores,
    invalid_delta,
    make_config,
    tiny_hub_graph,
)

HANDLES = st.integers(0, 1)
ARRAYS = ("src", "dst", "node_features")


def copy_of(graph: Graph) -> Graph:
    return Graph(graph.src.copy(), graph.dst.copy(), node_features=graph.node_features.copy(),
                 num_nodes=graph.num_nodes)


class PatchThenRaise:
    """Delegating backend whose ``apply_delta`` patches the plan, then raises
    — a failure after the plan moved but before the flush completed."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def apply_delta(self, plan, delta):
        self.inner.apply_delta(plan, delta)
        raise RuntimeError("backend failed mid-patch")


class PoolMachine(RuleBasedStateMachine):
    executor = "serial"
    backend = "pregel"
    capacity = 2

    def __init__(self) -> None:
        super().__init__()
        self.pool = SessionPool(MODEL, make_config(self.executor, self.backend),
                                capacity=self.capacity)
        self.handles = [tiny_hub_graph(), tiny_hub_graph()]
        self.references = [tiny_hub_graph(), tiny_hub_graph()]
        # handles whose next lookup must miss (an array was rebound, or a
        # flush raised part-way)
        self.must_miss = [False, False]
        # handles whose next infer may meet a killed worker
        self.killed = [False, False]

    def lookup(self, which: int, call):
        """Run one pool call on handle ``which``, checking a due miss."""
        misses = self.pool.stats.misses
        try:
            return call(self.handles[which])
        finally:
            if self.must_miss[which]:
                assert self.pool.stats.misses == misses + 1
                self.must_miss[which] = False

    @rule(which=HANDLES, seed=st.integers(0, 2**16), edges=st.booleans(), defer=st.booleans())
    def apply_delta(self, which, seed, edges, defer):
        delta = (edge_delta if edges else feature_delta)(np.random.default_rng(seed),
                                                        self.references[which])
        outcome = self.lookup(which, lambda graph: self.pool.apply_delta(graph, delta, defer))
        assert outcome.deferred if defer else outcome.in_place
        apply_delta_to_graph(self.references[which], delta)

    @rule(which=HANDLES, kind=INVALID, defer=st.booleans())
    def reject_invalid_delta(self, which, kind, defer):
        # Rejected before the mirror: the handle keeps its reference's bytes,
        # and earlier deferred deltas still land at the next infer.
        delta = invalid_delta(kind, self.references[which])
        with pytest.raises(ValueError):
            self.lookup(which, lambda graph: self.pool.apply_delta(graph, delta, defer))
        for name in ARRAYS:
            np.testing.assert_array_equal(getattr(self.handles[which], name),
                                          getattr(self.references[which], name))

    @rule(which=HANDLES)
    def discard_pending_deltas(self, which):
        # They are on the handle already; only a flush catches the plan up.
        session = self.lookup(which, self.pool.session_for)
        pending = session.num_pending_deltas
        with pytest.raises(RuntimeError, match="pooled"):
            session.discard_pending_deltas()
        assert session.num_pending_deltas == pending

    @rule(which=HANDLES, seed=st.integers(0, 2**16), edges=st.booleans(), defer=st.booleans())
    def apply_delta_to_the_pooled_session(self, which, seed, edges, defer):
        # Only the pool lands a delta on the handle, so the session refuses
        # it, and the handle and the plan stay in step.
        session = self.lookup(which, self.pool.session_for)
        delta = (edge_delta if edges else feature_delta)(np.random.default_rng(seed),
                                                        self.references[which])
        with pytest.raises(RuntimeError, match="pool.apply_delta"):
            session.apply_delta(delta, defer=defer)
        assert self.handles[which] in self.pool

    @rule(which=HANDLES, seed=st.integers(0, 2**16))
    def use_an_evicted_session(self, which, seed):
        session = self.lookup(which, self.pool.session_for)
        self.pool.evict(self.handles[which])
        with pytest.raises(StalePlanError):
            session.apply_delta(feature_delta(np.random.default_rng(seed),
                                              self.references[which]), defer=True)
        with pytest.raises(StalePlanError):
            session.infer()

    @rule(which=HANDLES, mode=st.sampled_from(["full", "incremental"]))
    def infer(self, which, mode):
        self.check(which, mode)

    def check(self, which: int, mode: str) -> None:
        def infer(graph: Graph) -> np.ndarray:
            return self.pool.infer(graph, mode=mode).scores

        try:
            scores = self.lookup(which, infer)
        except WorkerCrashError:
            # the tenant's executor was reset; the retry respawns it
            assert self.killed[which]
            scores = self.lookup(which, infer)
        self.killed[which] = False
        handle = self.handles[which]
        for name in ARRAYS:
            np.testing.assert_array_equal(getattr(handle, name),
                                          getattr(self.references[which], name))
        np.testing.assert_array_equal(scores, fresh_scores(copy_of(handle), self.pool.config))

    @precondition(lambda self: self.executor == "process")
    @rule(which=HANDLES, slot=st.integers(0, 1))
    def kill_worker(self, which, slot):
        # A sibling tenant's executor is its own: only this one may crash.
        if self.handles[which] not in self.pool:
            return
        engine = self.pool.session_for(self.handles[which]).plan.state["engine"]
        live = [] if engine.started_executor is None else engine.started_executor.live_processes()
        if live:
            victim = live[slot % len(live)]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            self.killed[which] = True

    @rule(which=HANDLES)
    def evict(self, which):
        self.pool.evict(self.handles[which])
        self.must_miss[which] = False
        assert self.handles[which].node_features.flags.writeable

    @rule()
    def clear(self):
        self.pool.clear()
        self.must_miss = [False, False]

    @rule(which=HANDLES, name=st.sampled_from(["src", "dst", "node_features"]))
    def write_in_place(self, which, name):
        handle = self.handles[which]
        array = getattr(handle, name)
        if handle in self.pool:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0] + 1
        elif name == "node_features":
            # Not pooled (never looked up, evicted or rebound): the caller
            # owns the array again, and the next lookup adopts the write.
            array[0] += 1.0
            self.references[which].node_features[0] += 1.0

    @rule(which=HANDLES, row=st.integers(0, 89))
    def unlock_and_write(self, which, row):
        handle = self.handles[which]
        pooled = handle in self.pool
        handle.node_features.flags.writeable = True
        handle.node_features[row] += 1.0
        self.references[which].node_features[row] += 1.0
        assert handle not in self.pool
        self.must_miss[which] = self.must_miss[which] or pooled

    @rule(which=HANDLES, row=st.integers(0, 89))
    def rebind_features(self, which, row):
        handle = self.handles[which]
        pooled = handle in self.pool
        features = handle.node_features.copy()
        features[row] = -features[row]
        handle.node_features = features
        self.references[which].node_features[row] *= -1
        assert handle not in self.pool
        self.must_miss[which] = self.must_miss[which] or pooled

    @rule(which=HANDLES, seed=st.integers(0, 2**16), edges=st.booleans())
    def backend_raises_mid_patch(self, which, seed, edges):
        session = self.lookup(which, self.pool.session_for)
        delta = (edge_delta if edges else feature_delta)(np.random.default_rng(seed),
                                                        self.references[which])
        session.backend = PatchThenRaise(session.backend)
        try:
            with pytest.raises(RuntimeError, match="mid-patch"):
                self.pool.apply_delta(self.handles[which], delta)
        finally:
            session.backend = session.backend.inner
        # The mirror landed on the handle before the flush raised; the plan
        # that was patched part-way is detached, writeable handle and all.
        apply_delta_to_graph(self.references[which], delta)
        assert self.handles[which] not in self.pool
        assert self.handles[which].node_features.flags.writeable
        self.must_miss[which] = True

    def teardown(self) -> None:
        try:            # every call sequence ends in a checked infer per handle
            for which in (0, 1):
                self.check(which, "incremental")
        finally:
            self.pool.clear()
        for handle in self.handles:
            assert all(getattr(handle, name).flags.writeable for name in ARRAYS)


@pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
@pytest.mark.parametrize("executor", ["serial", "process"])
def test_any_pool_call_sequence_scores_as_a_fresh_session(executor, backend):
    machine = type(f"PoolMachine_{executor}_{backend}", (PoolMachine,),
                   {"executor": executor, "backend": backend})
    run_state_machine_as_test(machine, settings=settings(
        max_examples=30, stateful_step_count=12, deadline=None,
        suppress_health_check=[HealthCheck.too_slow]))


def test_a_pool_of_one_scores_as_a_fresh_session():
    # Each handle's lookup evicts the other's session: a tenant's deltas
    # must survive the eviction its sibling forces.
    machine = type("PoolMachine_capacity_one", (PoolMachine,), {"capacity": 1})
    run_state_machine_as_test(machine, settings=settings(
        max_examples=30, stateful_step_count=12, deadline=None,
        suppress_health_check=[HealthCheck.too_slow]))
