"""Fault-plan contracts: replayability, the fault table, built-in hooks.

The hooks are exercised here in isolation (against a real pool) so failures
localise; end-to-end fault soaks live in ``test_streaming_soak.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.executor import WorkerCrashError
from repro.gnn.model import build_model
from repro.graph.generators import powerlaw_graph
from repro.inference.config import InferenceConfig, StrategyConfig
from repro.inference.delta import GraphDelta, apply_delta_to_graph
from repro.inference.pool import SessionPool
from repro.streaming.faults import (
    FAULTS,
    DeltaSchedule,
    FaultContext,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    available_faults,
    plan_executor,
)

FEATURE_DIM = 6
NUM_CLASSES = 3


def make_pool(executor: str = "serial", num_workers: int = 2,
              backend: str = "pregel") -> SessionPool:
    model = build_model("gcn", FEATURE_DIM, 8, NUM_CLASSES, num_layers=2,
                        seed=0)
    config = InferenceConfig(
        backend=backend, num_workers=num_workers, executor=executor,
        strategies=StrategyConfig(partial_gather=True, broadcast=False,
                                  shadow_nodes=False,
                                  hub_threshold_override=1_000_000))
    return SessionPool(model, config, capacity=4)


def make_graph(seed: int = 11):
    return powerlaw_graph(num_nodes=80, avg_degree=4.0, skew="out",
                          feature_dim=FEATURE_DIM, num_classes=NUM_CLASSES,
                          seed=seed)


class TestFaultPlan:
    def test_generate_is_seed_deterministic(self):
        kinds = ("kill_worker", "evict_tenant", "delay_deltas")
        first = FaultPlan.generate(seed=7, ticks=50, tenants=3, kinds=kinds,
                                   rate=0.3)
        second = FaultPlan.generate(seed=7, ticks=50, tenants=3, kinds=kinds,
                                    rate=0.3)
        assert first.events == second.events
        assert first.digest == second.digest
        assert first.events, "rate=0.3 over 50 ticks produced no events"
        other = FaultPlan.generate(seed=8, ticks=50, tenants=3, kinds=kinds,
                                   rate=0.3)
        assert other.digest != first.digest

    def test_generate_validates_inputs(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.generate(seed=0, ticks=5, tenants=1,
                               kinds=("meteor_strike",))
        with pytest.raises(ValueError, match="rate"):
            FaultPlan.generate(seed=0, ticks=5, tenants=1, rate=1.5)
        with pytest.raises(ValueError, match="kinds"):
            FaultPlan.generate(seed=0, ticks=5, tenants=1, kinds=())

    @pytest.mark.parametrize("kind", sorted(FAULTS))
    def test_generate_draws_only_the_requested_kind(self, kind):
        plan = FaultPlan.generate(seed=3, ticks=40, tenants=2, kinds=(kind,),
                                  rate=0.5)
        assert plan.events
        assert {event.kind for event in plan.events} == {kind}
        FaultInjector(plan)     # every table kind passes the injector's check

    def test_schedule_rows_and_events_at(self):
        plan = FaultPlan(seed=1, ticks=10, events=(
            FaultEvent(tick=2, kind="evict_tenant", tenant=0),
            FaultEvent(tick=2, kind="delay_deltas", tenant=1),
            FaultEvent(tick=7, kind="kill_worker", tenant=0, slot=3)))
        assert len(plan.events_at(2)) == 2
        assert plan.events_at(5) == []
        rows = plan.schedule()
        assert rows[2] == {"tick": 7, "kind": "kill_worker", "tenant": 0,
                           "slot": 3}
        assert "3 event(s)" in plan.describe()


class TestRegistry:
    def test_builtins_are_registered(self):
        assert available_faults() == {"kill_worker", "evict_tenant",
                                      "delay_deltas"}

    def test_custom_hook_fires_through_injector(self, monkeypatch):
        kind = "test_only_noop_hook"
        fired = []

        def _hook(ctx: FaultContext) -> str:
            fired.append(ctx.event.tick)
            return "custom hook ran"

        monkeypatch.setitem(FAULTS, kind, _hook)
        plan = FaultPlan(seed=0, ticks=3, events=(
            FaultEvent(tick=1, kind=kind, tenant=0),))
        injector = FaultInjector(plan)
        pool = make_pool()
        graph = make_graph()
        record = injector.fire(FaultContext(
            event=plan.events[0], pool=pool, graph=graph,
            schedule=DeltaSchedule()))
        assert fired == [1]
        assert record.note == "custom hook ran"
        assert injector.records == [record]

    def test_injector_rejects_unregistered_plan(self):
        plan = FaultPlan(seed=0, ticks=1, events=(
            FaultEvent(tick=0, kind="phantom", tenant=0),))
        with pytest.raises(ValueError, match="phantom"):
            FaultInjector(plan)


class TestBuiltinHooks:
    def fire(self, kind, pool, graph, schedule=None, tick=0, slot=0):
        event = FaultEvent(tick=tick, kind=kind, tenant=0, slot=slot)
        injector = FaultInjector(FaultPlan(seed=0, ticks=tick + 1,
                                           events=(event,)))
        return injector.fire(FaultContext(
            event=event, pool=pool, graph=graph,
            schedule=schedule or DeltaSchedule()))

    def test_kill_worker_is_noop_without_session(self):
        pool = make_pool()
        try:
            record = self.fire("kill_worker", pool, make_graph())
            assert "no live pooled session" in record.note
        finally:
            pool.clear()

    def test_kill_worker_is_noop_on_serial(self):
        pool = make_pool("serial")
        graph = make_graph()
        try:
            pool.infer(graph)
            record = self.fire("kill_worker", pool, graph)
            assert "serial substrate" in record.note
        finally:
            pool.clear()

    @pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
    def test_kill_worker_crashes_then_recovers_on_process_executor(self, backend):
        pool = make_pool("process", num_workers=2, backend=backend)
        fresh = make_pool("serial", num_workers=2, backend=backend)
        graph, reference = make_graph(), make_graph()
        rng = np.random.default_rng(4)
        deltas = [GraphDelta(node_ids=rows, node_features=rng.normal(size=(5, FEATURE_DIM)))
                  for rows in (rng.choice(80, 5, replace=False) for _ in range(2))]
        try:
            pool.infer(graph)
            pool.apply_delta(graph, deltas[0])
            pool.infer(graph, mode="incremental")       # primes the workers' state cache
            record = self.fire("kill_worker", pool, graph)
            assert "killed worker pid" in record.note
            # A dead worker takes its partition's state with it.  The next
            # execution observes the corpse and raises; the one after runs
            # on a respawned worker pool — in full, as nothing is cached —
            # and must equal a fresh session bit for bit.
            pool.apply_delta(graph, deltas[1])
            with pytest.raises(WorkerCrashError):
                pool.infer(graph, mode="incremental")
            after = pool.infer(graph, mode="incremental")
            for delta in deltas:
                apply_delta_to_graph(reference, delta)
            np.testing.assert_array_equal(after.scores, fresh.infer(reference).scores)
        finally:
            pool.clear()
            fresh.clear()

    @pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
    def test_plan_executor_finds_the_started_executor_and_starts_none(self, backend):
        pool = make_pool("process", num_workers=2, backend=backend)
        graph = make_graph()
        try:
            plan = pool.session_for(graph).plan
            assert plan_executor(plan) is None          # nothing run, nothing spawned
            pool.infer(graph)
            executor = plan_executor(plan)
            assert executor is not None and len(executor.live_processes()) == 2
        finally:
            pool.clear()
        assert executor.live_processes() == []
        assert plan_executor(None) is None

    def test_evict_tenant_drops_the_pool_entry(self):
        pool = make_pool()
        graph = make_graph()
        try:
            pool.infer(graph)
            assert graph in pool
            record = self.fire("evict_tenant", pool, graph)
            assert "evicted" in record.note
            assert graph not in pool
            again = self.fire("evict_tenant", pool, graph)
            assert "not cached" in again.note
        finally:
            pool.clear()

    def test_delay_deltas_marks_the_schedule(self):
        pool = make_pool()
        schedule = DeltaSchedule()
        self.fire("delay_deltas", pool, make_graph(), schedule=schedule,
                  tick=4)
        assert schedule.is_delayed(0, 4)
        assert not schedule.is_delayed(0, 5)
        assert not schedule.is_delayed(1, 4)
