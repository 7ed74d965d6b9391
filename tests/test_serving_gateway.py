"""Gateway semantics: batching, coalescing, overlap, admission, metrics.

The contracts under test, each against the layers below rather than mocks:

* **Sequential equivalence** — an interleaved delta/infer sequence issued
  through the gateway (awaited in order) returns results bit-identical to
  the same sequence issued directly against a bare ``SessionPool``, on
  pregel and on mapreduce.
  The suite runs under whatever executor ``$REPRO_EXECUTOR`` selects, so the
  CI matrix covers both ``serial`` and ``process``.
* **Batching** — N concurrent same-mode requests for one tenant are served
  by one plan-cache-hit execution (every waiter receives the same result).
* **Overlap** — a delta submitted while a tick is executing is *not* seen by
  that tick; it lands in the next tick's one coalesced flush.
* **Admission** — a request beyond ``max_queue_depth`` raises ``Overloaded``
  with a positive ``retry_after`` and provably leaves pool state untouched.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import signal
import threading

import numpy as np
import pytest

from repro.cluster.executor import WorkerCrashError, available_executors
from repro.gnn.model import build_model
from repro.graph.generators import powerlaw_graph
from repro.inference import (
    GatewayConfig,
    GraphDelta,
    InferenceConfig,
    InferenceSession,
    SessionPool,
    StrategyConfig,
)
from repro.inference.delta import apply_delta_to_graph
from repro.serving import Overloaded, ServingGateway, admission

FEATURE_DIM = 8
NUM_CLASSES = 4


def make_graph(seed: int, num_nodes: int = 300):
    return powerlaw_graph(num_nodes=num_nodes, avg_degree=4.0, skew="out",
                          feature_dim=FEATURE_DIM, num_classes=NUM_CLASSES,
                          seed=seed)


def make_config(backend: str = "pregel") -> InferenceConfig:
    return InferenceConfig(backend=backend, num_workers=4,
                           strategies=StrategyConfig(partial_gather=True,
                                                     broadcast=True,
                                                     shadow_nodes=True,
                                                     hub_threshold_override=20))


def make_model():
    return build_model("gcn", FEATURE_DIM, 16, NUM_CLASSES, num_layers=2, seed=0)


def random_ops(rng: np.random.Generator, graph, num_ops: int):
    """An interleaved tenant stream: feature deltas, edge churn, infers."""
    num_nodes = graph.num_nodes
    num_edges = graph.num_edges          # tracks the virtual post-delta count
    ops = []
    for _ in range(num_ops):
        kind = rng.choice(["feature", "edges", "infer", "infer_incr"],
                          p=[0.35, 0.15, 0.3, 0.2])
        if kind == "feature":
            size = int(rng.integers(1, 8))
            ids = rng.choice(num_nodes, size=size, replace=False)
            ops.append(("delta", GraphDelta(
                node_ids=ids,
                node_features=rng.standard_normal((size, FEATURE_DIM)))))
        elif kind == "edges":
            add = int(rng.integers(1, 5))
            remove = min(int(rng.integers(0, 3)), num_edges - 1)
            removed = (rng.choice(num_edges, size=remove, replace=False)
                       if remove else None)
            ops.append(("delta", GraphDelta(
                added_src=rng.integers(0, num_nodes, size=add),
                added_dst=rng.integers(0, num_nodes, size=add),
                removed_edge_ids=removed)))
            num_edges += add - remove
        elif kind == "infer":
            ops.append(("infer", "full"))
        else:
            ops.append(("infer", "incremental"))
    ops.append(("infer", "full"))        # always end on a comparable result
    return ops


async def replay_through_gateway(gateway, tenant_id, ops):
    results = []
    for op, payload in ops:
        if op == "delta":
            await gateway.submit_delta(tenant_id, payload)
        else:
            results.append(await gateway.infer(tenant_id, mode=payload))
    return results


def replay_through_pool(pool, graph, ops):
    results = []
    for op, payload in ops:
        if op == "delta":
            pool.apply_delta(graph, payload, defer=True)
        else:
            results.append(pool.infer(graph, mode=payload))
    return results


class TestSequentialEquivalence:
    @pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
    def test_gateway_matches_bare_pool(self, backend):
        # Property test: the same interleaved per-tenant stream through the
        # gateway and through a bare pool must agree result for result.
        model = make_model()
        for seed in range(3):
            rng = np.random.default_rng(seed)
            gateway_graph = make_graph(seed + 40)
            pool_graph = make_graph(seed + 40)       # same content, own arrays
            ops = random_ops(rng, gateway_graph, num_ops=12)

            async def gateway_side():
                pool = SessionPool(model, make_config(backend), capacity=4)
                async with ServingGateway(pool) as gateway:
                    gateway.register("tenant", gateway_graph)
                    return await replay_through_gateway(gateway, "tenant", ops)

            gateway_results = asyncio.run(gateway_side())
            bare_pool = SessionPool(model, make_config(backend), capacity=4)
            pool_results = replay_through_pool(bare_pool, pool_graph, ops)

            assert len(gateway_results) == len(pool_results)
            for index, (via_gateway, via_pool) in enumerate(
                    zip(gateway_results, pool_results)):
                np.testing.assert_array_equal(
                    via_gateway.scores, via_pool.scores,
                    err_msg=f"seed {seed}, infer #{index}")

    def test_multi_tenant_streams_stay_isolated(self):
        # Two tenants with different streams through ONE gateway/pool equal
        # their dedicated bare-pool replays.
        model = make_model()
        streams = {}
        for tenant, seed in (("a", 50), ("b", 51)):
            rng = np.random.default_rng(seed)
            graph = make_graph(seed)
            streams[tenant] = (graph, make_graph(seed),
                              random_ops(rng, graph, num_ops=8))

        async def gateway_side():
            pool = SessionPool(model, make_config(), capacity=4)
            async with ServingGateway(pool) as gateway:
                for tenant, (graph, _, _) in streams.items():
                    gateway.register(tenant, graph)
                # Interleave the two tenants' replays concurrently.
                return await asyncio.gather(*(
                    replay_through_gateway(gateway, tenant, ops)
                    for tenant, (_, _, ops) in streams.items()))

        gateway_results = dict(zip(streams, asyncio.run(gateway_side())))
        for tenant, (_, reference_graph, ops) in streams.items():
            reference_pool = SessionPool(model, make_config(), capacity=4)
            reference = replay_through_pool(reference_pool, reference_graph, ops)
            for via_gateway, via_pool in zip(gateway_results[tenant], reference):
                np.testing.assert_array_equal(via_gateway.scores, via_pool.scores)


class TestBatching:
    def test_concurrent_requests_served_by_one_execution(self):
        model = make_model()
        graph = make_graph(60)

        async def run():
            pool = SessionPool(model, make_config(), capacity=2)
            async with ServingGateway(pool) as gateway:
                gateway.register("tenant", graph)
                await gateway.warm("tenant")         # plan off the hot path
                session = pool.session_for(graph)
                runs_before = session.num_runs
                results = await asyncio.gather(*(gateway.infer("tenant")
                                                 for _ in range(10)))
                stats = gateway.tenant_stats("tenant")
                return session.num_runs - runs_before, results, stats

        executions, results, stats = asyncio.run(run())
        # All ten admitted before the first tick could drain the queue, so
        # they collapse into one (at most two, if the loop squeezed a tick in
        # between admissions) plan-cache-hit executions.
        assert executions <= 2
        assert stats.requests == 10 and stats.ticks == executions
        # Each tick produces one shared InferenceResult object for its batch.
        assert len({id(result) for result in results}) == executions
        assert stats.batching_factor >= 5.0

    def test_mode_change_splits_the_batch(self):
        model = make_model()
        graph = make_graph(61)

        async def run():
            pool = SessionPool(model, make_config(), capacity=2)
            async with ServingGateway(pool) as gateway:
                gateway.register("tenant", graph)
                await gateway.warm("tenant")
                modes = ["full", "full", "incremental", "incremental", "full"]
                await asyncio.gather(*(gateway.infer("tenant", mode=mode)
                                       for mode in modes))
                return gateway.tenant_stats("tenant")

        stats = asyncio.run(run())
        # FIFO same-mode prefixes: full x2, incremental x2, full — at most 3
        # ticks (fewer only if admissions straddled a running tick).
        assert 1 <= stats.ticks <= 3
        assert stats.requests == 5


class _GatedBackend:
    """Delegating backend spy whose execute() blocks until released."""

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name
        self.entered = threading.Event()   # set when an execute begins
        self.resume = threading.Event()   # execute waits for this

    def default_cluster(self, num_workers):
        return self._inner.default_cluster(num_workers)

    def plan(self, model, graph, config):
        return self._inner.plan(model, graph, config)

    def execute(self, plan, metrics):
        self.entered.set()
        assert self.resume.wait(timeout=30), "gated execute never released"
        return self._inner.execute(plan, metrics)

    def release(self, plan):
        return self._inner.release(plan)

    def apply_delta(self, plan, delta):
        return self._inner.apply_delta(plan, delta)

    def execute_incremental(self, plan, metrics, feature_dirty, topo_dirty):
        return self._inner.execute_incremental(plan, metrics,
                                               feature_dirty, topo_dirty)


class TestOverlap:
    def test_delta_submitted_mid_tick_lands_in_next_tick(self):
        # Hold tick N open with a gated backend, submit a delta while it
        # executes, and check: tick N serves pre-delta scores, tick N+1
        # serves post-delta scores — the coalesced next-flush contract.
        model = make_model()
        graph = make_graph(62)
        reference_before = make_graph(62)
        reference_after = make_graph(62)
        rng = np.random.default_rng(3)
        ids = rng.choice(graph.num_nodes, size=6, replace=False)
        rows = rng.standard_normal((6, FEATURE_DIM))
        delta = GraphDelta(node_ids=ids, node_features=rows)

        async def run():
            pool = SessionPool(model, make_config(), capacity=2)
            async with ServingGateway(pool) as gateway:
                gateway.register("tenant", graph)
                await gateway.warm("tenant")
                session = pool.session_for(graph)
                gate = _GatedBackend(session.backend)
                session.backend = gate

                tick_n = asyncio.create_task(gateway.infer("tenant"))
                # Wait (off-loop) until tick N is provably executing.
                await asyncio.get_running_loop().run_in_executor(
                    None, gate.entered.wait, 30)
                # The delta applies *while* tick N runs — deferred buffering
                # may overlap execution; it must not be visible to tick N.
                await gateway.submit_delta("tenant", delta)
                assert session.num_pending_deltas == 1
                gate.resume.set()
                before = await tick_n
                after = await gateway.infer("tenant")
                assert session.num_pending_deltas == 0
                return before, after

        before, after = asyncio.run(run())

        solo = SessionPool(model, make_config(), capacity=2)
        np.testing.assert_array_equal(before.scores,
                                      solo.infer(reference_before).scores)
        reference_after.node_features[ids] = rows
        solo_after = SessionPool(model, make_config(), capacity=2)
        np.testing.assert_array_equal(after.scores,
                                      solo_after.infer(reference_after).scores)
        assert not np.array_equal(before.scores, after.scores)


def _gate_tenant(pool, graph) -> _GatedBackend:
    """Hold the tenant's next execute until ``gate.resume`` is set."""
    session = pool.session_for(graph)
    gate = _GatedBackend(session.backend)
    session.backend = gate
    return gate


async def _until_executing(gate: _GatedBackend) -> None:
    await asyncio.get_running_loop().run_in_executor(None, gate.entered.wait, 30)


class _CountPatches:
    """Delegating backend counting the plan patches (flushes that landed)."""

    def __init__(self, inner):
        self.inner = inner
        self.patches = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def apply_delta(self, plan, delta):
        self.patches += 1
        return self.inner.apply_delta(plan, delta)


class _RaiseOnce:
    """Delegating backend whose first execute raises."""

    def __init__(self, inner):
        self.inner = inner
        self.raised = False

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def execute(self, plan, metrics):
        if not self.raised:
            self.raised = True
            raise RuntimeError("tick failed")
        return self.inner.execute(plan, metrics)


class TestCancellationAndClose:
    """A caller that gives up, a tick that fails and a gateway closed with
    requests queued: each tenant keeps serving scores equal to a fresh run."""

    @staticmethod
    def fresh(seed: int, backend: str = "pregel") -> np.ndarray:
        return InferenceSession(make_model(), make_config(backend)).infer(
            make_graph(seed)).scores

    @pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
    def test_a_cancelled_queued_request_leaves_its_batchmate_and_the_tenant_serving(
            self, backend):
        graph = make_graph(90)

        async def run():
            pool = SessionPool(make_model(), make_config(backend), capacity=2)
            async with ServingGateway(pool) as gateway:
                gateway.register("tenant", graph)
                await gateway.warm("tenant")
                gate = _gate_tenant(pool, graph)
                running = asyncio.create_task(gateway.infer("tenant"))
                await _until_executing(gate)
                cancelled = asyncio.create_task(gateway.infer("tenant"))
                batchmate = asyncio.create_task(gateway.infer("tenant"))
                await asyncio.sleep(0)
                assert gateway.tenant_stats("tenant").queue_depth == 3
                cancelled.cancel()
                gate.resume.set()
                with pytest.raises(asyncio.CancelledError):
                    await cancelled
                results = [await running, await batchmate, await gateway.infer("tenant")]
                assert gateway.tenant_stats("tenant").queue_depth == 0
                return results

        for result in asyncio.run(run()):
            np.testing.assert_array_equal(result.scores, self.fresh(90, backend))

    def test_a_batch_whose_every_waiter_was_cancelled_runs_no_tick(self):
        """The only request queued behind a running tick is cancelled: once
        the gateway has drained, the tenant ran that one tick, not a second
        one for nobody."""
        graph = make_graph(93)

        async def run():
            pool = SessionPool(make_model(), make_config(), capacity=2)
            async with ServingGateway(pool) as gateway:
                gateway.register("tenant", graph)
                await gateway.warm("tenant")
                session = pool.session_for(graph)
                before = (session.num_runs, gateway.tenant_stats("tenant").ticks)
                gate = _gate_tenant(pool, graph)
                running = asyncio.create_task(gateway.infer("tenant"))
                await _until_executing(gate)
                cancelled = asyncio.create_task(gateway.infer("tenant"))
                await asyncio.sleep(0)
                assert gateway.tenant_stats("tenant").queue_depth == 2
                cancelled.cancel()
                gate.resume.set()
                with pytest.raises(asyncio.CancelledError):
                    await cancelled
                result = await running
            # closing waited for the tenant's loop to drain its queue
            after = (session.num_runs, gateway.tenant_stats("tenant").ticks)
            return result, [now - then for now, then in zip(after, before)]

        result, rise = asyncio.run(run())
        assert rise == [1, 1]
        np.testing.assert_array_equal(result.scores, self.fresh(93))

    def test_a_request_cancelled_mid_tick_leaves_the_tenant_serving(self):
        graph = make_graph(91)
        delta = GraphDelta(node_ids=np.array([3]), node_features=np.ones((1, FEATURE_DIM)))

        async def run():
            pool = SessionPool(make_model(), make_config(), capacity=2)
            async with ServingGateway(pool) as gateway:
                gateway.register("tenant", graph)
                await gateway.warm("tenant")
                gate = _gate_tenant(pool, graph)
                running = asyncio.create_task(gateway.infer("tenant"))
                await _until_executing(gate)
                running.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await running
                await gateway.submit_delta("tenant", delta)
                gate.resume.set()
                return await gateway.infer("tenant", mode="incremental")

        result = asyncio.run(run())
        reference = make_graph(91)
        apply_delta_to_graph(reference, delta)
        np.testing.assert_array_equal(
            result.scores, InferenceSession(make_model(), make_config()).infer(reference).scores)

    @pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
    def test_aclose_serves_requests_queued_behind_a_running_tick(self, backend):
        graph = make_graph(92)
        delta = GraphDelta(node_ids=np.array([1]), node_features=np.ones((1, FEATURE_DIM)))

        async def run():
            pool = SessionPool(make_model(), make_config(backend), capacity=2)
            gateway = ServingGateway(pool)
            gateway.register("tenant", graph)
            await gateway.warm("tenant")
            gate = _gate_tenant(pool, graph)
            requests = [asyncio.create_task(gateway.infer("tenant"))]
            await _until_executing(gate)
            requests += [asyncio.create_task(gateway.infer("tenant", mode=mode))
                         for mode in ("full", "incremental")]
            await asyncio.sleep(0)
            closing = asyncio.create_task(gateway.aclose())
            await asyncio.sleep(0)
            with pytest.raises(RuntimeError, match="closed"):
                await gateway.infer("tenant")
            with pytest.raises(RuntimeError, match="closed"):
                await gateway.submit_delta("tenant", delta)
            gate.resume.set()
            await closing
            assert all(request.done() for request in requests)
            return [request.result() for request in requests]

        for result in asyncio.run(run()):
            np.testing.assert_array_equal(result.scores, self.fresh(92, backend))

    def test_a_failed_tick_fails_its_batch_and_the_tenant_serves_on(self):
        graph = make_graph(93)

        async def run():
            pool = SessionPool(make_model(), make_config(), capacity=2)
            async with ServingGateway(pool) as gateway:
                gateway.register("tenant", graph)
                await gateway.warm("tenant")
                session = pool.session_for(graph)
                session.backend = _RaiseOnce(session.backend)
                first = await asyncio.gather(*(gateway.infer("tenant") for _ in range(3)),
                                             return_exceptions=True)
                return first, await gateway.infer("tenant")

        first, after = asyncio.run(run())
        failed = [outcome for outcome in first if isinstance(outcome, Exception)]
        assert failed and all(str(error) == "tick failed" for error in failed)
        for result in [outcome for outcome in first if outcome not in failed] + [after]:
            np.testing.assert_array_equal(result.scores, self.fresh(93))

    def test_a_burst_of_concurrent_deltas_lands_in_submission_order(self):
        # Each delta removes the edge the one before it appended and rewrites
        # the same row: only submission order gives the reference's graph.
        graph = make_graph(94)
        base = graph.num_edges
        deltas = [GraphDelta(node_ids=np.array([7]),
                             node_features=np.full((1, FEATURE_DIM), float(step)),
                             added_src=np.array([step]), added_dst=np.array([step + 1]),
                             removed_edge_ids=None if step == 0 else np.array([base]))
                  for step in range(4)]

        async def run():
            pool = SessionPool(make_model(), make_config(), capacity=2)
            async with ServingGateway(pool) as gateway:
                gateway.register("tenant", graph)
                await gateway.warm("tenant")
                outcomes = await asyncio.gather(
                    *(gateway.submit_delta("tenant", delta) for delta in deltas))
                assert [outcome.reason.split(";")[0] for outcome in outcomes] == [
                    f"buffered ({count} pending)" for count in range(1, len(deltas) + 1)]
                return await gateway.infer("tenant", mode="incremental")

        result = asyncio.run(run())
        reference = make_graph(94)
        for delta in deltas:
            apply_delta_to_graph(reference, delta)
        np.testing.assert_array_equal(graph.src, reference.src)
        np.testing.assert_array_equal(
            result.scores, InferenceSession(make_model(), make_config()).infer(reference).scores)


    def test_a_burst_lands_as_one_flush(self):
        graph = make_graph(95)
        rng = np.random.default_rng(95)
        deltas = [GraphDelta(node_ids=rng.choice(graph.num_nodes, size=3, replace=False),
                             node_features=rng.standard_normal((3, FEATURE_DIM)))
                  for _ in range(3)]

        async def run():
            pool = SessionPool(make_model(), make_config(), capacity=2)
            async with ServingGateway(pool) as gateway:
                gateway.register("tenant", graph)
                await gateway.warm("tenant")
                session = pool.session_for(graph)
                spy = session.backend = _CountPatches(session.backend)
                await asyncio.gather(*(gateway.submit_delta("tenant", delta)
                                       for delta in deltas))
                result = await gateway.infer("tenant", mode="incremental")
                return spy.patches, result

        patches, result = asyncio.run(run())
        reference = make_graph(95)
        for delta in deltas:
            apply_delta_to_graph(reference, delta)
        assert patches == 1
        np.testing.assert_array_equal(
            result.scores, InferenceSession(make_model(), make_config()).infer(reference).scores)

    @pytest.mark.skipif("process" not in available_executors(),
                        reason="process executor unavailable")
    @pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
    def test_a_worker_crash_reaches_its_callers_and_the_next_tick_respawns(self, backend):
        graph = make_graph(96)
        config = dataclasses.replace(make_config(backend), executor="process")

        async def run():
            pool = SessionPool(make_model(), config, capacity=2)
            try:
                async with ServingGateway(pool) as gateway:
                    gateway.register("tenant", graph)
                    before = await gateway.infer("tenant")
                    engine = pool.session_for(graph).plan.state["engine"]
                    victim = engine.started_executor.live_processes()[0]
                    os.kill(victim.pid, signal.SIGKILL)
                    victim.join(timeout=10.0)
                    with pytest.raises(WorkerCrashError):
                        await gateway.infer("tenant")
                    return before, await gateway.infer("tenant", mode="incremental")
            finally:
                pool.clear()

        before, after = asyncio.run(run())
        np.testing.assert_array_equal(after.scores, before.scores)
        np.testing.assert_array_equal(after.scores, self.fresh(96, backend))


class TestAdmission:
    def test_overloaded_rejection_leaves_pool_untouched(self):
        model = make_model()
        graph = make_graph(63)

        async def run():
            pool = SessionPool(model, make_config(), capacity=2)
            config = GatewayConfig(max_queue_depth=2, max_batch=1)
            async with ServingGateway(pool, config) as gateway:
                gateway.register("tenant", graph)
                await gateway.warm("tenant")
                session = pool.session_for(graph)
                gate = _GatedBackend(session.backend)
                session.backend = gate

                # One executing + one queued fills depth 2 (max_batch=1 keeps
                # the second request queued instead of batched).
                in_flight = [asyncio.create_task(gateway.infer("tenant"))
                             for _ in range(2)]
                await asyncio.get_running_loop().run_in_executor(
                    None, gate.entered.wait, 30)
                stats_before = pool.stats
                sessions_before = list(pool.sessions())

                with pytest.raises(Overloaded) as excinfo:
                    await gateway.infer("tenant")

                # The rejected request touched no pool state.
                stats_after = pool.stats
                assert list(pool.sessions()) == sessions_before
                assert graph in pool
                assert (stats_after.hits, stats_after.misses,
                        stats_after.evictions) == (stats_before.hits,
                                                   stats_before.misses,
                                                   stats_before.evictions)
                gate.resume.set()
                await asyncio.gather(*in_flight)
                return excinfo.value, gateway.tenant_stats("tenant")

        overloaded, stats = asyncio.run(run())
        assert overloaded.retry_after > 0
        assert overloaded.queue_depth == 2
        assert stats.rejections == 1
        assert stats.requests == 2          # the rejected one never admitted

    def test_queue_drains_and_admits_again(self):
        model = make_model()
        graph = make_graph(64)

        async def run():
            pool = SessionPool(model, make_config(), capacity=2)
            config = GatewayConfig(max_queue_depth=1, max_batch=1)
            async with ServingGateway(pool, config) as gateway:
                gateway.register("tenant", graph)
                first = await gateway.infer("tenant")     # drains immediately
                second = await gateway.infer("tenant")    # admitted again
                return first, second

        first, second = asyncio.run(run())
        np.testing.assert_array_equal(first.scores, second.scores)


class TestLifecycleAndMetrics:
    def test_unknown_tenant_and_double_registration(self):
        model = make_model()

        async def run():
            pool = SessionPool(model, make_config(), capacity=2)
            async with ServingGateway(pool) as gateway:
                gateway.register("tenant", make_graph(65))
                with pytest.raises(ValueError, match="already registered"):
                    gateway.register("tenant", make_graph(65))
                with pytest.raises(KeyError, match="unknown tenant"):
                    await gateway.infer("nobody")
                with pytest.raises(TypeError, match="Graph"):
                    gateway.register("tables", object())
                with pytest.raises(ValueError, match="mode"):
                    await gateway.infer("tenant", mode="sideways")

        asyncio.run(run())

    def test_closed_gateway_rejects_new_work(self):
        model = make_model()
        graph = make_graph(66)

        async def run():
            pool = SessionPool(model, make_config(), capacity=2)
            gateway = ServingGateway(pool)
            gateway.register("tenant", graph)
            result = await gateway.infer("tenant")
            await gateway.aclose()
            with pytest.raises(RuntimeError, match="closed"):
                await gateway.infer("tenant")
            with pytest.raises(RuntimeError, match="closed"):
                gateway.register("late", make_graph(67))
            return result

        assert asyncio.run(run()).scores.shape[0] == graph.num_nodes

    def test_warm_plans_once_and_requests_hit_its_plan(self):
        model = make_model()
        graph = make_graph(64)

        async def run():
            pool = SessionPool(model, make_config(), capacity=2)
            async with ServingGateway(pool) as gateway:
                gateway.register("tenant", graph)
                await gateway.warm("tenant")
                warmed = pool.stats
                session = pool.session_for(graph)
                await gateway.warm("tenant")          # already planned: a hit
                await gateway.infer("tenant")
                return warmed, pool.stats, session, pool.session_for(graph)

        warmed, final, session, serving = asyncio.run(run())
        assert (warmed.hits, warmed.misses) == (0, 1)
        assert final.misses == 1 and final.hits >= 3
        assert serving is session and session.num_replans == 0

    def test_snapshot_is_consistent(self):
        model = make_model()

        async def run():
            pool = SessionPool(model, make_config(), capacity=4)
            async with ServingGateway(pool) as gateway:
                gateway.register("a", make_graph(68))
                gateway.register("b", make_graph(69))
                await gateway.map(["a", "b"])
                await gateway.submit_delta("a", GraphDelta(
                    node_ids=np.array([0, 1]),
                    node_features=np.zeros((2, FEATURE_DIM))))
                await gateway.infer("a", mode="incremental")
                return gateway.snapshot()

        snapshot = asyncio.run(run())
        assert snapshot.requests == 3 and snapshot.deltas == 1
        assert snapshot.ticks >= 2
        assert snapshot.pool["hits"] + snapshot.pool["misses"] > 0
        assert 0.0 <= snapshot.p50_tick_seconds <= snapshot.p99_tick_seconds
        tenant_a = next(t for t in snapshot.tenants if t.tenant_id == "a")
        assert tenant_a.requests == 2 and tenant_a.deltas == 1
        # Percentiles come from the session's own measured latency samples.
        assert tenant_a.p50_tick_seconds > 0
        assert snapshot.describe().startswith("gateway:")


class TestFaultPaths:
    """Serving-tier failure paths: eviction races and overload hints."""

    def test_delta_submitted_after_eviction_still_lands(self):
        # Evicting the tenant's pooled session between requests must not
        # lose a subsequently submitted delta: apply_delta mirrors onto the
        # registered graph handle, so the re-prepared session sees it.
        model = make_model()
        graph = make_graph(70)
        reference = make_graph(70)
        rng = np.random.default_rng(17)
        ids = rng.choice(graph.num_nodes, size=5, replace=False)
        rows = rng.standard_normal((5, FEATURE_DIM))

        async def run():
            pool = SessionPool(model, make_config(), capacity=2)
            async with ServingGateway(pool) as gateway:
                gateway.register("tenant", graph)
                await gateway.warm("tenant")
                assert pool.evict(graph)
                await gateway.submit_delta("tenant", GraphDelta(
                    node_ids=ids, node_features=rows))
                return await gateway.infer("tenant")

        result = asyncio.run(run())
        reference.node_features[ids] = rows
        solo = SessionPool(model, make_config(), capacity=2)
        np.testing.assert_array_equal(result.scores,
                                      solo.infer(reference).scores)

    def test_delta_stream_survives_racing_evictions(self):
        # Hammer the same race from a second thread: evictions fire
        # concurrently with submit_delta/infer traffic, and at the end the
        # tenant's scores must equal a never-evicted reference that applied
        # the identical delta sequence.
        model = make_model()
        graph = make_graph(71)
        reference = make_graph(71)
        rng = np.random.default_rng(23)
        deltas = []
        for _ in range(12):
            ids = rng.choice(graph.num_nodes, size=4, replace=False)
            deltas.append((ids, rng.standard_normal((4, FEATURE_DIM))))

        async def run():
            pool = SessionPool(model, make_config(), capacity=2)
            loop = asyncio.get_running_loop()
            async with ServingGateway(pool) as gateway:
                gateway.register("tenant", graph)
                await gateway.warm("tenant")
                for index, (ids, rows) in enumerate(deltas):
                    evictor = loop.run_in_executor(None, pool.evict, graph)
                    await gateway.submit_delta("tenant", GraphDelta(
                        node_ids=ids, node_features=rows))
                    await evictor
                    if index % 3 == 2:
                        await gateway.infer("tenant")
                return await gateway.infer("tenant")

        result = asyncio.run(run())
        for ids, rows in deltas:
            reference.node_features[ids] = rows
        solo = SessionPool(model, make_config(), capacity=2)
        np.testing.assert_array_equal(result.scores,
                                      solo.infer(reference).scores)

    def test_retry_after_reflects_queue_depth_and_latency(self, monkeypatch):
        # With latency history the hint is ceil(depth / max_batch) * mean
        # tick latency (the default floor is pinned tiny so the estimate,
        # not the fallback, is under test).
        monkeypatch.setattr(admission, "DEFAULT_RETRY_AFTER_SECONDS", 1e-9)
        model = make_model()
        graph = make_graph(72)

        async def run():
            pool = SessionPool(model, make_config(), capacity=2)
            config = GatewayConfig(max_queue_depth=2, max_batch=1)
            async with ServingGateway(pool, config) as gateway:
                gateway.register("tenant", graph)
                await gateway.warm("tenant")
                await gateway.infer("tenant")
                await gateway.infer("tenant")
                mean_before = gateway.tenant_stats("tenant").mean_tick_seconds
                assert mean_before > 0

                session = pool.session_for(graph)
                gate = _GatedBackend(session.backend)
                session.backend = gate
                in_flight = [asyncio.create_task(gateway.infer("tenant"))
                             for _ in range(2)]
                await asyncio.get_running_loop().run_in_executor(
                    None, gate.entered.wait, 30)
                with pytest.raises(Overloaded) as excinfo:
                    await gateway.infer("tenant")
                gate.resume.set()
                await asyncio.gather(*in_flight)
                return excinfo.value, mean_before

        overloaded, mean_before = asyncio.run(run())
        # depth 2, max_batch 1 -> two ticks to drain, each ~mean_before.
        assert overloaded.retry_after == pytest.approx(2 * mean_before)
        assert overloaded.queue_depth == 2

    def test_retry_after_falls_back_before_any_history(self, monkeypatch):
        monkeypatch.setattr(admission, "DEFAULT_RETRY_AFTER_SECONDS", 0.25)
        model = make_model()
        graph = make_graph(73)

        async def run():
            pool = SessionPool(model, make_config(), capacity=2)
            config = GatewayConfig(max_queue_depth=1, max_batch=1)
            async with ServingGateway(pool, config) as gateway:
                gateway.register("tenant", graph)
                await gateway.warm("tenant")      # warms the plan, no sample
                session = pool.session_for(graph)
                gate = _GatedBackend(session.backend)
                session.backend = gate
                blocked = asyncio.create_task(gateway.infer("tenant"))
                await asyncio.get_running_loop().run_in_executor(
                    None, gate.entered.wait, 30)
                with pytest.raises(Overloaded) as excinfo:
                    await gateway.infer("tenant")
                gate.resume.set()
                await blocked
                return excinfo.value

        overloaded = asyncio.run(run())
        assert overloaded.retry_after == pytest.approx(0.25)
