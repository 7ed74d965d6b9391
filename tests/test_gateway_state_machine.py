"""Model-based test: any sequence of gateway calls scores as a fresh session.

A :class:`~hypothesis.stateful.RuleBasedStateMachine` drives one
:class:`~repro.serving.ServingGateway` over a
:class:`~repro.inference.SessionPool` with two tenant handles, on one event
loop that lives as long as the machine: feature and hub-preserving edge
deltas, bursts of them submitted at once with ``asyncio.gather``, full and
incremental infers, evictions, an infer cancelled while queued and, on the
process executor, a worker killed between ticks.  The model is the pool
machine's: a reference copy of each handle that every submitted delta also
lands on.  Every served result must equal a fresh ``prepare()+infer()`` on
the reference bit for bit, and the handle must equal its reference.  After a
kill the tenant's next infer may raise
:class:`~repro.cluster.executor.WorkerCrashError`; it must then be served
within :data:`MAX_ATTEMPTS` attempts.  Teardown closes the gateway with a
request still queued per tenant, and each must be served.

:class:`GatewayModel` is the machine without Hypothesis.  The soak
(``tests/test_streaming_soak.py``) drives the same operations from one seeded
generator for many ticks, through the gateway or through the bare pool.
"""

from __future__ import annotations

import asyncio
import os
import signal
import zlib
from collections import Counter
from typing import List, Optional, Sequence

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
from repro.inference import DeltaOutcome, GraphDelta, InferenceResult, SessionPool
from repro.inference.delta import apply_delta_to_graph
from repro.serving import ServingGateway
from tests.test_session_state_machine import (
    MODEL,
    edge_delta,
    feature_delta,
    fresh_scores,
    make_config,
    tiny_hub_graph,
)

#: An infer after a worker kill is tried at most this many times.
MAX_ATTEMPTS = 3
MODES = ("full", "incremental")
ARRAYS = ("src", "dst", "node_features")


class GatewayModel:
    """Two tenant handles served through a gateway (or the bare pool), every
    result checked against a fresh session on the tenant's reference."""

    def __init__(self, backend: str = "pregel", executor: str = "serial",
                 shadow_nodes: bool = True, use_gateway: bool = True) -> None:
        self.config = make_config(executor, backend, shadow_nodes)
        self.pool = SessionPool(MODEL, self.config, capacity=2)
        self.handles = [tiny_hub_graph(), tiny_hub_graph()]
        self.references = [tiny_hub_graph(), tiny_hub_graph()]
        # tenants whose next infer may meet a killed worker
        self.killed = [False, False]
        self.loop = asyncio.new_event_loop()
        self.gateway: Optional[ServingGateway] = None
        if use_gateway:
            self.gateway = ServingGateway(self.pool)
            for which, handle in enumerate(self.handles):
                self.gateway.register(str(which), handle)
        self.counts: Counter = Counter()
        #: the attempt that served each infer which met a crash
        self.attempts: List[int] = []
        #: CRC32 over every served score array, in serving order
        self.digest = 0

    def draw(self, rng: np.random.Generator, which: int, edges: bool) -> GraphDelta:
        """A delta drawn against the tenant's reference, and landed on it.
        Edge churn is balanced (three edges come, three go), so a long run
        keeps its quiet sources."""
        reference = self.references[which]
        delta = edge_delta(rng, reference, removed=3) if edges else feature_delta(rng, reference)
        apply_delta_to_graph(reference, delta)
        return delta

    def submit(self, which: int, deltas: Sequence[GraphDelta]) -> None:
        """One submission, or a burst of concurrent ones, in this order."""
        self.counts["deltas_issued"] += len(deltas)
        if self.gateway is None:
            outcomes = [self.pool.apply_delta(self.handles[which], delta, defer=True)
                        for delta in deltas]
        else:
            gateway = self.gateway

            async def burst() -> List[DeltaOutcome]:
                return await asyncio.gather(
                    *(gateway.submit_delta(str(which), delta) for delta in deltas))

            outcomes = self.loop.run_until_complete(burst())
        self.counts["deltas_delivered"] += sum(outcome.deferred for outcome in outcomes)

    def _infer_once(self, which: int, mode: str) -> InferenceResult:
        if self.gateway is None:
            return self.pool.infer(self.handles[which], mode=mode)
        return self.loop.run_until_complete(self.gateway.infer(str(which), mode=mode))

    def infer(self, which: int, mode: str) -> None:
        """One infer, tried again after a killed worker's crash."""
        self.counts["infers_issued"] += 1
        for attempt in range(1, MAX_ATTEMPTS + 1):
            try:
                result = self._infer_once(which, mode)
            except WorkerCrashError:
                assert self.killed[which], "a worker crashed that no rule killed"
                self.counts["crashes"] += 1
                if attempt == MAX_ATTEMPTS:
                    raise
                continue
            if attempt > 1:
                self.counts["recoveries"] += 1
                self.attempts.append(attempt)
            break
        self.served(which, result)

    def served(self, which: int, result: InferenceResult) -> None:
        handle, reference = self.handles[which], self.references[which]
        for name in ARRAYS:
            np.testing.assert_array_equal(getattr(handle, name), getattr(reference, name))
        np.testing.assert_array_equal(result.scores, fresh_scores(reference, self.config))
        self.killed[which] = False
        self.counts["infers_served"] += 1
        self.digest = zlib.crc32(np.ascontiguousarray(result.scores), self.digest)

    def evict(self, which: int) -> None:
        self.counts["evictions"] += self.pool.evict(self.handles[which])

    def kill_worker(self, which: int, slot: int) -> None:
        """SIGKILL one live worker of the tenant's plan: a no-op without a
        pooled plan or on the serial executor."""
        handle = self.handles[which]
        if handle not in self.pool:
            return
        executor = self.pool.session_for(handle).plan.state["engine"].started_executor
        live = [] if executor is None else executor.live_processes()
        if live:
            victim = live[slot % len(live)]
            os.kill(victim.pid, signal.SIGKILL)
            # The next run then meets the dead pipe rather than racing the kill.
            victim.join(timeout=10.0)
            self.killed[which] = True
            self.counts["kills"] += 1

    def cancel_queued_infer(self, which: int, mode: str) -> None:
        """An infer cancelled while it waits in the tenant's queue, which
        costs no tick; the tenant's next request is served, in one.  The
        bare pool has no queue, so there only the next request runs."""
        gateway = self.gateway
        if gateway is not None:
            ticks = gateway.tenant_stats(str(which)).ticks

            async def cancel() -> None:
                request = asyncio.ensure_future(gateway.infer(str(which), mode=mode))
                await asyncio.sleep(0)          # queued, not yet picked up
                assert gateway.tenant_stats(str(which)).queue_depth >= 1
                request.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await request

            self.loop.run_until_complete(cancel())
            self.counts["cancelled"] += 1
        self.infer(which, mode)
        if gateway is not None:
            assert gateway.tenant_stats(str(which)).ticks == ticks + 1

    def close(self) -> None:
        """Serve every tenant once more and release everything.  The gateway
        is closed with one request per tenant still queued: ``aclose()``
        serves them."""
        for which in (0, 1):
            if self.killed[which]:
                self.infer(which, "full")
        gateway = self.gateway
        if gateway is None:
            for which in (0, 1):
                self.infer(which, "incremental")
        else:
            async def close() -> List[InferenceResult]:
                queued = [asyncio.ensure_future(gateway.infer(str(which), mode="incremental"))
                          for which in (0, 1)]
                await asyncio.sleep(0)
                await gateway.aclose()
                assert all(request.done() for request in queued)
                return [request.result() for request in queued]

            self.counts["infers_issued"] += 2
            for which, result in enumerate(self.loop.run_until_complete(close())):
                self.served(which, result)
        self.release()

    def release(self) -> None:
        """Close the gateway and the pool and the loop (idempotent)."""
        if self.loop.is_closed():
            return
        try:
            if self.gateway is not None:
                self.loop.run_until_complete(self.gateway.aclose())
        finally:
            self.pool.clear()
            self.loop.close()
        assert all(getattr(handle, name).flags.writeable
                   for handle in self.handles for name in ARRAYS)


HANDLES = st.integers(0, 1)
SEEDS = st.integers(0, 2**16)


class GatewayMachine(RuleBasedStateMachine):
    backend = "pregel"
    executor = "serial"

    def __init__(self) -> None:
        super().__init__()
        self.model = GatewayModel(self.backend, self.executor)

    @rule(which=HANDLES, seed=SEEDS, edges=st.booleans())
    def submit_delta(self, which, seed, edges):
        self.model.submit(which, [self.model.draw(np.random.default_rng(seed), which, edges)])

    @rule(which=HANDLES, seed=SEEDS, kinds=st.lists(st.booleans(), min_size=2, max_size=4))
    def burst(self, which, seed, kinds):
        rng = np.random.default_rng(seed)
        self.model.submit(which, [self.model.draw(rng, which, edges) for edges in kinds])

    @rule(which=HANDLES, mode=st.sampled_from(MODES))
    def infer(self, which, mode):
        self.model.infer(which, mode)

    @rule(which=HANDLES)
    def evict_tenant(self, which):
        self.model.evict(which)

    @precondition(lambda self: self.executor == "process")
    @rule(which=HANDLES, slot=st.integers(0, 1))
    def kill_worker(self, which, slot):
        self.model.kill_worker(which, slot)

    @rule(which=HANDLES, mode=st.sampled_from(MODES))
    def cancel_queued_infer(self, which, mode):
        self.model.cancel_queued_infer(which, mode)

    def teardown(self) -> None:
        try:
            self.model.close()
        finally:
            self.model.release()


@pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
@pytest.mark.parametrize("executor", ["serial", "process"])
def test_any_gateway_call_sequence_scores_as_a_fresh_session(executor, backend):
    machine = type(f"GatewayMachine_{executor}_{backend}", (GatewayMachine,),
                   {"executor": executor, "backend": backend})
    run_state_machine_as_test(machine, settings=settings(
        max_examples=20, stateful_step_count=10, deadline=None,
        suppress_health_check=[HealthCheck.too_slow]))
