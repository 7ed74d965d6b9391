"""The asyncio serving gateway: concurrent multi-tenant requests over a pool.

``SessionPool`` gave the serving tier its plan cache; this module gives it a
**request front-end**.  :class:`ServingGateway` accepts concurrent tenant
traffic — interleaved :class:`~repro.inference.delta.GraphDelta` submissions
and infer requests — and turns it into the pool's efficient shape:

* **per-tenant queues, batched ticks** — all infer requests a tenant has
  pending (same mode) are served by **one** plan-cache-hit execution; ten
  concurrent dashboard refreshes cost one backend run, not ten;
* **delta coalescing** — deltas are folded into the owning session's
  :class:`~repro.inference.delta.DeltaBuffer` the moment they arrive
  (``pool.apply_delta(..., defer=True)``); the next tick flushes them as one
  merged plan patch;
* **overlap** — tick execution runs on a worker-thread pool (the backend's
  ``process`` executor does the real compute off-GIL in worker processes),
  so while tick N executes, the event loop keeps admitting requests and
  coalescing tick N+1's deltas, and other tenants' ticks run in parallel;
* **admission control** — each tenant's queue is bounded; a request beyond
  ``max_queue_depth`` is rejected with :class:`~repro.serving.admission.Overloaded`
  (carrying a drain-time ``retry_after`` hint) *before* touching pool state;
* **metrics** — per-tenant :class:`~repro.serving.metrics.TenantStats`
  (p50/p99 tick latency sampled from the session's own
  ``InferenceResult.elapsed_seconds``) and a gateway-level
  :class:`~repro.serving.metrics.GatewaySnapshot`.

Consistency model: requests and deltas of one tenant are processed in
arrival order; a tick's execution reflects every delta folded before its
flush — at minimum all deltas the tenant awaited before submitting the
request, possibly fresher ones that arrived while the request queued
(serving freshness, never staleness).  A delta submitted *while* a tick
executes lands in the **next** tick's coalesced flush — results are always
identical to the same submit/await sequence issued one call at a time
against a bare pool.

Typical flow::

    async with ServingGateway(pool) as gateway:
        gateway.register("tenant-a", graph_a)
        gateway.register("tenant-b", graph_b)
        scores = (await gateway.infer("tenant-a")).scores
        await gateway.submit_delta("tenant-a", delta)
        results = await gateway.map(["tenant-a", "tenant-b"])   # concurrent
        print(gateway.snapshot().describe())
"""

from __future__ import annotations

import asyncio
import functools
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, Iterable, List, Optional

if TYPE_CHECKING:  # runtime import is deferred until the first tick
    from concurrent.futures import ThreadPoolExecutor

from repro.graph.graph import Graph
from repro.inference.config import GatewayConfig
from repro.inference.delta import DeltaOutcome, GraphDelta
from repro.inference.pool import SessionPool
from repro.inference.session import InferenceResult
from repro.serving.admission import AdmissionController, Overloaded
from repro.serving.metrics import (
    GatewaySnapshot,
    LatencyWindow,
    TenantStats,
    merged_percentiles,
)


@dataclass
class _Request:
    """One queued infer request awaiting its tick."""

    future: "asyncio.Future[InferenceResult]"
    mode: str


@dataclass
class _TenantState:
    """Everything the gateway tracks for one registered tenant."""

    tenant_id: str
    graph: Graph
    window: LatencyWindow
    queue: Deque[_Request] = field(default_factory=deque)
    #: Requests picked from the queue but not yet completed (current tick).
    executing: int = 0
    #: Wakes the tenant loop when work arrives (or the gateway closes).
    wake: Optional[asyncio.Event] = None
    #: Serialises this tenant's delta applications (arrival order).
    delta_lock: Optional[asyncio.Lock] = None
    task: Optional["asyncio.Task[None]"] = None
    requests: int = 0
    deltas: int = 0
    ticks: int = 0
    rejections: int = 0

    @property
    def depth(self) -> int:
        """Admission-visible queue depth: waiting plus in-flight requests."""
        return len(self.queue) + self.executing


class ServingGateway:
    """Async multi-tenant request front-end over a :class:`SessionPool`.

    Parameters
    ----------
    pool:
        The (thread-safe) session pool executions are served from.  The
        gateway drives it from worker threads but never owns it — pool
        capacity and weighted eviction keep working underneath, and the
        caller may keep using the pool directly.
    config:
        :class:`~repro.inference.config.GatewayConfig` knobs (queue bound,
        batch size, tick thread count, latency window).

    All coroutine methods must run on one event loop (the usual asyncio
    single-loop discipline); the heavy lifting — plan preparation, delta
    merging, backend execution — happens on the gateway's worker threads and
    in the backend's worker processes, never on the loop.
    """

    def __init__(self, pool: SessionPool,
                 config: Optional[GatewayConfig] = None) -> None:
        self.pool = pool
        self.config = config or GatewayConfig()
        self._admission = AdmissionController(
            max_queue_depth=self.config.max_queue_depth,
            max_batch=self.config.max_batch)
        self._tenants: Dict[str, _TenantState] = {}
        self._executor: Optional["ThreadPoolExecutor"] = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def __aenter__(self) -> "ServingGateway":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Drain every tenant queue, stop the tick loops, free the threads.

        Requests already admitted are served to completion; new submissions
        raise ``RuntimeError``.  The pool is left untouched (the caller owns
        it — close it separately to release backend workers).
        """
        if self._closed:
            return
        self._closed = True
        tasks = []
        for state in self._tenants.values():
            if state.wake is not None:
                state.wake.set()
            if state.task is not None:
                tasks.append(state.task)
        if tasks:
            await asyncio.gather(*tasks)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("gateway is closed")

    def _threads(self) -> "ThreadPoolExecutor":
        if self._executor is None:
            from concurrent.futures import ThreadPoolExecutor
            self._executor = ThreadPoolExecutor(
                max_workers=self.config.max_concurrent_ticks,
                thread_name_prefix="repro-gateway-tick")
        return self._executor

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(self, tenant_id: str, graph: Graph) -> None:
        """Bind ``tenant_id`` to its graph handle.

        The graph must be an in-memory :class:`~repro.graph.graph.Graph`
        (deltas are mirrored onto it, exactly as
        :meth:`SessionPool.apply_delta` does).  The handle is the tenant's
        key in the pool: once its first tick runs, the pool owns its arrays
        and makes them read-only until the tenant is evicted, so change the
        graph through :meth:`submit_delta` only.  Planning happens lazily on
        the tenant's first tick; call ``await gateway.warm(tenant_id)`` to
        front-load it.
        """
        self._require_open()
        if not isinstance(graph, Graph):
            raise TypeError("register() requires an in-memory Graph tenant "
                            "(deltas are mirrored onto the handle)")
        if tenant_id in self._tenants:
            raise ValueError(f"tenant {tenant_id!r} is already registered")
        self._tenants[tenant_id] = _TenantState(
            tenant_id=tenant_id, graph=graph, window=LatencyWindow())

    def tenants(self) -> List[str]:
        """Registered tenant ids, registration order."""
        return list(self._tenants)

    def _state(self, tenant_id: str) -> _TenantState:
        try:
            return self._tenants[tenant_id]
        except KeyError:
            raise KeyError(f"unknown tenant {tenant_id!r}; register(tenant_id, "
                           "graph) first") from None

    def _ensure_loop_state(self, state: _TenantState) -> None:
        """Create the tenant's loop-bound objects on first use (lazy: the
        constructor and ``register()`` are synchronous and may run before any
        event loop exists)."""
        if state.wake is None:
            state.wake = asyncio.Event()
        if state.delta_lock is None:
            state.delta_lock = asyncio.Lock()
        if state.task is None or state.task.done():
            state.task = asyncio.get_running_loop().create_task(
                self._tenant_loop(state), name=f"gateway-tick[{state.tenant_id}]")

    # ------------------------------------------------------------------ #
    # request paths
    # ------------------------------------------------------------------ #
    async def warm(self, tenant_id: str) -> None:
        """Prepare the tenant's plan off the request path (optional)."""
        self._require_open()
        state = self._state(tenant_id)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._threads(),
                                   self.pool.session_for, state.graph)

    async def infer(self, tenant_id: str, mode: str = "full") -> InferenceResult:
        """One inference for ``tenant_id``, batched into its next tick.

        Concurrent requests for one tenant (same ``mode``) are served by a
        single execution — every caller receives the same
        :class:`~repro.inference.session.InferenceResult`.  Raises
        :class:`~repro.serving.admission.Overloaded` when the tenant already
        has ``max_queue_depth`` requests outstanding (queued plus executing);
        the rejected request touches no pool state.
        """
        self._require_open()
        if mode not in ("full", "incremental"):
            raise ValueError(f"mode must be 'full' or 'incremental', got {mode!r}")
        state = self._state(tenant_id)
        try:
            self._admission.admit(tenant_id, state.depth, state.window)
        except Overloaded:
            state.rejections += 1
            raise
        self._ensure_loop_state(state)
        state.requests += 1
        future: "asyncio.Future[InferenceResult]" = (
            asyncio.get_running_loop().create_future())
        state.queue.append(_Request(future=future, mode=mode))
        state.wake.set()
        return await future

    async def map(self, tenant_ids: Iterable[str],
                  mode: str = "full") -> List[InferenceResult]:
        """Concurrent :meth:`infer` over many tenants, results in input order.

        The ``runner.map`` idiom: think one tenant, scale with map — each
        tenant's requests batch into its own tick and the ticks overlap on
        the worker threads.
        """
        return await asyncio.gather(
            *(self.infer(tenant_id, mode=mode) for tenant_id in tenant_ids))

    async def submit_delta(self, tenant_id: str,
                           delta: GraphDelta) -> DeltaOutcome:
        """Fold ``delta`` into the tenant's deferred buffer (coalesced).

        Applied immediately — not queued — via
        ``pool.apply_delta(graph, delta, defer=True)`` on a worker thread, so
        it may overlap an executing tick: a delta arriving mid-tick lands in
        the *next* tick's one merged flush.  One tenant's deltas apply in
        submission order.
        """
        self._require_open()
        state = self._state(tenant_id)
        self._ensure_loop_state(state)
        loop = asyncio.get_running_loop()
        async with state.delta_lock:
            outcome = await loop.run_in_executor(
                self._threads(),
                functools.partial(self.pool.apply_delta, state.graph, delta,
                                  defer=True))
        state.deltas += 1
        return outcome

    # ------------------------------------------------------------------ #
    # the tick loop
    # ------------------------------------------------------------------ #
    def _next_batch(self, state: _TenantState) -> List[_Request]:
        """Pop the longest same-mode FIFO prefix, up to ``max_batch``.

        Requests batch only when one execution can serve them all; a mode
        change starts the next tick.  A request whose caller is gone (its
        future is done: cancelled) is dropped as it is reached, so the batch
        is empty only when nobody queued is still waiting.
        """
        batch: List[_Request] = []
        while state.queue and len(batch) < self.config.max_batch:
            request = state.queue[0]
            if request.future.done():
                state.queue.popleft()
            elif batch and request.mode != batch[0].mode:
                break
            else:
                batch.append(state.queue.popleft())
        return batch

    def _execute_tick(self, state: _TenantState, mode: str) -> InferenceResult:
        """Worker-thread body: one batched, coalesced-flush execution."""
        return self.pool.infer(state.graph, mode=mode)

    async def _tenant_loop(self, state: _TenantState) -> None:
        """Per-tenant scheduler: drain the queue one batched tick at a time."""
        loop = asyncio.get_running_loop()
        while True:
            await state.wake.wait()
            state.wake.clear()
            while state.queue:
                batch = self._next_batch(state)
                if not batch:           # every waiter cancelled: run no tick
                    continue
                state.executing = len(batch)
                try:
                    result = await loop.run_in_executor(
                        self._threads(), self._execute_tick, state, batch[0].mode)
                except Exception as exc:
                    # Deliberately broad: whatever a tick raises (backend
                    # errors, StalePlanError, WorkerCrashError) belongs to
                    # the awaiting callers, not the scheduler loop — which
                    # must survive to serve the tenant's next request.
                    for request in batch:
                        if not request.future.done():
                            request.future.set_exception(exc)
                else:
                    state.ticks += 1
                    # The session measured this tick's wall clock itself
                    # (flush included) — the one latency source of truth.
                    state.window.record(result.elapsed_seconds)
                    for request in batch:
                        if not request.future.done():
                            request.future.set_result(result)
                finally:
                    state.executing = 0
            if self._closed:
                return

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    def tenant_stats(self, tenant_id: str) -> TenantStats:
        """Current counters and latency percentiles for one tenant."""
        state = self._state(tenant_id)
        return TenantStats(
            tenant_id=tenant_id,
            requests=state.requests,
            deltas=state.deltas,
            ticks=state.ticks,
            rejections=state.rejections,
            queue_depth=state.depth,
            p50_tick_seconds=state.window.p50,
            p99_tick_seconds=state.window.p99,
            mean_tick_seconds=state.window.mean(),
            last_tick_seconds=state.window.last,
        )

    def snapshot(self) -> GatewaySnapshot:
        """Whole-gateway view: per-tenant stats, merged percentiles, pool."""
        tenants = [self.tenant_stats(tenant_id) for tenant_id in self._tenants]
        windows = [state.window for state in self._tenants.values()]
        # One read of the pool's counters: hit_rate must describe the same
        # instant as the hits/misses it is reported next to.
        stats = self.pool.stats
        pool_stats = asdict(stats)
        pool_stats["hit_rate"] = stats.hit_rate
        return GatewaySnapshot(
            tenants=tenants,
            requests=sum(t.requests for t in tenants),
            deltas=sum(t.deltas for t in tenants),
            ticks=sum(t.ticks for t in tenants),
            rejections=sum(t.rejections for t in tenants),
            p50_tick_seconds=merged_percentiles(windows, 50.0),
            p99_tick_seconds=merged_percentiles(windows, 99.0),
            pool=pool_stats,
        )
