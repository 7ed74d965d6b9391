"""The soak driver: N simulated seconds of stream vs. an un-faulted oracle.

:func:`run_soak` replays one seeded :class:`~repro.streaming.workload.WorkloadTrace`
against **two** stacks at once:

* the *faulted* side — a :class:`~repro.inference.pool.SessionPool` (driven
  through the async :class:`~repro.serving.ServingGateway` by default, or
  bare) with a :class:`~repro.streaming.faults.FaultPlan` firing mid-stream;
* the *oracle* side — a bare pool fed the identical logical stream, no
  faults, on the serial substrate.

Every inference tick's scores are compared across the two sides on the spot
with ``np.array_equal``: bit-identical on every backend, *through* injected
worker kills, forced evictions and delta-arrival bursts (docs/ARCHITECTURE.md
contract #10).  A :class:`~repro.cluster.executor.WorkerCrashError` surfacing
from the faulted side is caught, counted, and the tick retried — the
respawned execution must still match the oracle.

The run finishes with a structured :class:`SoakReport`.  Its
:meth:`~SoakReport.deterministic_summary` — trace digest, fault schedule,
event/crash/mismatch counters, temporal snapshot digests, shm segment
census — is identical across two runs of one seed; measured wall-clock
fields (p50/p99 tick latency, RSS) sit outside that contract.

Environment knobs (read by ``tests/test_streaming_soak.py``, not by
:func:`run_soak` itself): ``$REPRO_SOAK_SECONDS`` scales how many simulated
seconds the soak runs (one tick = one simulated second) and
``$REPRO_SOAK_SEED`` reseeds the whole stream + fault schedule.
"""

from __future__ import annotations

import asyncio
import os
import time
import zlib
from dataclasses import asdict, dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.executor import WorkerCrashError, default_executor_name
from repro.gnn.model import GNNModel, build_model
from repro.graph.generators import powerlaw_graph
from repro.graph.graph import Graph
from repro.inference.config import InferenceConfig, StrategyConfig
from repro.inference.delta import GraphDelta
from repro.inference.pool import SessionPool
from repro.inference.session import InferenceResult
from repro.serving.gateway import ServingGateway
from repro.serving.metrics import LatencyWindow
from repro.streaming.faults import (
    DeltaSchedule,
    FaultContext,
    FaultInjector,
    FaultPlan,
    plan_executor,
)
from repro.streaming.workload import (
    DELTA,
    INFER,
    SNAPSHOT,
    WorkloadConfig,
    WorkloadTrace,
    generate_trace,
)

SOAK_SECONDS_ENV = "REPRO_SOAK_SECONDS"
SOAK_SEED_ENV = "REPRO_SOAK_SEED"
#: The oracle always runs un-faulted on this substrate (scores are
#: contract-identical across executors, so serial keeps the soak cheap).
ORACLE_EXECUTOR = "serial"
#: Capacity of the faulted and the oracle pool.
POOL_CAPACITY = 8
#: A tick that keeps crashing is retried at most this many times before the
#: soak gives up and re-raises — recovery must be prompt, not eventual.
MAX_RECOVERY_ATTEMPTS = 3


def _int_from_env(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not an integer") from None
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def soak_seconds_from_env(default: int = 30) -> int:
    """``$REPRO_SOAK_SECONDS`` (simulated seconds = ticks), or ``default``."""
    return _int_from_env(SOAK_SECONDS_ENV, default)


def soak_seed_from_env(default: int = 0) -> int:
    """``$REPRO_SOAK_SEED``, or ``default`` (0 is a valid seed)."""
    raw = os.environ.get(SOAK_SEED_ENV)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SOAK_SEED_ENV}={raw!r} is not an integer") from None


@dataclass(frozen=True)
class SoakConfig:
    """One soak run: workload shape, fault plan, stack under test."""

    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    faults: Optional[FaultPlan] = None
    backend: str = "pregel"
    #: Substrate of the faulted side; ``None`` follows ``$REPRO_EXECUTOR``.
    executor: Optional[str] = None
    num_workers: int = 4
    #: Drive the faulted side through the async gateway (the production
    #: front-end) or call the pool directly.
    use_gateway: bool = True
    graph_nodes: int = 300
    avg_degree: float = 4.0
    feature_dim: int = 8
    num_classes: int = 4
    #: Pinned high by default so edge churn cannot flip the hub set and force
    #: a mid-soak re-plan — the regime where in-place edge patching (and the
    #: shm-segment ceiling it guarantees) is the contract under test.
    hub_threshold_override: Optional[int] = 1_000_000
    #: Run the faulted and oracle stacks with the shadow-node rewrite on.
    #: Edge churn must stay in place under shadow too (position-stable mirror
    #: assignment), so soaks gate ``SoakReport.replans`` at zero either way.
    shadow_nodes: bool = False

    def resolved_executor(self) -> str:
        return self.executor or default_executor_name()


#: the report fields that vary run to run, outside the replayability contract
MEASURED_FIELDS = ("fault_notes", "max_worker_processes", "p50_tick_seconds",
                   "p99_tick_seconds", "mean_tick_seconds", "wall_seconds",
                   "max_rss_bytes")


@dataclass
class SoakReport:
    """Everything one soak run measured.

    :meth:`deterministic_summary` is the replayability contract: identical
    across two runs of one :class:`SoakConfig` on one machine.  The measured
    fields (latency percentiles, wall clock, RSS, fault notes with pids) sit
    outside it.
    """

    backend: str
    executor: str
    use_gateway: bool
    seed: int
    ticks: int
    tenants: int
    trace_digest: int
    fault_digest: Optional[int]
    trace_deltas: int
    trace_infers: int
    trace_snapshots: int
    deltas_delivered: int
    infers_served: int
    oracle_checks: int
    mismatches: int
    first_mismatch_tick: int           #: -1 when every check matched
    crashes: int                       #: WorkerCrashError ticks observed
    recoveries: int                    #: crashed ticks that then succeeded
    unrecovered: int                   #: crashed ticks that exhausted retries
    recovery_attempts: List[int]
    fault_schedule: List[Dict[str, object]]
    fault_notes: List[str]
    snapshot_digests: Dict[str, List[int]]
    max_shm_segments: int
    final_shm_segments: int
    #: Highest per-tick census of delta-forced full re-plans summed over the
    #: faulted pool's live sessions (an evicted session takes its count with
    #: it, so on fault-free runs this equals the total).  The stable-hub SLO
    #: gate asserts 0: edge churn that preserves the hub set must patch in
    #: place, never re-plan.
    replans: int
    max_worker_processes: int
    p50_tick_seconds: float
    p99_tick_seconds: float
    mean_tick_seconds: float
    wall_seconds: float
    max_rss_bytes: int

    @property
    def clean(self) -> bool:
        """No mismatch, no unrecovered crash — the soak's pass criterion."""
        return self.mismatches == 0 and self.unrecovered == 0

    def deterministic_summary(self) -> Dict[str, object]:
        """The seed-reproducible slice of the report (no wall-clock fields)."""
        return {name: value for name, value in asdict(self).items()
                if name not in MEASURED_FIELDS}

    def describe(self) -> str:
        front = "gateway" if self.use_gateway else "bare pool"
        return (f"soak[{self.backend}/{self.executor}, {front}]: "
                f"{self.ticks} tick(s), {self.deltas_delivered} delta(s), "
                f"{self.infers_served} infer(s), {self.oracle_checks} oracle "
                f"check(s) / {self.mismatches} mismatch(es), {self.crashes} "
                f"crash(es) ({self.recoveries} recovered), "
                f"{self.replans} re-plan(s), shm "
                f"{self.max_shm_segments} max / {self.final_shm_segments} "
                f"final, p50 {self.p50_tick_seconds * 1e3:.1f} ms / "
                f"p99 {self.p99_tick_seconds * 1e3:.1f} ms, "
                f"{self.wall_seconds:.2f}s wall")


# --------------------------------------------------------------------------- #
# the driver
# --------------------------------------------------------------------------- #
def _make_config(cfg: SoakConfig, executor: str) -> InferenceConfig:
    return InferenceConfig(
        backend=cfg.backend, num_workers=cfg.num_workers, executor=executor,
        strategies=StrategyConfig(
            partial_gather=True, broadcast=False,
            shadow_nodes=cfg.shadow_nodes,
            hub_threshold_override=cfg.hub_threshold_override))


def _tenant_graphs(cfg: SoakConfig) -> Tuple[List[Graph], List[Graph]]:
    """Twin (faulted, oracle) graph copies per tenant — same content, own
    arrays, so the two sides' mirrored deltas never alias."""
    faulted: List[Graph] = []
    oracle: List[Graph] = []
    for tenant in range(cfg.workload.tenants):
        seed = cfg.workload.seed * 1009 + 31 * tenant
        for side in (faulted, oracle):
            side.append(powerlaw_graph(
                num_nodes=cfg.graph_nodes, avg_degree=cfg.avg_degree,
                skew="out", feature_dim=cfg.feature_dim,
                num_classes=cfg.num_classes, seed=seed))
    return faulted, oracle


def _make_model(cfg: SoakConfig) -> GNNModel:
    return build_model("gcn", cfg.feature_dim, 16, cfg.num_classes,
                       num_layers=2, seed=cfg.workload.seed)


def _pool_resource_census(pool: SessionPool) -> Tuple[int, int]:
    """(shared-memory segments, live worker processes) across pooled plans.

    Counts the parent-side :class:`~repro.cluster.executor.SharedArrayPack`
    segments of every pooled Pregel engine — the number the segment-leak fix
    bounds: wholesale array swaps (edge-delta churn) *replace* a segment
    under its key instead of accreting new ones, so the census must plateau
    over arbitrarily many edge-delta ticks — and the live worker processes of
    every pooled plan's executor, on either backend.
    """
    segments = processes = 0
    for session in pool.sessions():
        engine = None if session.plan is None else session.plan.state.get("engine")
        segments += 0 if engine is None else engine.num_shared_segments
        executor = plan_executor(session.plan)
        processes += 0 if executor is None else len(executor.live_processes())
    return segments, processes


def _current_rss_bytes() -> int:
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _scores_digest(scores: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(scores))


SubmitFn = Callable[[int, GraphDelta], Awaitable[None]]
InferFn = Callable[[int, str], Awaitable[InferenceResult]]


class _SoakState:
    """Mutable counters one soak run accumulates tick by tick."""

    def __init__(self) -> None:
        self.deltas_delivered = 0
        self.infers_served = 0
        self.oracle_checks = 0
        self.mismatches = 0
        self.first_mismatch_tick = -1
        self.crashes = 0
        self.recoveries = 0
        self.unrecovered = 0
        self.recovery_attempts: List[int] = []
        self.snapshot_digests: Dict[str, List[int]] = {}
        self.max_shm_segments = 0
        self.final_shm_segments = 0
        self.replans = 0
        self.max_worker_processes = 0
        self.max_rss_bytes = 0
        self.window = LatencyWindow()


async def _replay(cfg: SoakConfig, trace: WorkloadTrace, pool: SessionPool,
                  graphs: Sequence[Graph], oracle_pool: SessionPool,
                  oracle_graphs: Sequence[Graph], submit: SubmitFn,
                  infer: InferFn, state: _SoakState,
                  injector: Optional[FaultInjector]) -> None:
    schedule = DeltaSchedule()
    carryover: Dict[int, List[GraphDelta]] = {}

    async def deliver(tenant: int, delta: GraphDelta) -> None:
        # The logical stream feeds both sides identically — the oracle's
        # bare pool sees the very delta the faulted side coalesces.
        await submit(tenant, delta)
        oracle_pool.apply_delta(oracle_graphs[tenant], delta, defer=True)
        state.deltas_delivered += 1

    for tick in range(trace.num_ticks):
        if injector is not None and cfg.faults is not None:
            for event in cfg.faults.events_at(tick):
                injector.fire(FaultContext(
                    event=event, pool=pool, graph=graphs[event.tenant],
                    schedule=schedule))
        # Deltas a delay fault held back last tick arrive first: a burst the
        # session's DeltaBuffer folds into one flush with this tick's own.
        for tenant in sorted(carryover):
            for delta in carryover[tenant]:
                await deliver(tenant, delta)
        carryover.clear()
        for event in trace.per_tick(tick):
            if event.kind == DELTA:
                assert event.delta is not None
                if schedule.is_delayed(event.tenant, tick):
                    carryover.setdefault(event.tenant, []).append(event.delta)
                    continue
                await deliver(event.tenant, event.delta)
                continue
            # INFER / SNAPSHOT: execute on the faulted side (retrying through
            # worker crashes), then compare against the un-faulted oracle.
            attempts = 0
            while True:
                try:
                    result = await infer(event.tenant, event.mode)
                    break
                except WorkerCrashError:
                    state.crashes += 1
                    attempts += 1
                    if attempts > MAX_RECOVERY_ATTEMPTS:
                        state.unrecovered += 1
                        raise
            if attempts:
                state.recoveries += 1
                state.recovery_attempts.append(attempts)
            state.infers_served += 1
            state.window.record(result.elapsed_seconds)
            oracle_result = oracle_pool.infer(oracle_graphs[event.tenant],
                                              mode=event.mode)
            state.oracle_checks += 1
            if not np.array_equal(result.scores, oracle_result.scores):
                state.mismatches += 1
                if state.first_mismatch_tick < 0:
                    state.first_mismatch_tick = tick
            if event.kind == SNAPSHOT:
                state.snapshot_digests.setdefault(str(event.tenant), []).append(
                    _scores_digest(result.scores))
        segments, processes = _pool_resource_census(pool)
        state.max_shm_segments = max(state.max_shm_segments, segments)
        state.final_shm_segments = segments
        state.replans = max(state.replans,
                            sum(s.num_replans for s in pool.sessions()))
        state.max_worker_processes = max(state.max_worker_processes, processes)
        state.max_rss_bytes = max(state.max_rss_bytes, _current_rss_bytes())


async def _drive(cfg: SoakConfig) -> SoakReport:
    graphs, oracle_graphs = _tenant_graphs(cfg)
    trace = generate_trace(graphs, cfg.workload)
    model = _make_model(cfg)
    executor = cfg.resolved_executor()
    pool = SessionPool(model, _make_config(cfg, executor),
                       capacity=POOL_CAPACITY)
    oracle_pool = SessionPool(model, _make_config(cfg, ORACLE_EXECUTOR),
                              capacity=POOL_CAPACITY)
    state = _SoakState()
    injector = FaultInjector(cfg.faults) if cfg.faults is not None else None
    started = time.perf_counter()
    try:
        if cfg.use_gateway:
            async with ServingGateway(pool) as gateway:
                for tenant in range(cfg.workload.tenants):
                    gateway.register(str(tenant), graphs[tenant])

                async def g_submit(tenant: int, delta: GraphDelta) -> None:
                    await gateway.submit_delta(str(tenant), delta)

                async def g_infer(tenant: int, mode: str) -> InferenceResult:
                    return await gateway.infer(str(tenant), mode=mode)

                await _replay(cfg, trace, pool, graphs, oracle_pool,
                              oracle_graphs, g_submit, g_infer, state,
                              injector)
        else:
            async def p_submit(tenant: int, delta: GraphDelta) -> None:
                pool.apply_delta(graphs[tenant], delta, defer=True)

            async def p_infer(tenant: int, mode: str) -> InferenceResult:
                return pool.infer(graphs[tenant], mode=mode)

            await _replay(cfg, trace, pool, graphs, oracle_pool,
                          oracle_graphs, p_submit, p_infer, state, injector)
    finally:
        pool.clear()
        oracle_pool.clear()
    wall = time.perf_counter() - started

    injected = cfg.faults
    return SoakReport(
        backend=cfg.backend,
        executor=executor,
        use_gateway=cfg.use_gateway,
        seed=cfg.workload.seed,
        ticks=trace.num_ticks,
        tenants=cfg.workload.tenants,
        trace_digest=trace.digest,
        fault_digest=None if injected is None else injected.digest,
        trace_deltas=trace.count(DELTA),
        trace_infers=trace.count(INFER),
        trace_snapshots=trace.count(SNAPSHOT),
        deltas_delivered=state.deltas_delivered,
        infers_served=state.infers_served,
        oracle_checks=state.oracle_checks,
        mismatches=state.mismatches,
        first_mismatch_tick=state.first_mismatch_tick,
        crashes=state.crashes,
        recoveries=state.recoveries,
        unrecovered=state.unrecovered,
        recovery_attempts=state.recovery_attempts,
        fault_schedule=[] if injected is None else injected.schedule(),
        fault_notes=([] if injector is None else
                     [f"tick {record.tick} {record.kind}@tenant "
                      f"{record.tenant}: {record.note}"
                      for record in injector.records]),
        snapshot_digests=state.snapshot_digests,
        max_shm_segments=state.max_shm_segments,
        final_shm_segments=state.final_shm_segments,
        replans=state.replans,
        max_worker_processes=state.max_worker_processes,
        p50_tick_seconds=state.window.p50,
        p99_tick_seconds=state.window.p99,
        mean_tick_seconds=state.window.mean(),
        wall_seconds=wall,
        max_rss_bytes=state.max_rss_bytes,
    )


def run_soak(config: Optional[SoakConfig] = None) -> SoakReport:
    """Run one soak to completion and return its report (blocking)."""
    return asyncio.run(_drive(config or SoakConfig()))
