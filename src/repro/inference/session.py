"""Serving-oriented inference sessions: plan once, infer many.

:class:`InferenceSession` splits a one-shot inference run into

* :meth:`~InferenceSession.prepare` — table ingest, strategy planning, the
  shadow-node graph rewrite and the backend's partition/ingest work, computed
  once and cached as an :class:`~repro.inference.backends.ExecutionPlan`;
* :meth:`~InferenceSession.infer` / :meth:`~InferenceSession.infer_many` —
  repeatable executions that reuse the cached plan, each returning a full
  :class:`InferenceResult`;
* :meth:`~InferenceSession.report` — a structured :class:`RunReport`
  aggregating scores, costs and the plan description across the session.

Every strategy is lossless, so every ``infer()`` on a session is bit-identical
to a fresh one-shot run — the session only removes the repeated planning work.

Serving graphs change between runs, so the session enforces a **staleness
contract**: the plan fingerprints the graph at :meth:`~InferenceSession.prepare`
time, every :meth:`~InferenceSession.infer` re-checks it, and an out-of-band
in-place mutation raises :class:`~repro.inference.delta.StalePlanError`
instead of silently serving yesterday's scores.  In-band changes travel as a
:class:`~repro.inference.delta.GraphDelta` through
:meth:`~InferenceSession.apply_delta`; afterwards
``infer(mode="incremental")`` recomputes only the delta's k-hop reach on
backends that support it (bit-identical to a fresh full run), and plain
``infer()`` runs fully against the patched plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.lockgraph import RLockLike, note_slow_call, tracked_rlock
from repro.cluster.cost_model import CostModel, CostSummary
from repro.cluster.metrics import MetricsCollector
from repro.gnn.model import GNNModel
from repro.gnn.signature import ModelSignature
from repro.graph.graph import Graph
from repro.graph.tables import EdgeTable, NodeTable, tables_to_graph
from repro.inference.backends import Backend, ExecutionPlan, get_backend
from repro.inference.config import InferenceConfig
from repro.inference.delta import (
    DeltaBuffer,
    DeltaOutcome,
    GraphDelta,
    StalePlanError,
    graph_fingerprint,
    validate_delta_against_graph,
)
from repro.inference.strategies import StrategyPlan

_EMPTY_IDS = np.empty(0, dtype=np.int64)

GraphLike = Union[Graph, Tuple[Any, ...]]


@dataclass
class InferenceResult:
    """Outcome of one full-graph inference execution."""

    scores: np.ndarray
    cost: CostSummary
    metrics: MetricsCollector
    plan: StrategyPlan
    num_supersteps: int = 0
    #: Real wall-clock seconds this ``infer()`` call took once it held the
    #: execution lock (deferred-delta flush included, queueing behind another
    #: thread's run excluded) — the per-request latency sample serving tiers
    #: aggregate into percentiles, measured here so every consumer shares one
    #: source of truth instead of wrapping its own timer around the call.
    elapsed_seconds: float = 0.0

    def predicted_classes(self) -> np.ndarray:
        """Hard argmax predictions (single-label tasks)."""
        return self.scores.argmax(axis=-1)


@dataclass
class RunReport:
    """Structured summary of everything a session has executed so far."""

    backend: str
    plan_description: str
    num_runs: int
    num_supersteps: int
    scores: Optional[np.ndarray]
    cost: Optional[CostSummary]
    metrics: Optional[MetricsCollector]
    total_wall_clock_seconds: float
    total_cpu_minutes: float
    total_bytes: float
    #: Real (measured, not simulated) wall-clock seconds summed over every
    #: ``infer()`` the session executed, and the latest single sample — the
    #: serving tier's latency source of truth.
    total_elapsed_seconds: float = 0.0
    last_elapsed_seconds: float = 0.0

    @property
    def mean_elapsed_seconds(self) -> float:
        """Mean measured seconds per ``infer()`` (0 before the first run)."""
        return self.total_elapsed_seconds / self.num_runs if self.num_runs else 0.0

    def describe(self) -> str:
        return (f"{self.backend}: {self.num_runs} run(s), "
                f"{self.total_wall_clock_seconds:.3f}s simulated wall-clock total, "
                f"{self.total_elapsed_seconds:.3f}s measured, "
                f"{self.total_cpu_minutes:.4f} cpu*min, "
                f"{self.total_bytes / 1e6:.1f} MB moved  [{self.plan_description}]")


class InferenceSession:
    """A reusable inference context bound to one model and one backend.

    Parameters
    ----------
    model:
        Either a live :class:`~repro.gnn.model.GNNModel` or a
        :class:`~repro.gnn.signature.ModelSignature` previously exported —
        the deployment artefact the paper's pipeline ships to the cluster.
    config:
        Backend name, worker count, cluster spec and strategy switches; the
        backend is resolved through the plugin registry, so any registered
        name works.

    Typical serving flow::

        session = InferenceSession(signature, InferenceConfig(backend="pregel"))
        session.prepare(graph)            # plan once (ingest, strategies, layout)
        result = session.infer()          # run many times against the cached plan
        nightly = session.infer_many(7)

        # the graph changed? describe it, don't mutate in place:
        session.apply_delta(GraphDelta(node_ids=ids, node_features=rows))
        fresh = session.infer(mode="incremental")   # only the dirty k-hop region

        # many small deltas between ticks? defer and coalesce:
        for delta in deltas:
            session.apply_delta(delta, defer=True)  # buffered, not applied
        tick = session.infer()                      # ONE merged patch, then run
        print(session.report().describe())

    Serving many graphs from one model?  Use
    :class:`~repro.inference.pool.SessionPool`, which caches one prepared
    session per graph content.
    """

    def __init__(self, model: Union[GNNModel, ModelSignature],
                 config: Optional[InferenceConfig] = None) -> None:
        if isinstance(model, ModelSignature):
            self.model = model.build_model()
        else:
            self.model = model
        self.config = config or InferenceConfig()
        self.backend: Backend = get_backend(self.config.backend)
        self._plan: Optional[ExecutionPlan] = None
        self._source: Optional[GraphLike] = None
        # Working-graph ids dirtied by apply_delta since the last execution;
        # they seed the next incremental run's frontier.
        self._feature_dirty: np.ndarray = _EMPTY_IDS
        self._topo_dirty: np.ndarray = _EMPTY_IDS
        # Deferred deltas (apply_delta(defer=True)) awaiting one merged flush.
        self._pending: Optional[DeltaBuffer] = None
        # Concurrency contract (the async serving gateway drives sessions from
        # worker threads):
        #   * ``_exec_lock`` serialises everything that mutates or executes
        #     the plan — prepare, eager apply_delta, flush, infer, close — so
        #     two threads can never run or rebuild one plan at once;
        #   * ``_mutate_lock`` covers only the *mutation* phases (flush /
        #     prepare / eager apply) plus deferred buffering, so
        #     ``apply_delta(defer=True)`` may safely overlap a long backend
        #     execution (which only reads the graph) but never a flush
        #     (which rewrites it).
        # Lock order is always _exec_lock -> _mutate_lock; the deferred path
        # takes _mutate_lock alone, so no cycle exists.  Under
        # REPRO_LOCK_TRACK=1 the lockgraph tracker records every acquisition
        # ordering and fails the run if a refactor ever closes a cycle.
        self._exec_lock = tracked_rlock("InferenceSession._exec_lock")
        self._mutate_lock = tracked_rlock("InferenceSession._mutate_lock")
        # True while a batch holds the staleness check it already performed,
        # so infer_many() fingerprints the graph once, not once per run.
        self._staleness_checked = False
        # Only the latest result plus running totals are retained, so a
        # long-lived serving session does not accumulate score matrices.
        self._last_result: Optional[InferenceResult] = None
        self._num_runs = 0
        self._num_replans = 0
        self._total_wall_clock_seconds = 0.0
        self._total_cpu_minutes = 0.0
        self._total_bytes = 0.0
        self._total_elapsed_seconds = 0.0

    # ------------------------------------------------------------------ #
    @property
    def plan(self) -> Optional[ExecutionPlan]:
        """The cached execution plan (None until :meth:`prepare` runs)."""
        return self._plan

    @property
    def is_prepared(self) -> bool:
        return self._plan is not None

    @property
    def num_runs(self) -> int:
        return self._num_runs

    @property
    def num_pending_deltas(self) -> int:
        """Deferred deltas buffered since the last flush (0 when none)."""
        return 0 if self._pending is None else self._pending.num_pending

    @property
    def num_replans(self) -> int:
        """How many deltas invalidated the cached plan and forced a full
        re-``prepare()`` (explicit ``prepare()`` calls are not counted).
        The streaming soak harness aggregates this across a pool to assert
        that stable-hub edge churn never re-plans.
        """
        return self._num_replans

    # ------------------------------------------------------------------ #
    @staticmethod
    def _ingest(graph: GraphLike) -> Graph:
        """Accept an in-memory graph or a (NodeTable, EdgeTable) pair."""
        if isinstance(graph, tuple):
            node_table, edge_table = graph
            if not isinstance(node_table, NodeTable) or not isinstance(edge_table, EdgeTable):
                raise TypeError("expected a (NodeTable, EdgeTable) pair")
            graph = tables_to_graph(node_table, edge_table)
        return graph

    def close(self) -> None:
        """Release worker processes / shared memory held by the cached plan.

        Only meaningful when the session runs on the ``"process"`` executor
        (serial plans hold no OS resources); safe to call repeatedly, and the
        session remains usable — the next execution respawns its workers.
        :class:`~repro.inference.pool.SessionPool` calls this on eviction.
        An ``infer()`` in flight on another thread finishes first — workers
        are never torn down under a running execution.
        """
        note_slow_call("close")
        with self._exec_lock:
            if self._plan is not None:
                self.backend.release(self._plan)

    def prepare(self, graph: GraphLike) -> ExecutionPlan:
        """Build and cache the execution plan for ``graph``.

        Runs table ingest, strategy planning, the shadow-node rewrite, the
        :class:`~repro.cluster.layout.ClusterLayout` routing-table build and
        the backend's own preparation (Pregel partitioning / MapReduce record
        ingest / k-hop pipeline setup).  Subsequent :meth:`infer` /
        :meth:`infer_many` calls reuse the returned plan — including the
        cached layout, which is never recomputed per run.

        Re-planning while deferred deltas are pending would silently discard
        them, so it raises; call :meth:`flush_deltas` (to apply them) or
        :meth:`discard_pending_deltas` first.
        """
        note_slow_call("prepare")
        with self._exec_lock, self._mutate_lock:
            if self._pending is not None and not self._pending.is_empty:
                raise RuntimeError(
                    f"{self._pending.num_pending} deferred delta(s) are pending; "
                    "call flush_deltas() to apply them or discard_pending_deltas() "
                    "before re-planning")
            # The replaced plan's backend state may own worker processes and
            # shared-memory segments; release them eagerly rather than waiting
            # for garbage collection.
            if self._plan is not None:
                self.backend.release(self._plan)
            self._plan = self.backend.plan(self.model, self._ingest(graph), self.config)
            self._plan.fingerprint = graph_fingerprint(self._plan.graph)
            self._source = graph
            self._feature_dirty = _EMPTY_IDS
            self._topo_dirty = _EMPTY_IDS
            return self._plan

    def _is_prepared_for(self, graph: GraphLike) -> bool:
        """True when the cached plan covers ``graph``.

        Matches either the object originally passed to :meth:`prepare` (so a
        (NodeTable, EdgeTable) pair is not re-ingested on every call) or the
        ingested graph the plan was built over.
        """
        return self._plan is not None and (graph is self._source
                                           or graph is self._plan.graph)

    def _check_staleness(self, force: bool = False) -> None:
        """Raise :class:`StalePlanError` if the prepared graph was mutated.

        The fingerprint covers edge arrays and feature buffers; it is updated
        by :meth:`prepare` and :meth:`apply_delta`, so any mismatch means an
        out-of-band in-place mutation the plan cannot know about.  ``force``
        ignores ``config.staleness_check``: :meth:`apply_delta` must never
        launder a foreign mutation into a fresh fingerprint, even when the
        per-``infer()`` hot-path check is switched off.
        """
        plan = self._plan
        if plan is None or plan.fingerprint is None:
            return
        if not force and (not self.config.staleness_check or self._staleness_checked):
            return
        if graph_fingerprint(plan.graph) != plan.fingerprint:
            raise StalePlanError(
                "the graph was mutated in place after prepare(); the cached plan "
                "would serve stale scores.  Describe the change as a GraphDelta "
                "and call session.apply_delta(delta), or call "
                "session.prepare(graph) to re-plan from scratch")

    def delta_route_lock(self, defer: bool = False) -> RLockLike:
        """The lock a delta *router* holds to pair :meth:`apply_delta` with
        its own bookkeeping — mirroring the delta onto a tenant handle,
        re-keying a cache entry — atomically per session.

        :class:`~repro.inference.pool.SessionPool` holds this across its
        patch→mirror→re-key sequence so concurrent deltas to one session
        apply to the private copy and the caller's graph in the same order.
        Both locks are reentrant, so the guarded ``apply_delta(delta,
        defer=...)`` call (which takes the matching lock itself) is safe.
        ``defer=True`` returns the mutate lock — held only for the buffer
        merge, so deferred routing may overlap this session's in-flight
        execution; eager routing returns the execution lock and serialises
        with any running ``infer()``, exactly as the eager apply itself does.
        """
        return self._mutate_lock if defer else self._exec_lock

    def apply_delta(self, delta: GraphDelta, defer: bool = False) -> DeltaOutcome:
        """Fold a :class:`~repro.inference.delta.GraphDelta` into the session.

        Backends overriding ``apply_delta`` (pregel, mapreduce) patch
        the cached plan in place — feature rows are scattered into the
        partitions / cached input records through the cluster layout, shadow
        mirror copies refreshed, hub thresholds re-checked — and the dirty
        region accumulates until the next :meth:`infer`.  When the delta
        invalidates the plan (hub set changed, mirror-group counts moved) or
        the backend keeps the base-class default (khop), the delta still lands
        on the graph and the session transparently re-plans.
        Either way the fingerprint is refreshed, so a following :meth:`infer`
        serves *current* scores.

        ``defer=True`` buffers the delta instead of applying it: the next
        :meth:`infer` (or an explicit :meth:`flush_deltas`) folds every
        buffered delta into **one** merged delta — one plan scatter and one
        frontier expansion per tick instead of one per delta — with results
        bit-identical to applying them eagerly one by one.  The returned
        outcome then has ``deferred=True`` and reports nothing about plan
        validity; the flush's outcome does.
        """
        if defer:
            # Deferred buffering takes only the mutate lock, so a serving
            # gateway may coalesce next-tick deltas *while* the current tick
            # executes on another thread (execution only reads the graph); a
            # concurrent flush/prepare — which rewrites it — is excluded.
            with self._mutate_lock:
                if self._plan is None:
                    raise RuntimeError(
                        "session is not prepared; call prepare(graph) first")
                # A delta describes a change to the *prepared* state: if the
                # graph was already mutated out of band, patching on top would
                # silently absorb the unknown mutation into a fresh
                # fingerprint — the exact stale-answer bug this contract
                # exists to prevent.  Fail loudly, even when the per-infer()
                # check is disabled.
                self._check_staleness(force=True)
                # delta_seen stays unarmed until the flush actually applies
                # something: a discarded or fully-cancelled buffer must not
                # make the session start paying for incremental state caches.
                buffer = self._pending or DeltaBuffer(self._plan.graph)
                # add() validates before mutating, so a rejected delta leaves
                # an existing buffer consistent — and a fresh buffer is only
                # committed to the session after its first successful add, or
                # a failed first defer would pin an empty buffer to a stale
                # edge-list snapshot.
                buffer.add(delta)
                self._pending = buffer
                return DeltaOutcome(
                    in_place=True, deferred=True,
                    reason=f"buffered ({self._pending.num_pending} pending); "
                           "applied at the next infer()/flush_deltas()")
        note_slow_call("apply_delta")
        with self._exec_lock:
            if self._plan is None:
                raise RuntimeError("session is not prepared; call prepare(graph) first")
            self._check_staleness(force=True)
            if self._pending is not None and not self._pending.is_empty:
                # An eager delta describes the state *after* the buffered ones:
                # preserve sequence semantics by flushing them first.
                self.flush_deltas()
            if delta.is_empty:
                return DeltaOutcome(in_place=True)
            # Validate at the API boundary (same checks the deferred path's
            # DeltaBuffer.add performs): a malformed delta — wrong edge-feature
            # width, out-of-range ids — fails here with the graph, the plan and
            # the backend caches all untouched.
            validate_delta_against_graph(self._plan.graph, delta)
            return self._apply_delta_now(delta)

    def flush_deltas(self) -> DeltaOutcome:
        """Apply every deferred delta as one merged delta (no-op when none).

        Called automatically at the start of :meth:`infer`, so a serving loop
        only needs it to control *when* the plan patch happens (e.g. off the
        request path).
        """
        with self._exec_lock, self._mutate_lock:
            buffer, self._pending = self._pending, None
            if buffer is None or buffer.is_empty:
                return DeltaOutcome(in_place=True, reason="no pending deltas")
            # The buffered deltas describe changes to the *prepared* state; if
            # the graph was mutated out of band since they were deferred,
            # applying the merged delta would launder that mutation into a
            # fresh fingerprint — the same loud failure the eager path
            # enforces.
            self._check_staleness(force=True)
            merged = buffer.merge()
            if merged.is_empty:
                # Deltas can cancel out (every append later removed);
                # nothing to do.
                return DeltaOutcome(in_place=True,
                                    reason="pending deltas cancelled out")
            return self._apply_delta_now(merged)

    def discard_pending_deltas(self) -> int:
        """Drop the deferred-delta buffer; returns how many deltas it held."""
        with self._mutate_lock:
            buffer, self._pending = self._pending, None
            return 0 if buffer is None else buffer.num_pending

    def _apply_delta_now(self, delta: GraphDelta) -> DeltaOutcome:
        """Eagerly fold a (possibly merged) delta into the plan or re-plan.

        Callers hold ``_exec_lock``; the mutate lock is taken here so deferred
        buffering on other threads is excluded while the plan and graph
        arrays are rewritten.
        """
        self._exec_lock.acquire()
        self._mutate_lock.acquire()
        try:
            return self._apply_delta_now_locked(delta)
        finally:
            self._mutate_lock.release()
            self._exec_lock.release()

    def _apply_delta_now_locked(self, delta: GraphDelta) -> DeltaOutcome:
        self._plan.delta_seen = True
        outcome = self.backend.apply_delta(self._plan, delta)
        if outcome.in_place:
            self._feature_dirty = np.union1d(self._feature_dirty,
                                             outcome.feature_dirty)
            self._topo_dirty = np.union1d(self._topo_dirty, outcome.topo_dirty)
            self._plan.fingerprint = graph_fingerprint(self._plan.graph)
            return outcome
        # Full-recompute default: the delta is already on the graph; rebuild
        # the plan over it.  Keep the original source object (e.g. the
        # (NodeTable, EdgeTable) pair this session was prepared from) valid as
        # an ``infer(source)`` target — re-ingesting it would resurrect the
        # pre-delta edge arrays.
        self._num_replans += 1
        source = self._source
        self.prepare(self._plan.graph)
        self._plan.delta_seen = True     # the session serves a drifting graph
        if source is not None:
            self._source = source
        return outcome

    def infer(self, graph: Optional[GraphLike] = None,
              mode: str = "full") -> InferenceResult:
        """Execute one inference run against the cached plan.

        ``graph`` is only needed on the first call (or to re-target the
        session): passing the graph the session is already prepared for reuses
        the cached plan; passing a different graph re-plans.  The plan
        snapshots the graph at :meth:`prepare` time; in-place mutations must
        arrive as :meth:`apply_delta` calls — an out-of-band mutation raises
        :class:`~repro.inference.delta.StalePlanError` here instead of
        silently serving stale scores.

        ``mode="incremental"`` reruns only the dirty k-hop region accumulated
        by :meth:`apply_delta` on backends that support it, bit-identical to
        a full run; it falls back to a full execution when the backend's
        ``execute_incremental`` returns ``None`` (no override, or no warm
        state cache yet).  The per-superstep state
        cache incremental runs splice into is **lazy**: it only starts filling
        once the session has seen a delta (see
        :attr:`InferenceConfig.incremental_state_cache`), so the first
        post-delta incremental request is served by one full run that primes
        it.  Deltas buffered with ``apply_delta(..., defer=True)`` are flushed
        (one merged application) before the run.
        """
        if mode not in ("full", "incremental"):
            raise ValueError(f"mode must be 'full' or 'incremental', got {mode!r}")
        note_slow_call("infer")
        with self._exec_lock:
            # Clock starts *after* the execution lock is acquired: a caller
            # queued behind another thread's run would otherwise record lock
            # wait as inference latency, inflating serving percentiles and
            # retry-after estimates exactly when contention makes them matter.
            started = time.perf_counter()
            if graph is not None and not self._is_prepared_for(graph):
                self.prepare(graph)
            if self._plan is None:
                raise RuntimeError(
                    "session is not prepared; call prepare(graph) first "
                    "(or pass a graph to infer())")
            if self._pending is not None and not self._pending.is_empty:
                self.flush_deltas()
            self._check_staleness()

            plan = self._plan
            metrics = MetricsCollector()
            outputs = None
            if mode == "incremental":
                outputs = self.backend.execute_incremental(
                    plan, metrics, self._feature_dirty, self._topo_dirty)
                if outputs is None:
                    metrics = MetricsCollector()   # discard the aborted attempt
            if outputs is None:
                outputs = self.backend.execute(plan, metrics)
            # Either path leaves the backend's caches describing the current
            # graph, so the dirty region is consumed.
            self._feature_dirty = _EMPTY_IDS
            self._topo_dirty = _EMPTY_IDS
            cost = CostModel(self.config.cluster).summarize(metrics)
            elapsed = time.perf_counter() - started
            result = InferenceResult(
                scores=outputs["scores"],
                cost=cost,
                metrics=metrics,
                plan=plan.strategy_plan,
                num_supersteps=plan.num_supersteps,
                elapsed_seconds=elapsed,
            )
            self._last_result = result
            self._num_runs += 1
            self._total_wall_clock_seconds += cost.wall_clock_seconds
            self._total_cpu_minutes += cost.cpu_minutes
            self._total_bytes += cost.total_bytes
            self._total_elapsed_seconds += elapsed
            return result

    def infer_many(self, n: int) -> List[InferenceResult]:
        """Run ``n`` repeated executions against the cached plan.

        ``n`` must be a true integer: a float like ``0.5`` used to slip past
        the positivity guard and silently return an empty list without
        running anything.
        """
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise TypeError(f"n must be an integer number of runs, "
                            f"got {type(n).__name__} ({n!r})")
        if n <= 0:
            raise ValueError("n must be positive")
        # One staleness check covers the whole single-threaded batch: nothing
        # between iterations can mutate the graph.
        self._check_staleness()
        self._staleness_checked = self.is_prepared
        try:
            return [self.infer() for _ in range(int(n))]
        finally:
            self._staleness_checked = False

    # ------------------------------------------------------------------ #
    def report(self) -> RunReport:
        """Aggregate what the session has done into a structured report."""
        last = self._last_result
        return RunReport(
            backend=self.backend.name,
            plan_description=self._plan.describe() if self._plan is not None else "<unprepared>",
            num_runs=self._num_runs,
            num_supersteps=last.num_supersteps if last is not None else 0,
            scores=last.scores if last is not None else None,
            cost=last.cost if last is not None else None,
            metrics=last.metrics if last is not None else None,
            total_wall_clock_seconds=self._total_wall_clock_seconds,
            total_cpu_minutes=self._total_cpu_minutes,
            total_bytes=self._total_bytes,
            total_elapsed_seconds=self._total_elapsed_seconds,
            last_elapsed_seconds=last.elapsed_seconds if last is not None else 0.0,
        )
