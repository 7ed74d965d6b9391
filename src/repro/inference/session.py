"""Serving-oriented inference sessions: plan once, infer many.

:class:`InferenceSession` splits a one-shot inference run into

* :meth:`~InferenceSession.prepare` — strategy planning, the shadow-node
  graph rewrite and the backend's partition/ingest work, computed once and
  cached as an :class:`~repro.inference.backends.ExecutionPlan`;
* :meth:`~InferenceSession.infer` / :meth:`~InferenceSession.infer_many` —
  repeatable executions that reuse the cached plan, each returning a full
  :class:`InferenceResult` (scores, simulated cost, metrics, measured wall
  clock).

Every strategy is lossless, so every ``infer()`` on a session is bit-identical
to a fresh one-shot run — the session only removes the repeated planning work.

Serving graphs change between runs, so the session enforces a **staleness
contract**: the plan fingerprints the graph at :meth:`~InferenceSession.prepare`
time, every public entry (:meth:`~InferenceSession.infer`, a deferred
:meth:`~InferenceSession.apply_delta`, a flush) re-checks it, and an
out-of-band in-place mutation raises
:class:`~repro.inference.delta.StalePlanError` instead of silently serving
yesterday's scores.  A :class:`~repro.inference.pool.SessionPool` session
runs over the tenant's handle, which the pool owns and lands every delta on:
its plan carries no fingerprint and is trusted until a flush raises
part-way.  In-band changes travel as a :class:`~repro.inference.delta.GraphDelta` through
:meth:`~InferenceSession.apply_delta`; afterwards
``infer(mode="incremental")`` recomputes only the delta's k-hop reach on
backends that support it (bit-identical to a fresh full run), and plain
``infer()`` runs fully against the patched plan.

A delta reaches the plan one way only: it is validated into the session's
:class:`~repro.inference.delta.DeltaBuffer`, and
:meth:`~InferenceSession.flush_deltas` applies the buffer as one merged plan
patch.  ``apply_delta(delta)`` is "buffer, then flush"; ``defer=True`` is
"buffer, flush at the next ``infer()``".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.analysis.lockgraph import note_slow_call, tracked_rlock
from repro.cluster.cost_model import CostModel, CostSummary
from repro.cluster.metrics import MetricsCollector
from repro.gnn.model import GNNModel
from repro.gnn.signature import ModelSignature
from repro.graph.graph import Graph
from repro.inference.backends import Backend, ExecutionPlan, get_backend
from repro.inference.config import InferenceConfig
from repro.inference.delta import (
    DeltaBuffer,
    DeltaOutcome,
    GraphDelta,
    StalePlanError,
    apply_delta_to_graph,
    graph_fingerprint,
)
from repro.inference.strategies import StrategyPlan

_EMPTY_IDS = np.empty(0, dtype=np.int64)


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
        backend is looked up by name in ``BACKENDS``.

    Graphs are in-memory :class:`~repro.graph.graph.Graph` objects; a caller
    holding a ``(NodeTable, EdgeTable)`` pair converts it once with
    :func:`~repro.graph.tables.tables_to_graph`.

    Typical serving flow::

        session = InferenceSession(signature, InferenceConfig(backend="pregel"))
        plan = session.prepare(graph)     # plan once (strategies, layout)
        result = session.infer()          # run many times against the cached plan
        nightly = session.infer_many(7)

        # the graph changed? describe it, don't mutate in place:
        session.apply_delta(GraphDelta(node_ids=ids, node_features=rows))
        fresh = session.infer(mode="incremental")   # only the dirty k-hop region

        # many small deltas between ticks? defer and coalesce:
        for delta in deltas:
            session.apply_delta(delta, defer=True)  # buffered, not applied
        tick = session.infer()                      # ONE merged patch, then run
        print(plan.describe(), tick.cost.wall_clock_seconds)

    Serving many graphs from one model?  Use
    :class:`~repro.inference.pool.SessionPool`, which caches one prepared
    session per tenant graph handle.
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
        # Whether a pool owns the plan's graph (see _prepare).
        self._owns_graph = False
        # Working-graph ids dirtied by flushed deltas since the last
        # execution; they seed the next incremental run's frontier.
        self._feature_dirty: np.ndarray = _EMPTY_IDS
        self._topo_dirty: np.ndarray = _EMPTY_IDS
        # Deltas awaiting one merged flush (every delta passes through here).
        self._pending: Optional[DeltaBuffer] = None
        # Concurrency contract (the async serving gateway drives sessions from
        # worker threads):
        #   * ``_exec_lock`` serialises everything that mutates or executes
        #     the plan — prepare, flush, infer, close — so two threads can
        #     never run or rebuild one plan at once;
        #   * ``buffer_lock`` covers the delta buffer and the phases that
        #     rewrite the graph arrays (flush / prepare), so buffering a
        #     delta may safely overlap a long backend execution (which only
        #     reads the graph) but never a flush (which rewrites it).  It is
        #     public because a delta *router* holds it too:
        #     :class:`~repro.inference.pool.SessionPool` keeps it across
        #     buffer → mirror-onto-the-tenant-handle, so concurrent deltas
        #     to one session are buffered and landed in the same order.
        # Lock order is always _exec_lock -> buffer_lock (-> the pool lock,
        # for a router); buffering takes buffer_lock alone, so no cycle
        # exists.  Under REPRO_LOCK_TRACK=1 the lockgraph tracker records
        # every acquisition ordering and fails the run if a refactor ever
        # closes a cycle.
        self._exec_lock = tracked_rlock("InferenceSession._exec_lock")
        self.buffer_lock = tracked_rlock("InferenceSession.buffer_lock")
        self._num_runs = 0
        self._num_replans = 0

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
        The soak (``tests/test_streaming_soak.py``) sums this across a pool
        to assert that stable-hub edge churn never re-plans.
        """
        return self._num_replans

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release worker processes / shared memory held by the cached plan.

        It also drops the partitions' resident state, on either executor, so
        the next incremental request runs in full.  Safe to call repeatedly,
        and the session remains usable — the next execution respawns its
        workers.
        :class:`~repro.inference.pool.SessionPool` calls this on eviction.
        An ``infer()`` in flight on another thread finishes first — workers
        are never torn down under a running execution.
        """
        note_slow_call("close")
        with self._exec_lock:
            if self._plan is not None:
                self.backend.release(self._plan)

    def prepare(self, graph: Graph) -> ExecutionPlan:
        """Build and cache the execution plan for ``graph``.

        Runs strategy planning, the shadow-node rewrite, the
        :class:`~repro.cluster.layout.ClusterLayout` routing-table build and
        the backend's own preparation (partitioning, on both backends).
        Subsequent :meth:`infer` /
        :meth:`infer_many` calls reuse the returned plan — including the
        cached layout, which is never recomputed per run.

        Re-planning while deferred deltas are pending would silently discard
        them, so it raises; call :meth:`flush_deltas` (to apply them) or
        :meth:`discard_pending_deltas` first.
        """
        return self._prepare(graph, owned=False)

    def _prepare(self, graph: Graph, owned: bool) -> ExecutionPlan:
        """:meth:`prepare`.  ``owned``: the graph is a handle a
        :class:`~repro.inference.pool.SessionPool` adopted, which lands every
        delta on it before buffering it here, so the plan is not hashed (a
        re-plan inside :meth:`flush_deltas` keeps the flag)."""
        note_slow_call("prepare")
        if not isinstance(graph, Graph):
            raise TypeError(
                f"expected a Graph, got {type(graph).__name__}; convert a "
                "(NodeTable, EdgeTable) pair once with tables_to_graph()")
        with self._exec_lock, self.buffer_lock:
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
            self._plan = self.backend.plan(self.model, graph, self.config)
            if not owned:
                self._plan.fingerprint = graph_fingerprint(graph)
            self._owns_graph = owned
            self._feature_dirty = _EMPTY_IDS
            self._topo_dirty = _EMPTY_IDS
            return self._plan

    def _require_current_plan(self) -> ExecutionPlan:
        """The cached plan, once its graph is known to match its fingerprint.

        The fingerprint covers edge arrays and feature buffers; it is updated
        by :meth:`prepare` and :meth:`flush_deltas`, so any mismatch means an
        out-of-band in-place mutation the plan cannot know about — raised as
        :class:`StalePlanError` before an execution would serve stale scores
        or a delta would launder the foreign mutation into a fresh
        fingerprint.

        A graph the caller handed to :meth:`prepare` is re-hashed in full on
        every call.  An owned graph (a pooled handle) is never hashed: its
        plan is stale only once a flush raised out of ``backend.apply_delta``
        (``fingerprint_current`` unset).  A plan whose pool let go of its
        graph has no fingerprint, so it is stale until :meth:`prepare`.
        """
        plan = self._plan
        if plan is None:
            raise RuntimeError("session is not prepared; call prepare(graph) first "
                               "(or pass a graph to infer())")
        if (not plan.fingerprint_current if self._owns_graph
                else graph_fingerprint(plan.graph) != plan.fingerprint):
            raise StalePlanError(
                "the graph changed behind the plan after prepare(); the cached plan "
                "would serve stale scores.  Describe the change as a GraphDelta "
                "and call session.apply_delta(delta), or call "
                "session.prepare(graph) to re-plan from scratch")
        return plan

    def apply_delta(self, delta: GraphDelta, defer: bool = False) -> DeltaOutcome:
        """Fold a :class:`~repro.inference.delta.GraphDelta` into the session.

        The delta is validated (ids, widths, finite values) against the
        buffered state and parked in the session's
        :class:`~repro.inference.delta.DeltaBuffer`; a rejected delta raises
        ``ValueError`` with the graph, the plan, the buffer and the backend
        caches all untouched.  By default the buffer is then flushed at once
        (:meth:`flush_deltas`) and the flush's outcome returned: the backend
        patches the cached plan in place — feature rows land on the graph
        (pregel also scatters them into its partitions through the cluster
        layout), shadow mirror copies are refreshed, hub thresholds
        re-checked — and the dirty region accumulates until the next
        :meth:`infer`.  When the delta invalidates the plan (hub set changed,
        mirror-group counts moved), the delta still lands on the graph and
        the session transparently re-plans.  Either way the
        fingerprint is refreshed, so a following :meth:`infer` serves
        *current* scores.

        ``defer=True`` stops after buffering: the next :meth:`infer` (or an
        explicit :meth:`flush_deltas`) folds every buffered delta into
        **one** merged delta — one plan scatter and one frontier expansion
        per tick instead of one per delta — with results bit-identical to
        applying them one by one.  The returned outcome then has
        ``deferred=True`` and reports nothing about plan validity; the
        flush's outcome does.  An eager delta arriving on a non-empty buffer
        joins that same merged patch.

        A pooled session's graph is the pool's handle, and a delta reaches
        it only through ``pool.apply_delta``, which lands it on the handle
        too: here it raises ``RuntimeError``.
        """
        if self._owns_graph:
            raise RuntimeError(
                "a pooled session's graph is the pool's handle; send the delta "
                "through pool.apply_delta(graph, delta), which lands it on the "
                "handle and buffers it here")
        if defer:
            return self._buffer_delta(delta)
        note_slow_call("apply_delta")
        # Holding the execution lock across buffer + flush keeps the returned
        # outcome this delta's own: no concurrent infer() can flush it first.
        with self._exec_lock:
            self._buffer_delta(delta)
            return self.flush_deltas()

    def _buffer_delta(self, delta: GraphDelta) -> DeltaOutcome:
        # Buffering takes only the buffer lock, so a serving gateway may
        # coalesce next-tick deltas *while* the current tick executes on
        # another thread (execution only reads the graph); a concurrent
        # flush/prepare — which rewrites it — is excluded.
        with self.buffer_lock:
            # A delta describes a change to the *prepared* state: if the
            # graph was already mutated out of band, patching on top would
            # silently absorb the unknown mutation into a fresh fingerprint —
            # the exact stale-answer bug this contract exists to prevent.
            plan = self._require_current_plan()
            # delta_seen stays unarmed until the flush actually applies
            # something: a discarded or fully-cancelled buffer must not
            # make the session start paying for incremental state caches.
            buffer = self._pending or DeltaBuffer(plan.graph)
            # add() validates before mutating, so a rejected delta leaves
            # an existing buffer consistent — and a fresh buffer is only
            # committed to the session after its first successful add, or
            # a failed first defer would pin an empty buffer to a stale
            # edge-list snapshot.
            buffer.add(delta)
            self._pending = buffer
            return DeltaOutcome(
                in_place=True, deferred=True,
                reason=f"buffered ({buffer.num_pending} pending); "
                       "applied at the next infer()/flush_deltas()")

    def flush_deltas(self) -> DeltaOutcome:
        """Apply every buffered delta as one merged delta (no-op when none).

        Called automatically at the start of :meth:`infer`, so a serving loop
        only needs it to control *when* the plan patch happens (e.g. off the
        request path).  This is the only place a delta reaches the backend.
        It lands the merged delta on a caller's graph; an owned graph already
        holds it (its owner landed each delta), so it is neither written nor
        hashed.
        """
        with self._exec_lock, self.buffer_lock:
            buffer, self._pending = self._pending, None
            if buffer is None or buffer.is_empty:
                return DeltaOutcome(in_place=True, reason="no pending deltas")
            # Read once, before the check: a pool may disown the graph at any
            # moment, and the owner already landed what an owned flush holds.
            owned = self._owns_graph
            # The buffered deltas describe changes to the *prepared* state; if
            # the graph was mutated out of band since they were buffered,
            # applying the merged delta would launder that mutation into a
            # fresh fingerprint.
            plan = self._require_current_plan()
            merged = buffer.merge()
            if merged.is_empty:
                # Deltas can cancel out (every append later removed);
                # nothing to do.
                return DeltaOutcome(in_place=True,
                                    reason="pending deltas cancelled out")
            plan.delta_seen = True
            # Until the patch below completes the plan lags its graph, so a
            # raise out of the backend leaves it stale.
            plan.fingerprint_current = False
            if not owned:
                apply_delta_to_graph(plan.graph, merged)
            outcome = self.backend.apply_delta(plan, merged)
            if outcome.in_place:
                self._feature_dirty = np.union1d(self._feature_dirty,
                                                 outcome.feature_dirty)
                self._topo_dirty = np.union1d(self._topo_dirty, outcome.topo_dirty)
                if not owned:
                    plan.fingerprint = graph_fingerprint(plan.graph)
                plan.fingerprint_current = True
                return outcome
            # The hub contract broke: the delta is already on the graph;
            # rebuild the plan over it.
            self._num_replans += 1
            self._prepare(plan.graph, owned=self._owns_graph).delta_seen = True
            return outcome

    def discard_pending_deltas(self) -> int:
        """Drop the deferred-delta buffer; returns how many deltas it held.

        An owned graph (a pooled handle) already holds the buffered deltas,
        and only a flush catches the plan up: this raises ``RuntimeError``.
        """
        with self.buffer_lock:
            if self._owns_graph:
                raise RuntimeError(
                    "a pooled session's deferred deltas are already on the pooled "
                    "graph; flush_deltas() or infer() catches the plan up with "
                    "them, and pool.evict(graph) drops the session")
            buffer, self._pending = self._pending, None
            return 0 if buffer is None else buffer.num_pending

    def infer(self, graph: Optional[Graph] = None,
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
        once the session has seen a delta (``ExecutionPlan.delta_seen``), so
        the first post-delta incremental request is served by one full run
        that primes it.  Deltas buffered with ``apply_delta(..., defer=True)``
        are flushed (one merged application) before the run.
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
            if graph is not None and (self._plan is None
                                      or graph is not self._plan.graph):
                self.prepare(graph)
            self.flush_deltas()
            plan = self._require_current_plan()

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
            self._num_runs += 1
            return InferenceResult(
                scores=outputs["scores"],
                cost=cost,
                metrics=metrics,
                plan=plan.strategy_plan,
                num_supersteps=plan.num_supersteps,
                elapsed_seconds=time.perf_counter() - started,
            )

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
        return [self.infer() for _ in range(int(n))]
