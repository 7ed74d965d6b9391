"""Multi-tenant serving: one deployed model, many prepared graphs.

The paper's end state is a serving system — one trained model scoring many
slowly-mutating graphs on a schedule.  :class:`SessionPool` is that tier's
plan cache: it keeps one :class:`~repro.inference.session.InferenceSession`
per *tenant graph handle*, so N tenant graphs are each planned once and every
later ``infer()`` reuses the cached plan — partition layout, strategy plan,
shadow rewrite and backend state included.

A pooled handle is **owned by the pool** and is its session's plan graph
(``pool.session_for(h).plan.graph is h``).  The first lookup rebinds the four
arrays inference reads (``src``, ``dst``, ``node_features``,
``edge_features``) to read-only copies the pool owns — the one copy a miss
takes — so an in-place write raises numpy's read-only ``ValueError``.  A
lookup trusts the handle while it still holds exactly those arrays, read-only
— an O(1) check, no hash — and a handle whose array was rebound (or unlocked)
misses and is planned afresh.  Two handles with equal content are two tenants
with two sessions.  :meth:`SessionPool.evict` and :meth:`SessionPool.clear`
hand the arrays back writeable.  :meth:`SessionPool.apply_delta` routes a
delta to the owning session and mirrors it onto the handle at once, deferred
deltas included: that mirror is the delta's one landing, so the plan needs no
fingerprint, and the session's flush patches only what the plan derives from
the handle.  A flush that raised part-way leaves the plan stale, and the pool
drops the entry.

Capacity is bounded and eviction is **weighted**: every entry weighs the
byte size of its graph arrays (a deterministic proxy for prepare cost —
preparation is O(edges) — that timing noise cannot reorder), and when a new
tenant would exceed ``capacity`` the pool evicts the entry with the smallest
``bytes / age`` score — at equal recency the cheaper-to-rebuild plan dies
first, while an untouched heavy plan still ages out once its ``age`` (pool
operations since last use) outgrows its weight advantage.  With equal sizes
the policy degrades to exact LRU.

Tenants are in-memory :class:`~repro.graph.graph.Graph` handles.  Typical
multi-tenant flow::

    pool = SessionPool(signature, InferenceConfig(backend="pregel"),
                       capacity=64)
    for tenant_graph in tenants:           # tick 0: one prepare each
        pool.infer(tenant_graph)
    for tenant_graph in tenants:           # later ticks: plan-cache hits
        scores = pool.infer(tenant_graph).scores
    pool.apply_delta(tenants[0], delta)    # tenant 0 drifted
    fresh = pool.infer(tenants[0], mode="incremental")
    print(pool.stats)

The pool is **thread-safe**, and its lock is deliberately cheap to hold.
Adopting a handle and mirroring a delta onto it both happen *inside* the
pool lock, so a lookup never copies a half-mirrored handle.  Everything slow
runs *outside* it: ``prepare()`` is guarded by a per-handle once-flag (two concurrent cold
lookups of one handle still yield exactly one preparation — the loser waits
for the winner, then hits), ``session.infer()`` never touches the lock, and
an evicted session's ``close()`` — which waits for any in-flight run on that
session — happens only after the lock is released, so one tenant's eviction
or cache miss never stalls another tenant's lookup.  The asyncio serving
gateway (:mod:`repro.serving`) drives exactly this from a worker thread pool.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.lockgraph import tracked_rlock

from repro.gnn.model import GNNModel
from repro.gnn.signature import ModelSignature
from repro.graph.graph import Graph
from repro.inference.config import InferenceConfig
from repro.inference.delta import (
    DeltaOutcome,
    GraphDelta,
    StalePlanError,
    apply_delta_to_graph,
)
from repro.inference.session import InferenceResult, InferenceSession

Arrays = Tuple[Optional[np.ndarray], ...]


def _arrays(graph: Graph) -> Arrays:
    """The arrays inference reads, in a fixed order."""
    return (graph.src, graph.dst, graph.node_features, graph.edge_features)


def _set_writeable(arrays: Arrays, writeable: bool) -> None:
    """Release takes the recorded arrays, not the handle's: a caller may have
    rebound the handle onto arrays whose flags cannot be set."""
    for array in arrays:
        if array is not None:
            array.flags.writeable = writeable


def _adopt(graph: Graph) -> Arrays:
    """Rebind ``graph`` onto read-only copies the pool owns; return them."""
    graph.src, graph.dst = graph.src.copy(), graph.dst.copy()
    if graph.node_features is not None:
        graph.node_features = graph.node_features.copy()
    if graph.edge_features is not None:
        graph.edge_features = graph.edge_features.copy()
    _set_writeable(_arrays(graph), False)
    return _arrays(graph)


def _graph_bytes(graph: Graph) -> int:
    """Byte size of the arrays inference reads — an entry's eviction weight."""
    return sum(array.nbytes for array in _arrays(graph) if array is not None)


@dataclass
class PoolEntry:
    """One cached session, the handle it serves and the bookkeeping weighted
    eviction reads."""

    handle: Graph
    session: InferenceSession
    #: The handle's arrays as the pool last left them: owned and read-only.
    arrays: Arrays
    #: Eviction weight: the byte size of the handle's arrays (set at
    #: adoption, refreshed by every mirrored delta) — a deterministic proxy
    #: for how expensive the plan is to rebuild (preparation is O(edges)),
    #: stable across runs, so timing noise cannot reorder equal-sized twins.
    graph_bytes: int
    #: Pool-operation sequence number of the last use (the eviction clock).
    last_used_seq: int

    def holds(self) -> bool:
        """Whether the handle still holds exactly the recorded arrays,
        read-only, under the plan the pool prepared for it."""
        return self.session._owns_graph and all(
            now is then and (now is None or not now.flags.writeable)
            for now, then in zip(_arrays(self.handle), self.arrays))


@dataclass
class PoolStats:
    """Cache counters for one :class:`SessionPool` (cumulative since creation)."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int
    #: Measured wall-clock seconds spent preparing sessions (cache misses).
    total_prepare_seconds: float = 0.0
    #: Measured wall-clock seconds spent inside pooled ``infer()`` calls —
    #: summed from :attr:`InferenceResult.elapsed_seconds`, the same
    #: per-request samples serving-tier percentiles are computed from.
    total_infer_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def describe(self) -> str:
        return (f"{self.size}/{self.capacity} session(s), "
                f"{self.hits} hit(s) / {self.misses} miss(es) "
                f"({100.0 * self.hit_rate:.0f}% hit rate), "
                f"{self.evictions} eviction(s), "
                f"{self.total_prepare_seconds:.3f}s preparing / "
                f"{self.total_infer_seconds:.3f}s serving")


class SessionPool:
    """A weighted cache of prepared inference sessions, one per tenant handle.

    Parameters
    ----------
    model:
        A live :class:`~repro.gnn.model.GNNModel` or an exported
        :class:`~repro.gnn.signature.ModelSignature`.  A signature is built
        into a model **once**; every pooled session shares that one model
        object (inference never mutates it), so the pool's memory scales with
        the graphs, not with ``capacity`` copies of the weights.
    config:
        The :class:`~repro.inference.config.InferenceConfig` every session is
        created with (backend, workers, strategies); defaults to
        ``InferenceConfig()``.
    capacity:
        Maximum number of prepared sessions held at once.  Preparing a graph
        beyond it evicts the entry with the smallest ``bytes / age`` score
        (its plan is rebuilt on the tenant's next appearance).
    """

    def __init__(self, model: Union[GNNModel, ModelSignature],
                 config: Optional[InferenceConfig] = None,
                 capacity: int = 8) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.model = model.build_model() if isinstance(model, ModelSignature) else model
        self.config = config or InferenceConfig()
        self.capacity = int(capacity)
        # Keyed by the handle itself: a Graph hashes by identity.
        self._entries: "OrderedDict[Graph, PoolEntry]" = OrderedDict()
        # Guards all bookkeeping (entries, counters, adopting and mirroring
        # onto handles).  Held only for cheap operations: preparation runs
        # outside it behind the per-handle once-flags in ``_preparing``, and
        # detached sessions are closed after it is released.  Contract-checked
        # twice: the `lock-discipline` lint rule forbids slow calls lexically
        # inside `with self._lock:` blocks, and under REPRO_LOCK_TRACK=1 the
        # runtime tracker fails any slow operation entered while holding it.
        self._lock = tracked_rlock("SessionPool._lock", forbid_slow=True)
        # Handles with a prepare() in flight; waiters block on the event
        # (outside the pool lock) and re-run their lookup once it sets.
        self._preparing: Dict[Graph, threading.Event] = {}
        # Monotonic pool-operation counter — the "age" clock weighted
        # eviction divides by.  Ticks on every lookup/touch.
        self._seq = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._prepare_seconds = 0.0
        self._infer_seconds = 0.0

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, graph: Graph) -> bool:
        """Whether ``graph`` has a prepared session its next lookup would hit."""
        with self._lock:
            entry = self._entries.get(graph)
            return entry is not None and entry.holds()

    def sessions(self) -> Iterator[InferenceSession]:
        """The live sessions, least- to most-recently used."""
        with self._lock:
            return iter([entry.session for entry in self._entries.values()])

    @property
    def stats(self) -> PoolStats:
        with self._lock:
            return PoolStats(hits=self._hits, misses=self._misses,
                             evictions=self._evictions, size=len(self._entries),
                             capacity=self.capacity,
                             total_prepare_seconds=self._prepare_seconds,
                             total_infer_seconds=self._infer_seconds)

    # ------------------------------------------------------------------ #
    def _detach(self, entry: PoolEntry) -> InferenceSession:
        """Unlink ``entry``, hand its arrays back writeable and count the
        eviction (lock held); the caller closes the returned session.

        The disowned session is stale until prepared again.
        ``session.close()`` waits on the victim's execution lock for any
        in-flight run to finish, so it must never run under the pool lock —
        every caller closes the returned session *after* releasing it, so one
        tenant's eviction cannot stall every other tenant's lookup.
        """
        self._entries.pop(entry.handle, None)
        _set_writeable(entry.arrays, True)
        entry.session._owns_graph = False
        self._evictions += 1
        return entry.session

    def _evicted(self, entry: PoolEntry) -> bool:
        """Whether ``entry`` no longer serves its handle."""
        with self._lock:
            return self._entries.get(entry.handle) is not entry

    def _detach_unflushed(self, entry: PoolEntry) -> None:
        """After an exception: detach ``entry`` if a flush raised part-way.

        The handle already carries every delta mirrored onto it, while the
        plan's derived state may hold none, some or all of them, so the
        handle must prepare again instead of hitting that plan.
        """
        plan = entry.session.plan
        if plan is not None and plan.fingerprint_current:
            return
        with self._lock:
            if self._entries.get(entry.handle) is not entry:
                return
            victim = self._detach(entry)
        victim.close()

    def _eviction_score(self, entry: PoolEntry) -> Tuple[float, int]:
        """Smaller evicts first: ``bytes / age``, recency breaking ties.

        ``age`` counts pool operations since the entry's last use, so a heavy
        plan left untouched decays toward eviction instead of squatting
        forever, while at equal recency the lighter (cheaper-to-rebuild)
        entry always dies first.  Equal sizes reduce to exact LRU.
        """
        age = max(1, self._seq - entry.last_used_seq + 1)
        return (entry.graph_bytes / age, entry.last_used_seq)

    def _evict_over_capacity_locked(self) -> List[InferenceSession]:
        """Shrink to ``capacity`` by score (lock held).

        Returns the detached sessions for the caller to close outside the
        lock.
        """
        victims: List[InferenceSession] = []
        while len(self._entries) > self.capacity:
            victim = min(self._entries.values(), key=self._eviction_score)
            victims.append(self._detach(victim))
        return victims

    def _touch(self, entry: PoolEntry) -> None:
        self._seq += 1
        entry.last_used_seq = self._seq
        self._entries.move_to_end(entry.handle)

    def _lookup(self, graph: Graph) -> PoolEntry:
        """Get-or-create the entry serving the handle ``graph``.

        A hit is the O(1) :meth:`PoolEntry.holds` check.  On a miss the
        handle is adopted **inside** the pool lock: :meth:`apply_delta`
        mirrors deltas onto handles under the same lock, so a lookup never
        copies arrays that are mid-mutation.  ``prepare()`` itself runs
        *outside* the lock over the adopted handle (which no mirror touches
        while it is claimed), guarded by a per-handle once-flag: two
        concurrent callers handing in the same handle still get exactly one
        preparation (the loser waits on the flag, then re-looks and hits),
        and a slow prepare never blocks other tenants' lookups.
        """
        if not isinstance(graph, Graph):
            raise TypeError(
                f"pool tenants are in-memory Graph handles (deltas are mirrored "
                f"onto them), got {type(graph).__name__}")
        while True:
            victims: List[InferenceSession] = []
            with self._lock:
                entry = self._entries.get(graph)
                if entry is not None and entry.holds():
                    self._hits += 1
                    self._touch(entry)
                    return entry
                if entry is not None:
                    # An array was rebound or unlocked since the pool last
                    # left it: the plan may not describe the handle any more.
                    victims.append(self._detach(entry))
                pending = self._preparing.get(graph)
                claimed = False
                if pending is None:
                    # Claim the (one-off) preparation for this handle; the
                    # adopted handle is read-only from here on.
                    pending = self._preparing[graph] = threading.Event()
                    claimed = True
                    self._misses += 1
                    arrays = _adopt(graph)
                    graph_bytes = _graph_bytes(graph)
            for victim in victims:
                victim.close()
            if not claimed:
                # Another thread is preparing this handle; wait outside the
                # lock, then re-look (normally a hit — unless the preparer
                # failed or the fresh entry was already evicted, in which
                # case this caller claims the retry).
                pending.wait()
                continue
            session = InferenceSession(self.model, self.config)
            started = time.perf_counter()
            try:
                session._prepare(graph, owned=True)
            except BaseException:
                # Hand the handle back and release the claim so a waiter can
                # retry (and surface its own error if the graph is truly
                # unpreparable).
                with self._lock:
                    self._preparing.pop(graph, None)
                    _set_writeable(arrays, True)
                pending.set()
                raise
            prepare_seconds = time.perf_counter() - started
            with self._lock:
                self._prepare_seconds += prepare_seconds
                self._seq += 1
                entry = self._entries[graph] = PoolEntry(
                    handle=graph, session=session, arrays=arrays,
                    graph_bytes=graph_bytes, last_used_seq=self._seq)
                victims = self._evict_over_capacity_locked()
                self._preparing.pop(graph, None)
            pending.set()
            for victim in victims:
                victim.close()
            return entry

    # ------------------------------------------------------------------ #
    def session_for(self, graph: Graph) -> InferenceSession:
        """The prepared session for the handle ``graph`` (recency-touched).

        A cache hit returns the existing session without re-planning — the
        plan-reuse guarantee the pool exists for; a miss prepares a new
        session (and may evict the lowest-scored one).  The session's
        ``plan.graph`` is the handle; send every delta through
        :meth:`apply_delta`, the one writer of the handle (the session's own
        ``apply_delta`` raises ``RuntimeError``).
        """
        return self._lookup(graph).session

    def infer(self, graph: Graph, mode: str = "full") -> InferenceResult:
        """One inference over ``graph`` through its cached (or fresh) plan.

        Pending deferred deltas are already on the handle; the underlying
        ``infer()`` flushes them into the plan.  A flush that raises part-way
        detaches the entry, so the handle's next lookup prepares afresh.  An
        entry evicted before the run is looked up again: a racing eviction
        costs a re-prepare, never an error.

        The execution itself runs *outside* the pool lock, so concurrent
        callers serving different tenants overlap; concurrent callers of one
        tenant serialise on the session's own execution lock.
        """
        while True:
            entry = self._lookup(graph)
            try:
                result = entry.session.infer(mode=mode)
                break
            except BaseException as error:
                if isinstance(error, StalePlanError) and self._evicted(entry):
                    continue
                self._detach_unflushed(entry)
                raise
        with self._lock:
            self._infer_seconds += result.elapsed_seconds
        return result

    def apply_delta(self, graph: Graph, delta: GraphDelta,
                    defer: bool = False) -> DeltaOutcome:
        """Route ``delta`` to the session serving ``graph`` and mirror it
        onto the handle.

        The delta is validated into the session's buffer and mirrored onto
        the **handle** at once — its one landing — so the handle always shows
        what the tenant's next infer serves, and a delta buffered in a session
        that is later evicted is not lost: the handle prepares again from
        content that already includes it.  The session's merged flush then
        patches the plan: at the next ``infer`` with ``defer=True``, right
        here otherwise (the returned outcome is that flush's — a concurrent
        ``infer()`` that got to the buffer first leaves it reporting "no
        pending deltas").  A flush that raises part-way detaches the entry.
        A graph not in the pool is prepared first, and an entry evicted before
        the delta reached it is looked up again.

        Concurrency: the buffer→mirror sequence holds the session's
        ``buffer_lock``, so concurrent deltas to one tenant are buffered and
        mirrored in the **same order**, and no flush can run between the two.
        The mirror additionally runs under the pool lock, the same lock every
        adoption copies under, with the handle's arrays writeable only inside
        it.  Buffering is a fast merge that may overlap the same session's
        in-flight execution (the serving gateway's tick-overlap path; a run
        reads the working graph and partitions, not the handle); only an
        *eager* delta's flush waits for that run to finish — holding neither
        the buffer lock nor the pool lock, so deferred deltas and other
        tenants' lookups keep flowing while it waits.
        """
        while True:
            entry = self._lookup(graph)
            with entry.session.buffer_lock:
                try:
                    outcome = entry.session._buffer_delta(delta)
                except StalePlanError:
                    if self._evicted(entry):
                        continue
                    raise
                victims = self._mirror(graph, entry, delta)
            if victims is None:
                continue
            for victim in victims:
                victim.close()
            break
        if not defer:
            try:
                outcome = entry.session.flush_deltas()
            except BaseException:
                self._detach_unflushed(entry)
                raise
        return outcome

    def _mirror(self, graph: Graph, entry: PoolEntry,
                 delta: GraphDelta) -> Optional[List[InferenceSession]]:
        """Land ``delta``, just buffered in ``entry``'s session, on the handle;
        return the sessions it detached (to close outside the buffer lock),
        or None if the handle is being prepared again: the caller then routes
        the delta to the new entry.
        """
        victims: List[InferenceSession] = []
        with self._lock:
            if graph in self._preparing:
                return None
            live = self._entries.get(graph)
            if live is not None and (live is not entry or not live.holds()):
                # Replaced or rebound since the lookup: the mirror below
                # would change the handle under a plan that lacks it.
                victims.append(self._detach(live))
                live = None
            # A handle the pool let go of is the caller's, never locked.  The
            # session already validated the delta against identical content,
            # so the mirror cannot half-apply.
            if live is not None:
                _set_writeable(_arrays(graph), True)
            apply_delta_to_graph(graph, delta)
            if live is not None:
                # Edge deltas rebind src/dst/edge_features: lock the new arrays.
                _set_writeable(_arrays(graph), False)
                live.arrays = _arrays(graph)
                live.graph_bytes = _graph_bytes(graph)
        return victims

    def evict(self, graph: Graph) -> bool:
        """Drop the session for the handle ``graph``; True if present.

        The evicted session is closed (worker processes and shared-memory
        segments released) and the handle's arrays are writeable again.
        Deltas still *deferred* in its buffer are discarded with it — but
        never lost: :meth:`apply_delta` mirrors every delta onto the handle
        at apply time, so the tenant's next appearance re-prepares from
        content that already includes them.
        """
        with self._lock:
            entry = self._entries.get(graph)
            if entry is None:
                return False
            victim = self._detach(entry)
        victim.close()
        return True

    def clear(self) -> None:
        """Drop every cached session (counters keep accumulating)."""
        with self._lock:
            victims = [self._detach(entry)
                       for entry in list(self._entries.values())]
        for victim in victims:
            victim.close()

    def describe(self) -> str:
        backend = self.config.backend
        return f"SessionPool[{backend}]: {self.stats.describe()}"
