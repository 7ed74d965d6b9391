"""Multi-tenant serving: one deployed model, many prepared graphs.

The paper's end state is a serving system — one trained model scoring many
slowly-mutating graphs on a schedule.  :class:`SessionPool` is that tier's
plan cache: it keeps one :class:`~repro.inference.session.InferenceSession`
per *graph content* (keyed by
:func:`~repro.inference.delta.graph_fingerprint`), so N tenant graphs are
each planned once and every later ``infer()`` reuses the cached plan —
partition layout, strategy plan, shadow rewrite and backend state included.

Keying by fingerprint makes the cache **content-addressed**: two tenants
handing in byte-identical graphs share one plan, and a graph that was mutated
out of band simply misses the cache and is planned afresh (its stale entry
ages out through eviction), so the pool can never serve yesterday's plan for
today's bytes.  Each pooled session is prepared over a **private copy** of
the tenant's arrays, so the pool never mutates one tenant's buffers on
another tenant's behalf.  The copy's arrays are read-only outside the
session's own flush, so the session trusts the copy while its plan's
fingerprint is current rather than re-hashing it (a flush that raised
part-way sends the next check to a full re-hash).  The tenant's handle,
which its caller can write, is hashed in full at every lookup and after
every mirrored delta.  In-band changes go through
:meth:`SessionPool.apply_delta`, which routes the delta to the owning
session *and* mirrors it onto the caller's graph — the tenant's handle and
the cache key always move together to the post-delta fingerprint.

Capacity is bounded and eviction is **weighted**: every entry weighs the
byte size of its graph arrays (a deterministic proxy for prepare cost —
preparation is O(edges) — that timing noise cannot reorder), and when a new
tenant would exceed ``capacity`` the pool evicts the entry with the smallest
``bytes / age`` score — at equal recency the cheaper-to-rebuild plan dies
first, while an untouched heavy plan still ages out once its ``age`` (pool
operations since last use) outgrows its weight advantage.  With equal sizes
the policy degrades to exact LRU.

Tenants are in-memory :class:`~repro.graph.graph.Graph` handles (a caller
holding tables converts once with
:func:`~repro.graph.tables.tables_to_graph`).  Typical multi-tenant flow::

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
Every fingerprint (and the private copy a preparation runs over) is computed
*inside* the pool lock — the same lock :meth:`SessionPool.apply_delta` holds
while mirroring a delta onto a tenant's graph — so a concurrent lookup can
never hash or copy arrays that are mid-mutation.  Everything slow runs
*outside* it: ``prepare()`` is guarded by a per-fingerprint once-flag (two
concurrent cold lookups of one content still yield exactly one preparation —
the loser waits for the winner, then hits), ``session.infer()`` never
touches the lock, and an evicted session's ``close()`` — which waits for
any in-flight run on that session — happens only after the lock is
released, so one tenant's eviction or cache miss never stalls another
tenant's lookup.  The asyncio serving gateway (:mod:`repro.serving`) drives
exactly this from a worker thread pool.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.analysis.lockgraph import tracked_rlock

from repro.gnn.model import GNNModel
from repro.gnn.signature import ModelSignature
from repro.graph.graph import Graph
from repro.inference.config import InferenceConfig
from repro.inference.delta import (
    DeltaOutcome,
    GraphDelta,
    apply_delta_to_graph,
    graph_fingerprint,
)
from repro.inference.session import InferenceResult, InferenceSession

Fingerprint = Tuple[int, int, int]


def _private_copy(graph: Graph) -> Graph:
    """A deep copy of the arrays inference reads — the session's own graph.

    Pooled sessions are content-addressed, so several distinct caller objects
    can map to one session; preparing over (and later delta-patching) a
    private copy guarantees the pool never mutates a caller's arrays except
    through the graph explicitly handed to :meth:`SessionPool.apply_delta`.
    """
    return Graph(
        src=graph.src.copy(),
        dst=graph.dst.copy(),
        node_features=None if graph.node_features is None else graph.node_features.copy(),
        edge_features=None if graph.edge_features is None else graph.edge_features.copy(),
        labels=None if graph.labels is None else graph.labels.copy(),
        num_nodes=graph.num_nodes,
    )


def _graph_bytes(graph: Graph) -> int:
    """Byte size of the arrays inference reads — an entry's eviction weight."""
    total = 0
    for array in (graph.src, graph.dst, graph.node_features, graph.edge_features):
        if array is not None:
            total += array.nbytes
    return total


@dataclass
class PoolEntry:
    """One cached session plus the bookkeeping weighted eviction reads."""

    fingerprint: Fingerprint
    session: InferenceSession
    #: Eviction weight: the byte size of the graph the entry now covers (set
    #: at prepare, refreshed by every mirrored delta) — a deterministic proxy
    #: for how expensive the plan is to rebuild (preparation is O(edges)),
    #: stable across runs, so timing noise cannot reorder equal-content twins.
    graph_bytes: int
    #: Pool-operation sequence number of the last use (the eviction clock).
    last_used_seq: int


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
    """A weighted cache of prepared inference sessions.

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
        (its plan is rebuilt on the tenant's next appearance).  Each session
        owns a private copy of its tenant's graph arrays (isolation between
        content-equal tenants), so capacity also bounds that memory.
    """

    def __init__(self, model: Union[GNNModel, ModelSignature],
                 config: Optional[InferenceConfig] = None,
                 capacity: int = 8) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.model = model.build_model() if isinstance(model, ModelSignature) else model
        self.config = config or InferenceConfig()
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Fingerprint, PoolEntry]" = OrderedDict()
        # Guards all bookkeeping (entries, counters, fingerprinting of caller
        # graphs).  Held only for cheap operations: preparation runs outside
        # it behind the per-fingerprint once-flags in ``_preparing``, and
        # detached sessions are closed after it is released.  Contract-checked
        # twice: the `lock-discipline` lint rule forbids slow calls lexically
        # inside `with self._lock:` blocks, and under REPRO_LOCK_TRACK=1 the
        # runtime tracker fails any slow operation entered while holding it.
        self._lock = tracked_rlock("SessionPool._lock", forbid_slow=True)
        # Fingerprints with a prepare() in flight; waiters block on the event
        # (outside the pool lock) and re-run their lookup once it sets.
        self._preparing: Dict[Fingerprint, threading.Event] = {}
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
        """Whether ``graph`` (by current content) has a prepared session."""
        with self._lock:
            # Fingerprint under the lock: apply_delta mirrors deltas onto
            # tenant graphs while holding it, so an unlocked hash could read
            # half-mutated feature rows.
            return graph_fingerprint(graph) in self._entries

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
        """Unlink ``entry`` and count the eviction (lock held); caller closes.

        ``session.close()`` waits on the victim's execution lock for any
        in-flight run to finish, so it must never run under the pool lock —
        every caller closes the returned session *after* releasing it, so one
        tenant's eviction cannot stall every other tenant's lookup.
        """
        self._entries.pop(entry.fingerprint, None)
        self._evictions += 1
        return entry.session

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
        self._entries.move_to_end(entry.fingerprint)

    def _lookup(self, graph: Graph) -> Tuple[Fingerprint, InferenceSession]:
        """Get-or-create the session covering ``graph``'s current content.

        The fingerprint — and, on a miss, the private copy preparation runs
        over — is computed **inside** the pool lock: :meth:`apply_delta`
        mirrors deltas onto tenant graphs under the same lock, so a lookup
        can never hash (or snapshot) arrays that are mid-mutation.
        ``prepare()`` itself runs *outside* the lock over that stable private
        copy, guarded by a per-fingerprint once-flag: two concurrent callers
        handing in the same content still get exactly one preparation (the
        loser waits on the flag, then re-looks and hits), and a slow prepare
        never blocks other tenants' lookups.
        """
        if not isinstance(graph, Graph):
            raise TypeError(
                f"pool tenants are in-memory Graph handles (deltas are mirrored "
                f"onto them), got {type(graph).__name__}; convert a (NodeTable, "
                "EdgeTable) pair once with tables_to_graph()")
        while True:
            claimed = False
            with self._lock:
                fingerprint = graph_fingerprint(graph)
                entry = self._entries.get(fingerprint)
                if entry is not None:
                    self._hits += 1
                    self._touch(entry)
                    return fingerprint, entry.session
                pending = self._preparing.get(fingerprint)
                if pending is None:
                    # Claim the (one-off) preparation for this content; the
                    # snapshot taken here is what prepare() runs over, so no
                    # later mirror can reach it.
                    pending = threading.Event()
                    self._preparing[fingerprint] = pending
                    claimed = True
                    self._misses += 1
                    private = _private_copy(graph)
                    graph_bytes = _graph_bytes(graph)
            if not claimed:
                # Another thread is preparing this content; wait outside the
                # lock, then re-look (normally a hit — unless the preparer
                # failed or the fresh entry was already evicted, in which
                # case this caller claims the retry).
                pending.wait()
                continue
            session = InferenceSession(self.model, self.config)
            started = time.perf_counter()
            try:
                # Owned: the session makes the copy read-only outside its
                # own flush, so it trusts the copy while its plan's
                # fingerprint is current instead of re-hashing it.
                session._prepare(private, owned=True)
            except BaseException:
                # Release the claim so a waiter can retry (and surface its
                # own error if the content is truly unpreparable).
                with self._lock:
                    self._preparing.pop(fingerprint, None)
                pending.set()
                raise
            prepare_seconds = time.perf_counter() - started
            with self._lock:
                self._prepare_seconds += prepare_seconds
                self._seq += 1
                self._entries[fingerprint] = PoolEntry(
                    fingerprint=fingerprint, session=session,
                    graph_bytes=graph_bytes, last_used_seq=self._seq)
                victims = self._evict_over_capacity_locked()
                self._preparing.pop(fingerprint, None)
            pending.set()
            for victim in victims:
                victim.close()
            return fingerprint, session

    def _rekey(self, fingerprint: Fingerprint,
               session: InferenceSession) -> None:
        """Move ``session``'s entry from ``fingerprint`` to the content its
        plan now covers.

        Deltas change the graph content and therefore the fingerprint; the
        cache key must follow it or the tenant's next lookup would miss.  If
        another tenant already occupies the new fingerprint (two graphs
        converged to the same content), the fresher session replaces it —
        one plan per content.  The move is identity-checked: if a concurrent
        delta already re-keyed the entry elsewhere (the old key no longer
        holds *this* session), there is nothing left to move — re-inserting
        under a stale fingerprint would duplicate the session in the cache.
        """
        new_fingerprint = (session.plan.fingerprint
                           if session.plan is not None else None)
        with self._lock:
            victims = self._rekey_locked(fingerprint, new_fingerprint, session)
        for victim in victims:
            victim.close()

    def _rekey_locked(self, fingerprint: Fingerprint,
                      new_fingerprint: Optional[Fingerprint],
                      session: InferenceSession,
                      handle: Optional[Graph] = None) -> List[InferenceSession]:
        """:meth:`_rekey` body (lock held); returns sessions to close.

        ``handle`` is the tenant graph a delta was just mirrored onto: the
        entry's eviction weight follows its new byte size.
        """
        if new_fingerprint is None:
            return []
        entry = self._entries.get(fingerprint)
        if entry is None or entry.session is not session:
            return []
        if handle is not None:
            entry.graph_bytes = _graph_bytes(handle)
        if new_fingerprint == fingerprint:
            return []
        self._entries.pop(fingerprint, None)
        displaced = self._entries.get(new_fingerprint)
        victims: List[InferenceSession] = []
        if displaced is not None and displaced.session is not session:
            # Two tenants converged to the same content: the fresher
            # session replaces the resident one — one plan per content.
            victims.append(self._detach(displaced))
        entry.fingerprint = new_fingerprint
        self._entries[new_fingerprint] = entry
        self._entries.move_to_end(new_fingerprint)
        return victims

    # ------------------------------------------------------------------ #
    def session_for(self, graph: Graph) -> InferenceSession:
        """The prepared session for ``graph``'s current content (recency-touched).

        A cache hit returns the existing session without re-planning — the
        plan-reuse guarantee the pool exists for; a miss prepares a new
        session (and may evict the lowest-scored one).  The session's
        ``plan.graph`` is the pool's private copy: its arrays are read-only,
        and only the session's own flush writes them.
        """
        return self._lookup(graph)[1]

    def infer(self, graph: Graph, mode: str = "full") -> InferenceResult:
        """One inference over ``graph`` through its cached (or fresh) plan.

        Pending deferred deltas on the owning session are flushed by the
        underlying ``infer()`` against the session's private copy; the cache
        entry was already moved to the post-delta fingerprint when
        :meth:`apply_delta` mirrored those deltas onto the caller's graph,
        so the tenant's handle keeps hitting.  (The safety-net re-key here
        only matters when deltas were applied directly on a session obtained
        via :meth:`session_for`, bypassing the pool.)

        The execution itself runs *outside* the pool lock, so concurrent
        callers serving different tenants overlap; concurrent callers of one
        tenant serialise on the session's own execution lock.
        """
        fingerprint, session = self._lookup(graph)
        try:
            result = session.infer(mode=mode)
            with self._lock:
                self._infer_seconds += result.elapsed_seconds
            return result
        finally:
            self._rekey(fingerprint, session)

    def apply_delta(self, graph: Graph, delta: GraphDelta,
                    defer: bool = False) -> DeltaOutcome:
        """Route ``delta`` to the session serving ``graph`` and re-key it.

        The lookup happens against the *pre-delta* content (the delta
        describes a change to the prepared state); the delta is validated
        into the session's buffer, mirrored onto the **caller's graph** — the
        tenant's handle is the address, so it must track the content — and
        the entry moves to the post-delta fingerprint.  The plan patch itself
        is the session's one merged flush: at the next ``infer`` with
        ``defer=True``, right here otherwise (the returned outcome is that
        flush's — a concurrent ``infer()`` that got to the buffer first
        leaves it reporting "no pending deltas").  A graph not in the pool is
        prepared first; the delta then lands on that fresh plan.

        Concurrency: the buffer→mirror→re-key sequence holds the session's
        ``buffer_lock``, so concurrent deltas to one tenant reach the
        session's private copy and the caller's handle in the **same order**
        — the two can never diverge — and no flush can run between a delta's
        buffering and its mirror.  The mirror and re-key additionally run
        under the pool lock, the same lock every lookup fingerprints under,
        so no reader ever hashes a half-mirrored graph.  Buffering is a fast
        merge that may overlap the same session's in-flight execution (the
        serving gateway's tick-overlap path); only an *eager* delta's flush
        waits for that run to finish — holding neither the buffer lock nor
        the pool lock, so deferred deltas and other tenants' lookups keep
        flowing while it waits.
        """
        fingerprint, session = self._lookup(graph)
        with session.buffer_lock:
            outcome = session.apply_delta(delta, defer=True)
            with self._lock:
                # Mirror onto the caller's handle.  The session already
                # validated the delta against byte-identical content, so this
                # cannot half-apply; under the pool lock, so no concurrent
                # lookup fingerprints the graph mid-mirror.
                if not delta.is_empty:
                    apply_delta_to_graph(graph, delta)
                mirrored = graph_fingerprint(graph)
                # A concurrent delta between the lookup and the buffer lock
                # may already have moved this session's entry, so re-key from
                # wherever it lives *now* (identity, not the looked-up
                # fingerprint) — entries are few, the scan is cheap.
                current = next((key for key, entry in self._entries.items()
                                if entry.session is session), fingerprint)
                victims = self._rekey_locked(current, mirrored, session, graph)
        for victim in victims:
            victim.close()
        if not defer:
            try:
                outcome = session.flush_deltas()
            finally:
                # A flush that raised left the private copy pre-delta while
                # the handle already carries it: move the entry back to what
                # the plan covers, so the handle misses (and re-prepares)
                # instead of being served the pre-delta plan.
                self._rekey(mirrored, session)
        return outcome

    def evict(self, graph: Graph) -> bool:
        """Drop the session for ``graph``'s current content; True if present.

        The evicted session is closed (worker processes and shared-memory
        segments released).  Deltas still *deferred* in its buffer are
        discarded with it — but never lost: :meth:`apply_delta` mirrors every
        delta onto the caller's graph at apply time, so the tenant's next
        appearance re-prepares from content that already includes them.
        """
        with self._lock:
            entry = self._entries.get(graph_fingerprint(graph))
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
