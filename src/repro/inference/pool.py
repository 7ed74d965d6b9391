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
another tenant's behalf.  In-band changes go through
:meth:`SessionPool.apply_delta`, which routes the delta to the owning
session *and* mirrors it onto the caller's graph — the tenant's handle and
the cache key always move together to the post-delta fingerprint.

Capacity is bounded and eviction is **weighted**: every entry carries a
weight from a pluggable ``weigher`` (default: the byte size of the graph
arrays, a deterministic proxy for prepare cost; each entry also records its
*measured* ``prepare_seconds`` for weighers that prefer real cost), and when
a new tenant would exceed ``capacity`` the pool evicts the entry with the
smallest ``weight / age`` score — at equal recency the cheaper-to-rebuild
plan dies first, while an untouched heavy plan still ages out once its
``age`` (pool operations since last use) outgrows its weight advantage.
With equal weights the policy degrades to exact LRU.  Entries may also carry
a **TTL** (``ttl_seconds``): a plan older than its TTL is dropped on its
next lookup (or during an eviction sweep) and re-prepared transparently —
bounded plan age for deployments that prefer periodic re-planning over
unbounded cache lifetime.

Typical multi-tenant flow::

    pool = SessionPool(signature, InferenceConfig(backend="pregel"),
                       capacity=64, ttl_seconds=3600.0)
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
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

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
from repro.inference.session import GraphLike, InferenceResult, InferenceSession

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
    """Byte size of the arrays inference reads — the default entry weight."""
    total = 0
    for array in (graph.src, graph.dst, graph.node_features, graph.edge_features):
        if array is not None:
            total += array.nbytes
    return total


@dataclass
class PoolEntry:
    """One cached session plus the bookkeeping weighted eviction reads.

    ``graph_bytes`` is a deterministic proxy for how expensive the plan was
    to build (preparation is O(edges));``prepare_seconds`` is the *measured*
    wall clock of the ``prepare()`` that built it.  The default weigher uses
    the byte size (stable across runs — timing noise cannot reorder
    equal-content twins); a deployment that prefers real measured cost passes
    ``weigher=lambda entry: entry.prepare_seconds``.
    """

    fingerprint: Fingerprint
    session: InferenceSession
    graph_bytes: int
    prepare_seconds: float
    #: Pool-operation sequence number of the last use (the eviction clock).
    last_used_seq: int
    #: Wall-clock deadline after which the entry re-prepares (None = no TTL).
    expires_at: Optional[float] = None
    hits: int = 0
    weight: float = field(init=False, default=0.0)


Weigher = Callable[[PoolEntry], float]


def default_weigher(entry: PoolEntry) -> float:
    """Weight entries by graph byte size — deterministic prepare-cost proxy."""
    return float(entry.graph_bytes)


@dataclass
class PoolStats:
    """Cache counters for one :class:`SessionPool` (cumulative since creation)."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int
    #: Entries dropped because their TTL elapsed (each also re-prepared on
    #: the tenant's next appearance — counted there as a miss).
    expirations: int = 0
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
                f"{self.evictions} eviction(s), {self.expirations} expired, "
                f"{self.total_prepare_seconds:.3f}s preparing / "
                f"{self.total_infer_seconds:.3f}s serving")


class SessionPool:
    """A weighted, TTL-aware cache of prepared inference sessions.

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
        beyond it evicts the entry with the smallest ``weight / age`` score
        (its plan is rebuilt on the tenant's next appearance).  Each session
        owns a private copy of its tenant's graph arrays (isolation between
        content-equal tenants), so capacity also bounds that memory.
    ttl_seconds:
        Optional per-entry time-to-live measured from ``prepare()`` time.  An
        expired entry is dropped on its next lookup (a transparent
        re-prepare) or during an eviction sweep.  ``None`` (default) keeps
        entries until evicted.
    weigher:
        ``PoolEntry -> float`` returning the eviction weight; heavier entries
        survive lighter ones at equal recency.  Defaults to
        :func:`default_weigher` (graph array bytes).  Use
        ``lambda entry: entry.prepare_seconds`` to weight by measured
        prepare cost.
    clock:
        Monotonic time source for TTLs (injectable for tests).
    """

    def __init__(self, model: Union[GNNModel, ModelSignature],
                 config: Optional[InferenceConfig] = None,
                 capacity: int = 8,
                 ttl_seconds: Optional[float] = None,
                 weigher: Optional[Weigher] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive (or None)")
        self.model = model.build_model() if isinstance(model, ModelSignature) else model
        self.config = config or InferenceConfig()
        self.capacity = int(capacity)
        self.ttl_seconds = ttl_seconds
        self._weigher = weigher or default_weigher
        self._clock = clock
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
        self._expirations = 0
        self._prepare_seconds = 0.0
        self._infer_seconds = 0.0

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, graph: GraphLike) -> bool:
        """Whether ``graph`` (by current content) has a live prepared session."""
        with self._lock:
            # Fingerprint under the lock: apply_delta mirrors deltas onto
            # tenant graphs while holding it, so an unlocked hash could read
            # half-mutated feature rows.
            fingerprint = graph_fingerprint(InferenceSession._ingest(graph))
            entry = self._entries.get(fingerprint)
            return entry is not None and not self._expired(entry)

    def fingerprints(self) -> List[Fingerprint]:
        """Cached fingerprints, least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    def sessions(self) -> Iterator[InferenceSession]:
        """The live sessions, least- to most-recently used."""
        with self._lock:
            return iter([entry.session for entry in self._entries.values()])

    def entries(self) -> List[PoolEntry]:
        """The live cache entries (weights, prepare cost, recency), LRU-first."""
        with self._lock:
            return list(self._entries.values())

    @property
    def stats(self) -> PoolStats:
        with self._lock:
            return PoolStats(hits=self._hits, misses=self._misses,
                             evictions=self._evictions, size=len(self._entries),
                             capacity=self.capacity,
                             expirations=self._expirations,
                             total_prepare_seconds=self._prepare_seconds,
                             total_infer_seconds=self._infer_seconds)

    # ------------------------------------------------------------------ #
    def _expired(self, entry: PoolEntry) -> bool:
        return entry.expires_at is not None and self._clock() >= entry.expires_at

    def _detach(self, entry: PoolEntry, *, expired: bool) -> InferenceSession:
        """Unlink ``entry`` and count the drop (lock held); caller closes.

        ``session.close()`` waits on the victim's execution lock for any
        in-flight run to finish, so it must never run under the pool lock —
        every caller closes the returned session *after* releasing it, so one
        tenant's eviction cannot stall every other tenant's lookup.
        """
        self._entries.pop(entry.fingerprint, None)
        if expired:
            self._expirations += 1
        else:
            self._evictions += 1
        return entry.session

    def _purge_expired_locked(self) -> List[InferenceSession]:
        """Detach every TTL-dead entry (lock held); caller closes them."""
        stale = [entry for entry in self._entries.values() if self._expired(entry)]
        return [self._detach(entry, expired=True) for entry in stale]

    def purge_expired(self) -> int:
        """Drop every entry whose TTL elapsed; returns how many were dropped."""
        with self._lock:
            victims = self._purge_expired_locked()
        for session in victims:
            session.close()
        return len(victims)

    def _eviction_score(self, entry: PoolEntry) -> Tuple[float, int]:
        """Smaller evicts first: ``weight / age``, recency breaking ties.

        ``age`` counts pool operations since the entry's last use, so a heavy
        plan left untouched decays toward eviction instead of squatting
        forever, while at equal recency the lighter (cheaper-to-rebuild)
        entry always dies first.  Equal weights reduce to exact LRU.
        """
        age = max(1, self._seq - entry.last_used_seq + 1)
        return (entry.weight / age, entry.last_used_seq)

    def _evict_over_capacity_locked(self) -> List[InferenceSession]:
        """Shrink to ``capacity`` (lock held): expired first, then by score.

        Returns the detached sessions for the caller to close outside the
        lock.
        """
        victims: List[InferenceSession] = []
        if len(self._entries) > self.capacity:
            victims.extend(self._purge_expired_locked())
        while len(self._entries) > self.capacity:
            victim = min(self._entries.values(), key=self._eviction_score)
            victims.append(self._detach(victim, expired=False))
        return victims

    def _touch(self, entry: PoolEntry) -> None:
        self._seq += 1
        entry.last_used_seq = self._seq
        entry.hits += 1
        entry.weight = float(self._weigher(entry))
        self._entries.move_to_end(entry.fingerprint)

    def _lookup(self, graph: GraphLike) -> Tuple[Fingerprint, InferenceSession]:
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
        while True:
            claimed = False
            expired_session: Optional[InferenceSession] = None
            with self._lock:
                ingested = InferenceSession._ingest(graph)
                fingerprint = graph_fingerprint(ingested)
                entry = self._entries.get(fingerprint)
                if entry is not None and self._expired(entry):
                    # TTL elapsed: drop and fall through to a transparent
                    # re-prepare (counted as a miss — the tenant pays plan
                    # cost).  The dead session closes outside the lock.
                    expired_session = self._detach(entry, expired=True)
                    entry = None
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
                    private = _private_copy(ingested)
                    graph_bytes = _graph_bytes(ingested)
            if expired_session is not None:
                expired_session.close()
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
                session.prepare(private)
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
                entry = PoolEntry(
                    fingerprint=fingerprint,
                    session=session,
                    graph_bytes=graph_bytes,
                    prepare_seconds=prepare_seconds,
                    last_used_seq=self._seq,
                    expires_at=(None if self.ttl_seconds is None
                                else self._clock() + self.ttl_seconds),
                )
                entry.weight = float(self._weigher(entry))
                self._entries[fingerprint] = entry
                victims = self._evict_over_capacity_locked()
                self._preparing.pop(fingerprint, None)
            pending.set()
            for victim in victims:
                victim.close()
            return fingerprint, session

    def _rekey(self, fingerprint: Fingerprint,
               new_fingerprint: Optional[Fingerprint],
               session: InferenceSession) -> None:
        """Move ``session``'s entry to ``new_fingerprint`` after its content changed.

        Deltas change the graph content and therefore the fingerprint; the
        cache key must follow it or the tenant's next lookup would miss.  If
        another tenant already occupies the new fingerprint (two graphs
        converged to the same content), the fresher session replaces it —
        one plan per content.  The move is identity-checked: if a concurrent
        delta already re-keyed the entry elsewhere (the old key no longer
        holds *this* session), there is nothing left to move — re-inserting
        under a stale fingerprint would duplicate the session in the cache.
        """
        with self._lock:
            victims = self._rekey_locked(fingerprint, new_fingerprint, session)
        for victim in victims:
            victim.close()

    def _rekey_locked(self, fingerprint: Fingerprint,
                      new_fingerprint: Optional[Fingerprint],
                      session: InferenceSession) -> List[InferenceSession]:
        """:meth:`_rekey` body (lock held); returns sessions to close."""
        if new_fingerprint is None:
            return []
        entry = self._entries.get(fingerprint)
        if entry is None or entry.session is not session:
            return []
        if new_fingerprint == fingerprint:
            return []
        self._entries.pop(fingerprint, None)
        displaced = self._entries.get(new_fingerprint)
        victims: List[InferenceSession] = []
        if displaced is not None and displaced.session is not session:
            # Two tenants converged to the same content: the fresher
            # session replaces the resident one — one plan per content.
            victims.append(self._detach(displaced, expired=False))
        entry.fingerprint = new_fingerprint
        self._entries[new_fingerprint] = entry
        self._entries.move_to_end(new_fingerprint)
        return victims

    # ------------------------------------------------------------------ #
    def session_for(self, graph: GraphLike) -> InferenceSession:
        """The prepared session for ``graph``'s current content (recency-touched).

        A cache hit returns the existing session without re-planning — the
        plan-reuse guarantee the pool exists for; a miss (or an expired
        entry) prepares a new session (and may evict the lowest-scored one).
        """
        return self._lookup(graph)[1]

    def prepare(self, graph: GraphLike) -> InferenceSession:
        """Warm the cache for ``graph`` without running inference."""
        return self.session_for(graph)

    def infer(self, graph: GraphLike, mode: str = "full") -> InferenceResult:
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
            new_fingerprint = (session.plan.fingerprint
                               if session.plan is not None else None)
            self._rekey(fingerprint, new_fingerprint, session)

    def apply_delta(self, graph: GraphLike, delta: GraphDelta,
                    defer: bool = False) -> DeltaOutcome:
        """Route ``delta`` to the session serving ``graph`` and re-key it.

        The lookup happens against the *pre-delta* content (the delta
        describes a change to the prepared state); the session's private copy
        is patched (or, with ``defer=True``, buffers the delta for one merged
        flush at the next ``infer``), the same delta is mirrored onto the
        **caller's graph** — the tenant's handle is the address, so it must
        track the content — and the entry moves to the post-delta
        fingerprint.  A graph not in the pool is prepared first; the delta
        then lands on that fresh plan.

        Concurrency: the patch→mirror→re-key sequence holds the session's
        delta-routing lock (see
        :meth:`~repro.inference.session.InferenceSession.delta_route_lock`),
        so concurrent deltas to one tenant apply to the session's private
        copy and the caller's handle in the **same order** — the two can
        never diverge.  The mirror and re-key additionally run under the
        pool lock, the same lock every lookup fingerprints under, so no
        reader ever hashes a half-mirrored graph.  With ``defer=True`` the
        patch is a fast buffer merge that may overlap the same session's
        in-flight execution (the serving gateway's tick-overlap path); an
        *eager* delta blocks until any in-flight run on that session
        finishes — without holding the pool lock, so other tenants' lookups
        keep flowing while it waits.

        Only in-memory :class:`~repro.graph.graph.Graph` tenants can apply
        deltas through the pool: a ``(NodeTable, EdgeTable)`` pair is
        re-ingested on every lookup, so there is no caller-side object the
        delta could be mirrored onto — the next lookup would silently serve
        the pre-delta content.  Such callers get a ``TypeError`` instead.
        """
        if not isinstance(graph, Graph):
            raise TypeError(
                "pool.apply_delta requires an in-memory Graph tenant; a "
                "(NodeTable, EdgeTable) pair is re-ingested per lookup, so a "
                "delta applied to it would be lost on the next infer().  "
                "Convert once with tables_to_graph() and hand the Graph in")
        fingerprint, session = self._lookup(graph)
        with session.delta_route_lock(defer=defer):
            outcome = session.apply_delta(delta, defer=defer)
            with self._lock:
                # Mirror onto the caller's handle.  The session already
                # validated the delta against byte-identical content, so this
                # cannot half-apply; under the pool lock, so no concurrent
                # lookup fingerprints the graph mid-mirror.
                if not delta.is_empty:
                    apply_delta_to_graph(graph, delta)
                # A concurrent delta between the lookup and the route lock
                # may already have moved this session's entry, so re-key from
                # wherever it lives *now* (identity, not the looked-up
                # fingerprint) — entries are few, the scan is cheap.
                current = next((key for key, entry in self._entries.items()
                                if entry.session is session), fingerprint)
                victims = self._rekey_locked(current,
                                             graph_fingerprint(graph), session)
        for victim in victims:
            victim.close()
        return outcome

    def evict(self, graph: GraphLike) -> bool:
        """Drop the session for ``graph``'s current content; True if present.

        The evicted session is closed (worker processes and shared-memory
        segments released).  Deltas still *deferred* in its buffer are
        discarded with it — but never lost: :meth:`apply_delta` mirrors every
        delta onto the caller's graph at apply time, so the tenant's next
        appearance re-prepares from content that already includes them.
        """
        with self._lock:
            fingerprint = graph_fingerprint(InferenceSession._ingest(graph))
            entry = self._entries.get(fingerprint)
            if entry is None:
                return False
            victim = self._detach(entry, expired=False)
        victim.close()
        return True

    def clear(self) -> None:
        """Drop every cached session (counters keep accumulating)."""
        with self._lock:
            victims = [self._detach(entry, expired=False)
                       for entry in list(self._entries.values())]
        for victim in victims:
            victim.close()

    def describe(self) -> str:
        backend = self.config.backend
        return f"SessionPool[{backend}]: {self.stats.describe()}"
