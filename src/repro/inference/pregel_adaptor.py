"""InferTurbo adaptor for the Pregel-like graph processing backend.

One superstep per GNN layer plus an initialisation superstep:

* superstep 0 — encode raw features into the layer-0 input state and scatter
  the first messages along out-edges;
* superstep s (1 ≤ s < L) — gather the messages produced in superstep s-1, run
  layer s-1's ``apply_node``, then scatter layer s's messages;
* superstep L — final gather/apply_node and the prediction head; no scatter.

The stages themselves live in :mod:`repro.inference.gas`; what this module
owns is the transport.  Messages arrive in a mailbox of packed
:class:`~repro.pregel.vertex.MessageBlock`\\ s and leave as one plain block
plus one :class:`~repro.inference.strategies.BroadcastMessageBlock` per
superstep (partial-gather rides on the per-superstep combiner); node state,
out-edges and features stay in partition memory (``block_state``) across
supersteps — the defining property of this backend.

Incremental inference
---------------------

A session that applied a :class:`~repro.inference.delta.GraphDelta` in place
can rerun just the delta's reach: full runs cache, per partition, the state
of every superstep a later superstep reads (``h_history``: supersteps 0 to
L-1) and the logits (``output``); an incremental run walks a per-superstep
dirty frontier (:func:`~repro.inference.delta.expand_frontier`), sends only
messages bound for next-frontier destinations, recomputes only frontier
rows, and writes them into the cached states.  Superstep L's state is read
by nothing but the head, so no run keeps it: an incremental superstep L
predicts from the frontier rows it computed and splices only their logits
into ``output``.  What it sends it selects from the
partition's resident :class:`SendSchedule`, destination by destination.
Bit-identity with a fresh full run rests on the stage module's row-subset
rule plus one transport rule kept here: per-destination message *sets and
order* are unchanged — a selection keeps all of a frontier destination's
rows, in full-run order, and drops whole destinations, so the
order-sensitive segment reductions accumulate identical bits.  An in-place
edge delta patches the schedule rather than dropping it, in time
proportional to what it touches plus one renumbering pass: the rows of
each destination that lost or gains an edge are rewritten — its surviving
rows in order, then the appended edges' rows, where a fresh build puts
them — and every other destination's stay where they are.

With partial-gather on, a destination's rows from one partition leave as one
folded partial, and most of a tick's partials fold rows that did not change.
So the schedule also keeps, per superstep, a memo of the partials its
incremental sends folded (keyed by destination, two rows or more).  A
selected destination none of whose rows comes from a frontier row copies its
partial from the memo; only the others are gathered and folded.  The folded
block ``route`` receives has the same rows, order and bits as a fresh fold,
so the wire, the receivers and every record and byte counter are unchanged;
only the compute charged for the rows not gathered goes.  A full run drops
the memo, and an edge patch invalidates every destination whose rows it
changes.  Like the schedule, the memo lives where the partition runs: a
process worker keeps both between runs, and a respawned one runs in full.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.layout import ClusterLayout, spans, stable_group_by
from repro.cluster.metrics import MetricsCollector, tensor_bytes
from repro.gnn.model import GNNModel
from repro.graph.graph import Graph
from repro.inference import gas
from repro.inference.config import InferenceConfig
from repro.inference.shadow import ReplicaMap
from repro.inference.strategies import LayerStrategy, StrategyPlan
from repro.pregel.combiners import MessageCombiner
from repro.pregel.engine import PregelEngine, PregelPartition
from repro.pregel.vertex import (
    BlockVertexProgram,
    MessageBlock,
    PartitionContext,
    Schedule,
    bucket_slices,
    concat_messages,
    route_schedule,
)

_EMPTY = np.empty(0, dtype=np.int64)

#: per-superstep, per-partition local frontier rows (the engine's schedule).
FrontierSchedule = List[Dict[int, np.ndarray]]


class Destinations(NamedTuple):
    """The next frontier, as a superstep's incremental send reads it.

    ``ids`` are the frontier's node ids in bucket order — grouped by owner,
    ascending within an owner — and owner ``b``'s run is
    ``ids[bounds[b]:bounds[b + 1]]``.  Frontiers are replica-closed, so this
    names every expanded destination (mirrors included) a kept message has.
    """

    ids: np.ndarray
    bounds: np.ndarray


#: Once the runs edge patches have rewritten leave garbage past this share
#: of an index's live entries, the patch compacts the index.
REBUILD_FRACTION = 0.25


class _ByDestination:
    """One path of a :class:`~repro.inference.gas.Routed`, per destination.

    A table of send entries, one per (edge, delivered destination) pair.
    Per entry: its edge's current out-edge row (``edge``), its ``dst``,
    whether it delivers the edge to the edge's own destination (every edge
    has exactly one such entry; the rest are its mirror fan-out) and, on the
    broadcast path, the position of the edge's source in the plan's sorted
    hub array (``hub`` is None on the plain path).  Destination ``d``'s
    entries are the run of ``count[d]`` from ``start[d]``, in a fresh
    build's order (both ``int32``: together, the bytes of one ``int64``
    table over node ids).

    An edge patch renumbers every entry's row with one gather (a removed
    edge's entries read -1: dead) and rewrites only the runs of the
    destinations it touches — those that lost an entry or gain one: each
    such run's live entries, then the appended edges' entries bound there,
    go to the end of the table, where a fresh build's order puts them, and
    the old run is left as garbage (its rows set to -1).  Once garbage
    passes :data:`REBUILD_FRACTION` of the live entries, the patch compacts
    the table.
    """

    def __init__(self, edge: np.ndarray, dst: np.ndarray, own: np.ndarray,
                 hub: Optional[np.ndarray], num_nodes: int) -> None:
        order = np.argsort(dst, kind="stable")
        self.edge, self.dst, self.own = edge[order], dst[order], own[order]
        self.hub = None if hub is None else hub[order]
        self.count = np.bincount(dst, minlength=num_nodes).astype(np.int32)
        self.start = (np.cumsum(self.count) - self.count).astype(np.int32)
        self.used, self.garbage = order.size, 0

    def _fields(self) -> List[str]:
        return ["edge", "dst", "own"] + ([] if self.hub is None else ["hub"])

    def take(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The entries bound for ``ids``: ``(rows, own, hub, ends)``.

        Destination by destination in ``ids`` order, each in a fresh build's
        order: their out-edge rows, ``own`` flags and hub positions (empty
        on the plain path); ``ends[k]`` is how many precede destination
        ``k``'s (one more element: the total).
        """
        position, ends = spans(self.start[ids], self.count[ids])
        return (self.edge[position], self.own[position],
                _EMPTY if self.hub is None else self.hub[position], ends)

    def patch(self, renumber: Optional[np.ndarray], edge: np.ndarray, dst: np.ndarray,
              own: np.ndarray, hub: Optional[np.ndarray]) -> np.ndarray:
        """Renumber the rows (``renumber``: -1 for a removed row; None when
        none is) and append the entries ``edge``/``dst``/``own``/``hub``;
        returns the destinations whose runs changed."""
        touched = dst
        if renumber is not None:
            old = self.edge[:self.used]
            new = renumber[old]
            killed = np.flatnonzero((new < 0) & (old >= 0))
            self.edge[:self.used] = new
            touched = np.concatenate([self.dst[killed], dst])
        touched = np.unique(touched)
        if not touched.size:
            return touched
        runs, _ = spans(self.start[touched], self.count[touched])
        moved = runs[self.edge[runs] >= 0]
        # each touched run's live entries, then its appended ones, in order
        order = np.argsort(np.concatenate([self.dst[moved], dst]), kind="stable")
        end = self.used + order.size
        fields = self._fields()
        if end > self.edge.size:        # room up to the compaction point
            room = end + int(REBUILD_FRACTION * (end - self.garbage)) + 1
            for name in fields:
                grown = np.empty(room, dtype=getattr(self, name).dtype)
                grown[:self.used] = getattr(self, name)[:self.used]
                setattr(self, name, grown)
        for name, values in zip(fields, (edge, dst, own, hub)):
            column = getattr(self, name)
            column[self.used:end] = np.concatenate([column[moved], values])[order]
        self.edge[runs] = -1
        self.garbage += runs.size
        counts = np.bincount(np.searchsorted(touched, self.dst[self.used:end]),
                             minlength=touched.size)
        self.count[touched] = counts
        self.start[touched] = self.used + np.cumsum(counts) - counts
        self.used = end
        return touched

    @property
    def stale(self) -> bool:
        """Whether garbage has passed :data:`REBUILD_FRACTION` of the live entries."""
        return self.garbage > REBUILD_FRACTION * (self.used - self.garbage)

    def compacted(self) -> "_ByDestination":
        """The live runs as a fresh table."""
        num_nodes = self.count.size
        rows, own, hub, ends = self.take(np.arange(num_nodes))
        return _ByDestination(rows, np.repeat(np.arange(num_nodes), self.count), own,
                              None if self.hub is None else hub, num_nodes)


class _PartialMemo:
    """One superstep's folded partials, kept from a partition's incremental sends.

    Destination ``d``'s partial — the combiner's fold of every row this
    partition sends it, in send order — is ``partials[row_of[d]]`` while
    ``valid[d]``.  Only partials of two or more rows are kept (a one-row
    partial is the message itself).  A row, once given to a destination, is
    reused for it, so the store grows with the destinations ever kept, not
    with the writes, and by a quarter at a time.
    """

    def __init__(self, num_nodes: int) -> None:
        self.row_of = np.full(num_nodes, -1, dtype=np.int32)
        self.valid = np.zeros(num_nodes, dtype=bool)
        self.partials = np.empty((0, 0))
        self.size = 0

    def read(self, dst_ids: np.ndarray) -> np.ndarray:
        return self.partials[self.row_of[dst_ids]]

    def write(self, dst_ids: np.ndarray, partials: np.ndarray) -> None:
        if not dst_ids.size:
            return
        new = dst_ids[self.row_of[dst_ids] < 0]
        if new.size:
            end = self.size + new.size
            if end > self.partials.shape[0]:
                grown = np.empty((max(self.partials.shape[0] * 5 // 4, end),
                                  partials.shape[1]))
                if self.size:
                    grown[:self.size] = self.partials[:self.size]
                self.partials = grown
            self.row_of[new] = np.arange(self.size, end)
            self.size = end
        self.partials[self.row_of[dst_ids]] = partials
        self.valid[dst_ids] = True


class _Refold(NamedTuple):
    """How an incremental send folds its plain block, reusing a memo.

    ``fold = (dst_ids, slot, counts)`` is the whole send's fold — its
    destinations in bucket order — with ``slot`` over the rows the plain
    block holds.  The destinations ``reused`` marks have no rows there: they
    copy their partial from ``memo``.
    """

    combiner: MessageCombiner
    memo: _PartialMemo
    fold: Tuple[np.ndarray, np.ndarray, np.ndarray]
    reused: np.ndarray

    def apply(self, blocks: List[MessageBlock]) -> List[MessageBlock]:
        """``blocks`` with the folded block in place of the plain one.

        Every partial folded here from two rows or more is written to the memo.
        """
        dst_ids, slot, counts = self.fold
        if not slot.size:               # every partial is reused: no plain block
            return [MessageBlock(dst_ids, self.memo.read(dst_ids), counts)] + blocks
        folded = self.combiner.combine_block(blocks[0], self.fold)
        kept = ~self.reused & (counts > 1)
        self.memo.write(dst_ids[kept], folded.payload[kept])
        if self.reused.any():           # their rows hold the op's identity until now
            folded.payload[self.reused] = self.memo.read(dst_ids[self.reused])
        return [folded] + blocks[1:]


def _used_hubs(refs: np.ndarray, rows: np.ndarray,
               num_hubs: int) -> Tuple[np.ndarray, np.ndarray]:
    """The hubs ``refs`` uses, in table order: ``(payload rows, rerank)``.

    Reference ``i`` stands for edge ``rows[i]``; each used hub gets one of
    its edges as its payload row (every edge of a hub carries the same
    payload), and ``rerank`` maps an old reference to its new one.
    """
    used = np.zeros(num_hubs, dtype=bool)
    used[refs] = True
    payload_row = np.empty(num_hubs, dtype=np.int64)
    payload_row[refs] = rows
    return payload_row[used], np.cumsum(used) - 1


class SendSchedule:
    """A partition's resident routing of its out-edges for one layer kind.

    :meth:`routed` is the :class:`~repro.inference.gas.Routed` of every
    out-edge (hub split, mirror fan-out) and ``schedule`` the
    :class:`~repro.pregel.vertex.Schedule` of the blocks a full superstep
    sends from it, kept by the first full superstep that routes them.  Both
    depend on the out-edges, the layout and the hub split alone, so a full
    superstep only moves values.  An incremental superstep picks its rows
    destination by destination (:meth:`select`) from a per-destination index
    of each path (:class:`_ByDestination`), built from the full routing by
    the first selection.

    An in-place edge delta patches the indexes (:meth:`patch`): only the
    appended edges are routed (``gas.scatter``), one gather renumbers every
    entry's row, and only the runs of the destinations the delta touches
    are rewritten (:class:`_ByDestination`).  The full routing and schedule
    go; the next full run rebuilds them.

    ``memos`` keeps, per superstep, the partials a folding incremental send
    folded (:class:`_PartialMemo`), so a later one copies every partial none
    of whose rows changed instead of gathering and folding it again.  Only
    incremental sends write it, a full run drops it, and an edge patch
    invalidates every destination whose plain rows it changes.
    """

    def __init__(self, strategy: LayerStrategy, plan: StrategyPlan,
                 replicas: Optional[ReplicaMap]) -> None:
        self.strategy, self.plan, self.replicas = strategy, plan, replicas
        self._routed: Optional[gas.Routed] = None
        self.schedule: Optional[Schedule] = None
        self._by_dst: Optional[Tuple[_ByDestination, _ByDestination]] = None
        self.memos: Dict[int, _PartialMemo] = {}

    def routed(self, partition: PregelPartition) -> gas.Routed:
        """The full run's routing of every out-edge, built on first use."""
        if self._routed is None:
            self._routed = gas.scatter(self.strategy, self.plan, self.replicas,
                                       partition.out_src, partition.out_dst)
        return self._routed

    def _index(self, partition: PregelPartition, plain_rows: np.ndarray,
               plain_dst: np.ndarray, ref_rows: np.ndarray, hub_dst: np.ndarray) -> None:
        """Index the routing these entries make."""
        num_nodes = partition.layout.num_nodes
        out_src, out_dst = partition.out_src, partition.out_dst
        self._by_dst = (
            _ByDestination(plain_rows, plain_dst, out_dst[plain_rows] == plain_dst, None,
                           num_nodes),
            _ByDestination(ref_rows, hub_dst, out_dst[ref_rows] == hub_dst,
                           np.searchsorted(self.plan.out_degree_hubs, out_src[ref_rows]),
                           num_nodes))

    def by_destination(self, partition: PregelPartition,
                       ) -> Tuple[_ByDestination, _ByDestination]:
        """The per-destination indexes: plain path, broadcast path.

        Built on first use, so batch runs never pay for them; patched in
        place from then on.
        """
        if self._by_dst is None:
            full = self.routed(partition)
            self._index(partition, full.plain_rows, full.plain_dst, full.ref_rows, full.hub_dst)
        assert self._by_dst is not None
        return self._by_dst

    def patch(self, partition: PregelPartition, kept: np.ndarray) -> None:
        """Follow the partition's out-edges: the old ones ``kept`` marks, then appends.

        A patch that removes and appends nothing changes nothing.  Otherwise
        only the appended edges are routed; indexes not built yet are built
        from the kept routing plus theirs, and built ones rewrite the runs
        of the destinations that lost or gain an entry
        (:meth:`_ByDestination.patch`).  The hub set never changes in place
        (a hub move re-plans), so the survivors' path split stays valid.
        Every memo forgets those destinations on the plain path, mirror
        fan-out included: their partials fold other rows now.
        """
        removed = np.flatnonzero(~kept)
        start = kept.size - removed.size
        old, indexes = self._routed, self._by_dst
        if start == kept.size == partition.num_out_edges or (old is None and indexes is None):
            return
        new = gas.scatter(self.strategy, self.plan, self.replicas,
                          partition.out_src[start:], partition.out_dst[start:])
        self._routed = self.schedule = None
        # a survivor's new row; -1 for a removed row, and at index -1
        renumber = np.full(kept.size + 1, -1, dtype=np.int64)
        renumber[np.flatnonzero(kept)] = np.arange(start)
        plain_rows, ref_rows = start + new.plain_rows, start + new.ref_rows
        if indexes is None:
            assert old is not None
            plain, refs = kept[old.plain_rows], kept[old.ref_rows]
            self._index(partition,
                        np.concatenate([renumber[old.plain_rows[plain]], plain_rows]),
                        np.concatenate([old.plain_dst[plain], new.plain_dst]),
                        np.concatenate([renumber[old.ref_rows[refs]], ref_rows]),
                        np.concatenate([old.hub_dst[refs], new.hub_dst]))
            return
        rows = renumber if removed.size else None
        out_src, out_dst = partition.out_src, partition.out_dst
        plain, hub = indexes
        touched = plain.patch(rows, plain_rows, new.plain_dst,
                              out_dst[plain_rows] == new.plain_dst, None)
        hub.patch(rows, ref_rows, new.hub_dst, out_dst[ref_rows] == new.hub_dst,
                  np.searchsorted(self.plan.out_degree_hubs, out_src[ref_rows]))
        for memo in self.memos.values():
            memo.valid[touched] = False
        self._by_dst = (plain.compacted() if plain.stale else plain,
                        hub.compacted() if hub.stale else hub)

    def select(self, partition: PregelPartition, targets: Destinations,
               combiner: Optional[MessageCombiner], superstep: int, changed: np.ndarray,
               ) -> Optional[Tuple[np.ndarray, gas.Routed, Schedule, Optional[_Refold]]]:
        """The part of a full send bound for ``targets``: ``(edges, routed, schedule, refold)``.

        ``edges`` are the out-edge rows to compute, ``routed`` is over those
        rows and ``schedule`` routes the blocks they become; None when
        nothing is bound for ``targets``.  Rows are taken destination by
        destination in bucket order, each destination's in full-run order,
        so every cut is a slice and a fold's slot is the rank of its
        destination.  The work is proportional to the rows taken.

        A send with a ``combiner`` folds itself (``refold``; ``route`` only cuts):
        a destination whose ``superstep`` memo entry is valid and none of
        whose rows comes from a ``changed`` row (a bool per local row: its
        state, so its messages, may have changed since that entry was
        written) copies the entry, and its rows are neither selected nor
        computed.  A destination and its mirrors share their rows, so they
        are copied or folded together.
        """
        plain, hub = self.by_destination(partition)
        ids, bounds = targets
        plain_edge, own, _, plain_ends = plain.take(ids)
        plain_count = np.diff(plain_ends)
        cuts: List[List[Tuple[int, Any]]] = []
        refold: Optional[_Refold] = None
        if plain_edge.size and combiner is not None:
            sent = np.nonzero(plain_count)[0]
            rank = np.zeros(ids.size + 1, dtype=np.int64)
            np.cumsum(plain_count > 0, out=rank[1:])
            cuts.append(bucket_slices(rank[bounds]))
            slot, dst_ids = np.repeat(rank[:-1], plain_count), ids[sent]
            memo = self.memos.get(superstep)
            if memo is None:
                memo = self.memos[superstep] = _PartialMemo(partition.layout.num_nodes)
            reused = memo.valid[dst_ids]
            stale = changed[partition.block_state["out_src_local"][plain_edge]]
            reused[slot[stale]] = False
            fresh = ~reused[slot]
            plain_edge, own, slot = plain_edge[fresh], own[fresh], slot[fresh]
            plain_dst = dst_ids[slot]
            refold = _Refold(combiner, memo, (dst_ids, slot, plain_count[sent]), reused)
        else:
            plain_dst = np.repeat(ids, plain_count)
            if plain_edge.size:
                cuts.append(bucket_slices(plain_ends[bounds]))
        edges = plain_edge[own]
        hub_refs, hub_dst, hub_edge = _EMPTY, _EMPTY, _EMPTY
        if hub.used:
            hub_edge, hub_own, hub_refs, hub_ends = hub.take(ids)
            hub_dst = np.repeat(ids, np.diff(hub_ends))
            edges = np.concatenate([edges, hub_edge[hub_own]])
            if hub_edge.size:
                cuts.append(bucket_slices(hub_ends[bounds]))
        if not edges.size and refold is None:
            return None
        where = np.empty(partition.num_out_edges, dtype=np.int64)
        where[edges] = np.arange(edges.size)
        # the broadcast block carries only the hubs its references use
        hub_rows, rerank = _used_hubs(hub_refs, where[hub_edge],
                                      self.plan.out_degree_hubs.size)
        routed = gas.Routed(where[plain_edge], plain_dst, hub_rows,
                            rerank[hub_refs], hub_dst, where[hub_edge])
        return edges, routed, Schedule([], None, cuts), refold


class GNNInferenceProgram(BlockVertexProgram):
    """Block vertex program that runs a GAS GNN model layer by layer.

    ``cache_states=True`` makes a full run record the states of supersteps
    ``0 … L-1`` (and the final logits) in partition ``block_state`` — the
    warm cache incremental runs write into.  Passing ``targets`` makes the run
    incremental against that cache: ``context.frontier_rows`` names the local
    rows to recompute and ``targets[superstep]`` the next frontier, whose
    messages must still be sent.  Nodes below ``num_outputs`` are the
    graph's own, whose logits are the scores; the shadow rewrite's mirrors
    sit above them.
    """

    def __init__(self, model: GNNModel, plan: StrategyPlan,
                 replicas: Optional[ReplicaMap] = None,
                 cache_states: bool = False,
                 targets: Optional[Sequence[Destinations]] = None, *,
                 num_outputs: int) -> None:
        self.model = model
        self.plan = plan
        self.replicas = replicas
        self.num_outputs = num_outputs
        self.num_layers = model.num_layers
        #: per superstep, the width of the node state it computes
        self.widths = [model.encoder.out_features] + [layer.output_dim
                                                      for layer in model.layers]
        self.targets = targets
        self.incremental = targets is not None
        self.cache_states = bool(cache_states) or self.incremental

    # ------------------------------------------------------------------ #
    def max_supersteps(self) -> int:
        return self.num_layers + 1

    def combiner_for_superstep(self, superstep: int) -> Optional[MessageCombiner]:
        """Partial-gather: the consuming layer's combiner (or None)."""
        if superstep >= self.num_layers:
            return None
        return self.plan.layer(superstep).combiner

    def setup_partition(self, partition: PregelPartition) -> None:
        """Reset per-run state; reuse the layout-derived out-edge index.

        ``out_src_local`` depends only on the partition layout, so the
        partition keeps it across runs (beside the send schedules ``_scatter``
        keeps); an in-place edge delta patches it where the partition runs
        (its survivors' rows, then the appended ones'), before this.  An
        incremental run keeps the cached ``h_history``/``output`` (that cache
        *is* its input); a full run resets them and drops the schedules'
        memos, whose partials it may not reproduce.
        """
        if "out_src_local" not in partition.block_state:
            partition.block_state["out_src_local"] = partition.local_indices(partition.out_src)
        partition.block_state.pop("h", None)
        if self.incremental:
            if not has_cached_run(partition, self.num_layers):
                raise RuntimeError(
                    "incremental inference requires cached superstep states "
                    "from a previous full run on this plan")
            return
        partition.block_state["output"] = None
        for resident in partition.block_state.get("send_schedule", {}).values():
            resident.memos.clear()
        if self.cache_states:
            partition.block_state["h_history"] = [None] * self.num_layers
        else:
            partition.block_state.pop("h_history", None)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _assemble_messages(partition: PregelPartition, incoming: List[MessageBlock],
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenate incoming blocks into (payload, local_dst, counts)."""
        dst, payload, counts = concat_messages(incoming)
        return payload, partition.local_indices(dst), counts

    def _scatter(self, context: PartitionContext, partition: PregelPartition,
                 state: np.ndarray, superstep: int) -> None:
        """Send this superstep's out-edge messages from the resident schedule.

        A full superstep sends every edge; an incremental one the selection
        bound for the next frontier — every row of each such destination, in
        full-run order, so it still receives its complete in-message set —
        folding itself, with each unchanged partial copied from the memo.
        """
        if partition.num_out_edges == 0:
            return
        # Which edge feeds which block row, fold slot and owner bucket depends
        # on topology, layout and ``key`` alone: the partition keeps it.
        strategy = self.plan.layer(superstep)
        key = (strategy.broadcast, strategy.combiner is not None)
        kept = partition.block_state.setdefault("send_schedule", {})
        resident = kept.get(key)
        if resident is None:
            resident = kept[key] = SendSchedule(strategy, self.plan, self.replicas)
        src_pos, features = partition.block_state["out_src_local"], partition.out_edge_features
        edges: Union[slice, np.ndarray]
        refold: Optional[_Refold] = None
        if self.targets is None:
            edges, routed, schedule = slice(None), resident.routed(partition), resident.schedule
        else:
            # an out-edge's message may have changed iff its source is a
            # frontier row: every other state row keeps its cached bits
            changed = np.zeros(partition.num_nodes, dtype=bool)
            changed[context.frontier_rows] = True
            picked = resident.select(partition, self.targets[superstep], strategy.combiner,
                                     superstep, changed)
            if picked is None:
                return
            edges, routed, schedule, refold = picked
        blocks, units = gas.scatter_blocks(
            self.model, self.plan, self.replicas, superstep, state, src_pos[edges],
            partition.out_src[edges], partition.out_dst[edges],
            None if features is None else features[edges], routed=routed)
        if refold is not None:
            blocks = refold.apply(blocks)
        if schedule is None:
            schedule = resident.schedule = route_schedule(blocks, key[1], partition.layout)
        context.schedule = schedule
        context.metrics.add_compute(units)
        for block in blocks:
            context.send_block(block)

    # ------------------------------------------------------------------ #
    def compute_partition(self, context: PartitionContext,
                          incoming: List[MessageBlock]) -> None:
        partition = context.partition
        superstep = context.superstep
        store = partition.block_state
        # ``rows`` is the row set this superstep recomputes: None = every row
        # (a full run); an incremental run writes its frontier rows into the
        # cached state, everything else keeps the cached bits — which a fresh
        # run would reproduce exactly.
        rows = context.frontier_rows if self.incremental else None
        idle = rows is not None and (rows.size == 0 or not partition.num_nodes)

        if not idle:
            if superstep == 0:
                state, units = gas.encode(self.model, partition.node_features, rows)
            else:
                payload, local_dst, counts = self._assemble_messages(partition, incoming)
                state, units = gas.gather_apply(self.model.layers[superstep - 1],
                                                store["h"], payload, local_dst,
                                                counts, rows)
            context.metrics.add_compute(units)
        if superstep == self.num_layers:
            # the last state feeds the head alone: predict from the rows just
            # computed and keep only their logits
            store.pop("h", None)
            if not idle:
                logits, units = gas.predict(self.model, state)
                context.metrics.add_compute(units)
                if rows is None:
                    store["output"] = logits
                else:
                    gas.splice(store["output"], logits, rows)
            return
        if idle:
            state = store["h_history"][superstep]
        elif rows is not None:
            state = gas.splice(store["h_history"][superstep], state, rows)
        store["h"] = state
        if self.cache_states:
            store["h_history"][superstep] = state
        self._scatter(context, partition, state, superstep)

    def state_shape(self, partition: PregelPartition, superstep: int) -> Tuple[int, int]:
        """The shape of the superstep's node state in ``partition`` — held or not."""
        return partition.num_nodes, self.widths[superstep]

    def state_bytes(self, partition: PregelPartition, superstep: int) -> float:
        """The superstep's full state (+ the earlier cached superstep states
        an incremental-capable session keeps warm)."""
        store = partition.block_state
        resident = tensor_bytes(self.state_shape(partition, superstep))
        if self.cache_states:
            resident += sum(float(h.nbytes) for h in store["h_history"][:superstep]
                            if h is not None)
        return resident

    def result(self, partition: PregelPartition) -> Any:
        """The partition's logits, one row per node it owns."""
        return partition.block_state["output"]

    def scores(self, partitions: Sequence[PregelPartition],
               outputs: Sequence[np.ndarray]) -> np.ndarray:
        """The dense ``[num_outputs, C]`` scores the partitions' results hold."""
        scores = np.zeros((self.num_outputs, self.model.output_dim))
        for partition, output in zip(partitions, outputs):
            # a partition's ids ascend, so the graph's own come first
            own = int(np.searchsorted(partition.node_ids, self.num_outputs))
            scores[partition.node_ids[:own]] = output[:own]
        return scores


def build_pregel_engine(working_graph: Graph, config: InferenceConfig,
                        layout: Optional[ClusterLayout]) -> PregelEngine:
    """Partition the (possibly shadow-expanded) graph into a reusable engine.

    Partitioning is the expensive part of Pregel preparation; a session builds
    the engine once at ``prepare()`` time and swaps in a fresh metrics
    collector per execution.  The plan's
    :class:`~repro.cluster.layout.ClusterLayout` is reused instead of rebuilt;
    what a partition derives from it is built by the first run, where the run
    happens — in the worker under a process executor — and kept there.
    """
    return PregelEngine(working_graph, num_workers=config.num_workers,
                        layout=layout, executor=config.executor)


def has_cached_run(partition: PregelPartition, num_layers: int) -> bool:
    """Whether a partition carries a complete state cache from a full run —
    the states of supersteps ``0 … num_layers-1`` and the logits (asked
    where the state lives; the parent reads ``engine.cache_warm``)."""
    history = partition.block_state.get("h_history")
    return (history is not None
            and len(history) == num_layers
            and all(h is not None for h in history)
            and partition.block_state.get("output") is not None)


def frontier_schedule(engine: PregelEngine, frontiers: Sequence[np.ndarray],
                      ) -> Tuple[FrontierSchedule, List[Destinations]]:
    """Turn per-superstep dirty frontiers into what an incremental run needs.

    The schedule gives each partition its local frontier rows per superstep;
    ``targets[s]`` is the superstep-``s+1`` frontier in bucket order, which
    every partition's superstep-``s`` send selects its rows for.  One
    grouped pass per frontier yields both.
    """
    layout = engine.layout
    schedule: FrontierSchedule = []
    targets: List[Destinations] = []
    for frontier in frontiers:
        order, sizes, starts = stable_group_by(layout.owners(frontier), layout.num_partitions)
        local = layout.local_of[frontier]
        schedule.append({int(pid): local[order[starts[pid]:starts[pid] + sizes[pid]]]
                         for pid in np.nonzero(sizes)[0]})
        targets.append(Destinations(frontier[order], np.append(starts, frontier.size)))
    return schedule, targets[1:]


def run_program(engine: PregelEngine, program: GNNInferenceProgram,
                metrics: MetricsCollector,
                frontier: Optional[FrontierSchedule] = None) -> Dict[str, np.ndarray]:
    """Run one program over the warm engine and assemble the dense scores.

    ``setup_partition`` resets all per-run block state, so engine reuse is
    safe and repeated runs stay bit-identical.
    """
    engine.metrics = metrics
    program.model.eval()
    result = engine.run(program, frontier=frontier)
    return {"scores": program.scores(result.partitions, result.results)}
