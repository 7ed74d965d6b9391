"""Message blocks and their routing, the partition context, the block-program interface."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.layout import ClusterLayout, stable_group_by
from repro.cluster.metrics import FLOAT_BYTES, ID_BYTES, RECORD_OVERHEAD_BYTES, InstanceMetrics
from repro.tensor.ops import segment_reduce

if TYPE_CHECKING:
    from repro.pregel.combiners import MessageCombiner
    from repro.pregel.engine import PregelPartition


@dataclass
class MessageBlock:
    """A packed batch of messages sharing a payload matrix.

    Row i is a message for vertex ``dst_ids[i]`` with payload ``payload[i]``
    that stands for ``counts[i]`` original messages (counts > 1 appear when a
    sender-side combiner pre-aggregated messages — the partial-gather case).
    A *row-indexed* block reads row i's payload from ``payload[rows[i]]``:
    its ``payload`` is a table the messages share (the sender's state rows,
    when a message is its source's state), and the ``(rows × width)``
    message table is built only by :meth:`dense_payload` and :meth:`take` —
    a combiner folds the rows straight from the table.
    """

    dst_ids: np.ndarray
    payload: np.ndarray
    counts: Optional[np.ndarray] = None
    rows: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.dst_ids = np.asarray(self.dst_ids, dtype=np.int64)
        self.payload = np.asarray(self.payload, dtype=np.float64)
        if self.payload.ndim == 1:
            self.payload = self.payload.reshape(-1, 1)
        if self.counts is None:
            self.counts = np.ones(self.dst_ids.shape[0], dtype=np.int64)
        else:
            self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.rows is not None:
            self.rows = np.asarray(self.rows, dtype=np.int64)
        messages = self.payload if self.rows is None else self.rows
        if not (self.dst_ids.shape[0] == messages.shape[0] == self.counts.shape[0]):
            raise ValueError("dst_ids, payload (or rows) and counts must have matching lengths")

    # Whether a sender-side combiner may fold this block's rows.  Deliberately
    # unannotated so the dataclass machinery treats it as a plain class
    # attribute (subclasses override it), not an instance field.
    combinable = True

    @property
    def width(self) -> int:
        """Floats per message, whether the payload is per row or a shared table."""
        return int(self.payload.shape[1])

    def nbytes(self) -> float:
        return float(self.dst_ids.shape[0] * (ID_BYTES + RECORD_OVERHEAD_BYTES
                                              + self.width * FLOAT_BYTES))

    def num_records(self) -> int:
        return int(self.dst_ids.shape[0])

    def dense_payload(self) -> np.ndarray:
        """Payload rows aligned with ``dst_ids`` (no copy unless row-indexed)."""
        return self.payload if self.rows is None else self.payload[self.rows]

    def take(self, rows: np.ndarray) -> "MessageBlock":
        """A new block containing only the selected rows (same concrete type).

        The result of a plain block carries its own payload rows — it is what
        crosses the wire — and is a view when ``rows`` is a slice of one that
        is not row-indexed.
        """
        payload = self.payload[rows if self.rows is None else self.rows[rows]]
        return MessageBlock(dst_ids=self.dst_ids[rows], payload=payload,
                            counts=self.counts[rows])

    def split_by(self, targets: np.ndarray,
                 num_buckets: int) -> List[Tuple[int, "MessageBlock"]]:
        """Columnar bucketing: one :meth:`take` slice per :func:`bucket_rows` group.

        ``targets[i]`` names the bucket (destination partition) of row ``i``;
        subclasses (e.g. broadcast blocks) keep their concrete type.  Returns
        ``(bucket, block)`` pairs in ascending bucket order.
        """
        if np.shape(targets)[0] != self.dst_ids.shape[0]:
            raise ValueError("targets must assign one bucket per block row")
        return [(bucket, self.take(rows)) for bucket, rows in bucket_rows(targets, num_buckets)]


def bucket_rows(targets: np.ndarray, num_buckets: int) -> List[Tuple[int, np.ndarray]]:
    """``(bucket, rows)`` of every non-empty bucket, ascending.

    One stable argsort groups all rows at once (no per-bucket mask pass); rows
    within a bucket keep their relative order, as a ``nonzero`` scan would.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size == 0:
        return []
    if int(targets.min()) < 0 or int(targets.max()) >= int(num_buckets):
        raise ValueError(
            f"targets must lie in [0, {int(num_buckets)}); "
            f"got range [{int(targets.min())}, {int(targets.max())}]")
    order, counts, starts = stable_group_by(targets, int(num_buckets))
    return [(int(bucket), order[starts[bucket]:starts[bucket] + counts[bucket]])
            for bucket in np.nonzero(counts)[0]]


def concat_messages(blocks: Sequence[MessageBlock],
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(dst_ids, payload, counts)`` of ``blocks`` end to end, in block order.

    Row-indexed blocks (broadcast ones too) are densified on the way, so the
    result feeds a gather (or a combiner) directly; no blocks give zero rows,
    and one block gives its own arrays (no copy unless it is row-indexed).
    """
    if not blocks:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.zeros((0, 0)), empty
    if len(blocks) == 1:
        return blocks[0].dst_ids, blocks[0].dense_payload(), blocks[0].counts
    return (np.concatenate([block.dst_ids for block in blocks]),
            np.concatenate([block.dense_payload() for block in blocks], axis=0),
            np.concatenate([block.counts for block in blocks]))


class Schedule(NamedTuple):
    """The index-only half of :func:`route`: a function of block ids and layout.

    The blocks at ``folds`` fold together — row ``i`` into row ``slot[i]`` of a
    block with ``fold = (dst_ids, slot, counts)`` — and the result stands at
    ``folds[0]``; ``cuts[i]`` lists the ``(bucket, rows)`` of the block then
    standing at ``i`` (slices of the folded block, nothing for later ``folds``).
    """

    folds: List[int]
    fold: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    cuts: List[List[Tuple[int, Any]]]


def bucket_slices(bounds: np.ndarray) -> List[Tuple[int, slice]]:
    """``(bucket, rows)`` of every non-empty bucket of rows already in bucket order.

    Bucket ``b`` is rows ``bounds[b]:bounds[b + 1]``: the cuts of a folded
    block, or of any block whose rows were selected bucket by bucket.
    """
    edges = bounds.tolist()
    return [(bucket, slice(start, stop))
            for bucket, (start, stop) in enumerate(zip(edges, edges[1:])) if stop > start]


def route_schedule(blocks: Sequence[MessageBlock], fold: bool,
                   layout: ClusterLayout) -> Schedule:
    """Where every row of the (non-empty) ``blocks`` goes; reads no payload."""
    folds = [i for i, block in enumerate(blocks) if fold and block.combinable]
    cuts = [[] if i in folds else
            bucket_rows(layout.owners(block.dst_ids), layout.num_partitions)
            for i, block in enumerate(blocks)]
    if not folds:
        return Schedule(folds, None, cuts)
    # slot = rank of (owner, destination), so the fold lands in bucket order:
    # a membership table and a rank table over node ids, no sort of the rows
    dst_ids = np.concatenate([blocks[i].dst_ids for i in folds])
    present = np.flatnonzero(np.bincount(dst_ids, minlength=layout.num_nodes))
    order, sizes, starts = stable_group_by(layout.owners(present), layout.num_partitions)
    rank = np.empty(layout.num_nodes, dtype=np.int64)
    rank[present[order]] = np.arange(order.size)
    slot = rank[dst_ids]
    counts = segment_reduce(np.concatenate([blocks[i].counts for i in folds]),
                            slot, order.size, "sum")
    cuts[folds[0]] = bucket_slices(np.append(starts, order.size))
    return Schedule(folds, (present[order], slot, counts), cuts)


def route(blocks: Sequence[MessageBlock], combiner: Optional[MessageCombiner],
          layout: ClusterLayout, schedule: Optional[Schedule] = None,
          ) -> List[List[MessageBlock]]:
    """Fold in bucket order, then cut, one worker's outgoing blocks: a block list per partition.

    The send path of both engines.  :func:`route_schedule` is its index-only
    half — a caller whose send has the same ids every time keeps the
    :class:`Schedule` and passes it back; the rest only moves values.  Empty
    blocks are dropped.  With a ``combiner`` (partial-gather) the combinable
    blocks are folded together, once, and the folded block stands where the
    first of them stood — so what is sized and shipped is post-combine rows
    only, each bucket's piece a view of the one folded array.  Every other
    block is cut by owner (:func:`bucket_rows`).  A bucket therefore holds its
    pieces in block order, a folded piece lists destinations in ascending id
    order, and every destination's rows were folded in the order they were
    sent: the operand order the receivers' segment reductions see.
    """
    blocks = [block for block in blocks if block.num_records()]
    if schedule is None:
        schedule = route_schedule(blocks, combiner is not None, layout)
    if len(schedule.cuts) != len(blocks):
        raise ValueError("schedule was computed for a different send")
    if schedule.folds:
        folding = [blocks[i] for i in schedule.folds]
        blocks[schedule.folds[0]] = combiner.combine_block(
            folding[0] if len(folding) == 1 else MessageBlock(*concat_messages(folding)),
            schedule.fold)
    buckets: List[List[MessageBlock]] = [[] for _ in range(layout.num_partitions)]
    for block, cuts in zip(blocks, schedule.cuts):
        for bucket, rows in cuts:
            buckets[bucket].append(block.take(rows))
    return buckets


class PartitionContext:
    """Per-partition view handed to a block program during one superstep.

    It exposes the partition, the outgoing mailbox, the local rows a
    frontier-restricted superstep may recompute, and ``metrics`` — the
    instance's accounting record, which the program charges its compute units
    to (``context.metrics.add_compute(units)``).
    """

    def __init__(self, partition: PregelPartition, superstep: int,
                 metrics: InstanceMetrics,
                 frontier_rows: Optional[np.ndarray] = None) -> None:
        self.partition = partition
        self.superstep = superstep
        self.metrics = metrics
        #: local row indices this superstep is restricted to, or None for a
        #: full superstep.  Set when the engine runs with a frontier schedule
        #: (incremental inference).
        self.frontier_rows = frontier_rows
        self.outgoing_blocks: List[MessageBlock] = []
        #: the program's kept :class:`Schedule` of ``outgoing_blocks``, if any.
        self.schedule: Optional[Schedule] = None

    def send_block(self, block: MessageBlock) -> None:
        self.outgoing_blocks.append(block)


class BlockVertexProgram:
    """Per-partition block program: override :meth:`compute_partition`.

    ``incoming`` is the list of :class:`MessageBlock`s whose destinations are
    owned by the partition; the program is responsible for its own
    vectorisation and for sending outgoing blocks through the context.
    """

    #: whether a run leaves a cache in ``block_state`` that a later run reads
    cache_states = False

    def compute_partition(self, context: PartitionContext,
                          incoming: List[MessageBlock]) -> None:
        raise NotImplementedError

    def setup_partition(self, partition: PregelPartition) -> None:
        """Hook called once before superstep 0 for each partition."""

    def max_supersteps(self) -> int:
        raise NotImplementedError

    def combiner_for_superstep(self, superstep: int) -> Optional[MessageCombiner]:
        """Sender-side combiner applied to this superstep's outgoing blocks."""
        return None

    def state_bytes(self, partition: PregelPartition, superstep: int) -> float:
        """Bytes of vertex state the program holds in ``partition`` after
        ``superstep``: its share of the peak memory the Pregel harness prices
        (a program charges only compute itself)."""
        return 0.0

    def result(self, partition: PregelPartition) -> Any:
        """What a run hands back from ``partition`` at close: all that leaves
        the slot (``block_state`` stays where the partition runs)."""
        return None
