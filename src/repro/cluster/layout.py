"""Cluster-wide columnar routing tables.

A :class:`ClusterLayout` is the shared answer to the two questions every
shuffle in the system asks about a global node id:

* **who owns it?** — ``owner_of[g]`` is the partition (worker) id;
* **where does it live there?** — ``local_of[g]`` is the node's dense local
  index inside its owner's storage (row index into the partition's state
  matrices).

Both tables are plain dense ``int64`` arrays computed **once** per
partitioning, so every layer that moves rows — the message router both
backends share, delta scatters, shadow-node destination expansion — translates whole
message batches with two fancy-indexing gathers instead of per-element Python
dict lookups.  The layout is immutable after construction and safe to share
across partitions, executions and sessions.

The local index convention is the engine's partitions': within a partition,
owned global ids are stored in ascending order, so ``nodes_of(pid)`` is
sorted and ``nodes_of(pid)[local_of[g]] == g`` for every owned ``g``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a graph<->cluster cycle
    from repro.graph.partition import HashPartitioner


def stable_group_by(keys: np.ndarray,
                    num_buckets: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group row positions by an integer bucket key in one stable pass.

    Returns ``(order, counts, starts)``: ``order`` lists row positions grouped
    by bucket (rows within a bucket keep their original relative order, i.e.
    ``order[starts[b]:starts[b] + counts[b]]`` are bucket ``b``'s rows
    ascending).  This is the one group-by idiom behind layout construction,
    partition slicing and message-block bucketing.

    ``keys`` must already lie in ``[0, num_buckets)`` — callers validate.
    Bucket keys are bounded by the worker count, so they almost always fit
    uint16, where numpy's stable sort switches to radix sort (about 4x faster
    than the int64 mergesort path).
    """
    keys = np.asarray(keys, dtype=np.int64)
    sort_keys = keys.astype(np.uint16) if int(num_buckets) <= 65536 else keys
    order = np.argsort(sort_keys, kind="stable")
    counts = np.bincount(keys, minlength=int(num_buckets))
    starts = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1]])
    return order, counts, starts


def spans(start: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(slots, ends)`` of the ranges ``start[k]:start[k] + counts[k]``.

    ``slots`` lists every range's positions, ranges in order, each
    ascending — one repeat/arange pass with no per-range Python; ``ends[k]``
    is how many slots precede range ``k`` (one more element: the total).
    """
    ends = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=ends[1:])
    return np.arange(int(ends[-1]), dtype=np.int64) + np.repeat(start - ends[:-1], counts), ends


def csr_gather(indptr: np.ndarray, values: np.ndarray,
               ids: np.ndarray) -> np.ndarray:
    """Concatenate ``values[indptr[i]:indptr[i+1]]`` for every ``i`` in ``ids``.

    The ranged multi-gather behind every CSR walk in the system (shadow
    replica fan-out, a reducer's edge rows): ranges appear in ``ids`` order,
    each range in its stored order (:func:`spans`).
    """
    ids = np.asarray(ids, dtype=np.int64)
    start = indptr[ids]
    return values[spans(start, indptr[ids + 1] - start)[0]]


class ClusterLayout:
    """Dense global→owner and global→local translation tables.

    Parameters
    ----------
    owner_of:
        ``int64 [num_nodes]`` — partition id owning each global node id.
    local_of:
        ``int64 [num_nodes]`` — local row index of each global node id
        inside its owner (rank among the owner's nodes in ascending id order).
    num_partitions:
        Total partition count; every ``owner_of`` entry is in
        ``[0, num_partitions)``.
    """

    __slots__ = ("num_partitions", "owner_of", "local_of", "_grouping")

    def __init__(self, owner_of: np.ndarray, local_of: np.ndarray,
                 num_partitions: int) -> None:
        self.owner_of = np.asarray(owner_of, dtype=np.int64)
        self.local_of = np.asarray(local_of, dtype=np.int64)
        if self.owner_of.shape != self.local_of.shape or self.owner_of.ndim != 1:
            raise ValueError("owner_of and local_of must be matching 1-D arrays")
        self.num_partitions = int(num_partitions)
        if self.num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if self.owner_of.size and (int(self.owner_of.min()) < 0
                                   or int(self.owner_of.max()) >= self.num_partitions):
            raise ValueError("owner_of entries must lie in [0, num_partitions)")
        # Grouped view ``(order, counts, starts)``: ``order`` lists global
        # ids grouped by owner (each group ascending); ``starts``/``counts``
        # slice it per partition.  Built lazily — :meth:`from_assignments`
        # already has the grouping as a by-product of computing ``local_of``
        # and injects it instead of paying a second argsort.
        self._grouping: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def _grouped(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The grouped view, built on first use and published in one
        assignment: partitions stepped side by side share this layout, and a
        reader must never see one of the three arrays without the others."""
        grouping = self._grouping
        if grouping is None:
            grouping = self._grouping = stable_group_by(self.owner_of, self.num_partitions)
        return grouping

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_assignments(cls, assignments: np.ndarray, num_partitions: int) -> "ClusterLayout":
        """Build the layout from a dense ``global id -> partition id`` array."""
        assignments = np.asarray(assignments, dtype=np.int64)
        num_nodes = assignments.size
        order, counts, starts = stable_group_by(assignments, int(num_partitions))
        local_of = np.empty(num_nodes, dtype=np.int64)
        # Rank of each node within its partition group: position in the
        # grouped order minus the group's start offset.
        local_of[order] = np.arange(num_nodes, dtype=np.int64) - np.repeat(starts, counts)
        layout = cls(owner_of=assignments, local_of=local_of,
                     num_partitions=int(num_partitions))
        layout._grouping = order, counts, starts
        return layout

    @classmethod
    def build(cls, num_nodes: int, partitioner: "HashPartitioner") -> "ClusterLayout":
        """Build the layout for ``num_nodes`` global ids under ``partitioner``."""
        assignments = partitioner.assign_many(np.arange(int(num_nodes), dtype=np.int64))
        return cls.from_assignments(assignments, partitioner.num_partitions)

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return int(self.owner_of.size)

    def _check_ids(self, global_ids: np.ndarray) -> np.ndarray:
        global_ids = np.asarray(global_ids, dtype=np.int64)
        if global_ids.size and (int(global_ids.min()) < 0
                                or int(global_ids.max()) >= self.owner_of.size):
            bad = global_ids[(global_ids < 0) | (global_ids >= self.owner_of.size)][0]
            raise ValueError(
                f"global id {int(bad)} is outside this layout's id space "
                f"[0, {self.owner_of.size})")
        return global_ids

    def owners(self, global_ids: np.ndarray) -> np.ndarray:
        """Owning partition id of every id in ``global_ids`` (one gather)."""
        return self.owner_of[self._check_ids(global_ids)]

    def local_indices(self, global_ids: np.ndarray) -> np.ndarray:
        """Local row index of every id inside its own owner (one gather)."""
        return self.local_of[self._check_ids(global_ids)]

    def translate(self, global_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(owners, local_indices)`` for a batch of global ids in one pass."""
        global_ids = self._check_ids(global_ids)
        return self.owner_of[global_ids], self.local_of[global_ids]

    def group_by_owner(self, global_ids: np.ndarray,
                       ) -> Iterator[Tuple[int, np.ndarray]]:
        """Group row positions of ``global_ids`` by owning partition.

        Yields ``(partition_id, positions)`` for *every* partition in id
        order — empty ones included, so callers that must overwrite
        per-partition state (e.g. an edge regroup after a delta) cannot skip
        a partition that just lost its last row.  ``positions`` index into
        ``global_ids``; rows within a partition keep their original relative
        order (stable grouping), which is what keeps delta-time regroups
        bit-identical to a from-scratch partitioning.
        """
        owners = self.owners(global_ids)
        order, counts, starts = stable_group_by(owners, self.num_partitions)
        for pid in range(self.num_partitions):
            start = int(starts[pid])
            yield pid, order[start:start + int(counts[pid])]

    # ------------------------------------------------------------------ #
    # per-partition views
    # ------------------------------------------------------------------ #
    def nodes_of(self, partition_id: int) -> np.ndarray:
        """Global ids owned by ``partition_id``, in ascending order."""
        pid = int(partition_id)
        if not 0 <= pid < self.num_partitions:
            raise ValueError(f"partition id {pid} out of range "
                             f"[0, {self.num_partitions})")
        order, counts, starts = self._grouped()
        start = int(starts[pid])
        return order[start:start + int(counts[pid])]

    def partition_sizes(self) -> np.ndarray:
        """Number of owned nodes per partition (``int64 [num_partitions]``)."""
        return self._grouped()[1].copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ClusterLayout(num_nodes={self.num_nodes}, "
                f"num_partitions={self.num_partitions})")
