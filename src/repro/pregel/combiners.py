"""Sender-side message combiners.

A combiner folds the messages a worker is about to send to the *same
destination vertex* into fewer messages before they hit the network — Pregel's
classic bandwidth optimisation, and the mechanism the paper reuses to
implement the partial-gather strategy (the GNN's aggregate stage runs inside
the combiner, which is legal exactly when that stage is commutative and
associative).

There is one fold, :meth:`MessageCombiner.combine_block`; the subclasses only
name the :func:`~repro.tensor.ops.segment_reduce` op it runs.  A row-indexed
block (a GCN/SAGE send, whose messages are the sender's state rows) is
folded straight from its table through ``rows=``, so the per-message table
is never built.  It is called
from :func:`~repro.pregel.vertex.route`, once per worker per superstep/round
on either engine, with the slots that land the folded rows in
destination-partition order — except in an incremental Pregel send, which
folds its changed destinations itself with the same slots (copying the other
partials from its memo) and hands ``route`` the folded block.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.pregel.vertex import MessageBlock
from repro.tensor.ops import segment_reduce


class MessageCombiner:
    """Folds a block's rows per destination with the subclass's ``op``.

    The reduction itself is :func:`~repro.tensor.ops.segment_reduce` — the
    kernel the receiver's gather runs too, so a partial computed here and
    finished there accumulates like one reduction.
    """

    #: the ``segment_reduce`` op a subclass folds payload rows with.
    op: str

    def combine_block(self, block: MessageBlock,
                      fold: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
                      ) -> MessageBlock:
        """Fold a packed block so each destination id appears at most once.

        ``fold = (dst_ids, slot, counts)`` is the index-only half — ``route``
        passes the one that lands in bucket order; by default destinations
        come out in ascending id order.  A destination's rows fold in block
        order; ``counts`` sum, so a mean can still be finished exactly.
        """
        if fold is None:
            dst_ids, slot = np.unique(block.dst_ids, return_inverse=True)
            fold = dst_ids, slot, segment_reduce(block.counts, slot, dst_ids.size, "sum")
        dst_ids, slot, counts = fold
        return MessageBlock(dst_ids, segment_reduce(block.payload, slot, dst_ids.size,
                                                    self.op, rows=block.rows), counts)


class SumCombiner(MessageCombiner):
    """Sum messages per destination (also carries partial sums for mean)."""

    op = "sum"


class MeanCombiner(SumCombiner):
    """Identical wire format to :class:`SumCombiner`.

    Mean aggregation is carried as (partial sum, count): the payload holds the
    partial sum and ``MessageBlock.counts`` holds how many raw messages it
    stands for, so the receiver can finish the division exactly.
    """


class MaxCombiner(MessageCombiner):
    """Element-wise maximum per destination."""

    op = "max"


def combiner_for_aggregate_kind(kind: str) -> Optional[MessageCombiner]:
    """Map a GAS layer's ``aggregate_kind`` to the matching combiner.

    ``union`` (GAT) returns ``None`` — its reduction is order-dependent through
    the softmax normaliser, so sender-side combining would change results and
    partial-gather must stay disabled.
    """
    if kind in ("sum",):
        return SumCombiner()
    if kind in ("mean",):
        return MeanCombiner()
    if kind == "max":
        return MaxCombiner()
    if kind == "union":
        return None
    raise ValueError(f"unknown aggregate kind {kind!r}")
